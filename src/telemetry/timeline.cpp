#include "telemetry/timeline.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

namespace telemetry {

namespace {

/// `s` escaped for use inside a JSON string literal: quote, backslash and
/// every control character.
std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

// ---- Chrome Trace Event rendering -----------------------------------------
//
// The document is hand-assembled so the telemetry layer stays free of the
// config JSON dependency. Timestamps are microseconds (the Trace Event
// unit); every complete event additionally carries exact nanosecond
// begin/duration in args so validators never fight the decimal rendering.

std::string us(std::uint64_t ns) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%" PRIu64 ".%03" PRIu64, ns / 1000,
                ns % 1000);
  return buf;
}

class TraceWriter {
 public:
  void meta_process(int pid, const std::string& name) {
    begin_event();
    out_ += "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" +
            std::to_string(pid) +
            ",\"tid\":0,\"args\":{\"name\":\"" + json_escape(name) + "\"}}";
  }

  void meta_thread(int pid, int tid, const std::string& name) {
    begin_event();
    out_ += "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":" +
            std::to_string(pid) + ",\"tid\":" + std::to_string(tid) +
            ",\"args\":{\"name\":\"" + json_escape(name) + "\"}}";
  }

  void complete(int pid, int tid, std::uint64_t begin_ns, std::uint64_t dur_ns,
                const std::string& name, const std::string& extra_args = {}) {
    begin_event();
    out_ += "{\"name\":\"" + json_escape(name) +
            "\",\"ph\":\"X\",\"pid\":" + std::to_string(pid) +
            ",\"tid\":" + std::to_string(tid) + ",\"ts\":" + us(begin_ns) +
            ",\"dur\":" + us(dur_ns) +
            ",\"args\":{\"ns\":" + std::to_string(begin_ns) +
            ",\"dur_ns\":" + std::to_string(dur_ns) +
            (extra_args.empty() ? "" : "," + extra_args) + "}}";
  }

  void instant(int pid, int tid, std::uint64_t at_ns, const std::string& name,
               const std::string& extra_args = {}) {
    begin_event();
    out_ += "{\"name\":\"" + json_escape(name) +
            "\",\"ph\":\"i\",\"s\":\"t\",\"pid\":" + std::to_string(pid) +
            ",\"tid\":" + std::to_string(tid) + ",\"ts\":" + us(at_ns) +
            ",\"args\":{\"ns\":" + std::to_string(at_ns) +
            (extra_args.empty() ? "" : "," + extra_args) + "}}";
  }

  [[nodiscard]] std::string finish() && {
    return "{\"traceEvents\":[" + std::move(out_) +
           "],\"displayTimeUnit\":\"ns\",\"otherData\":{\"schema\":\"trace-"
           "event-v1\"}}";
  }

 private:
  void begin_event() {
    if (!out_.empty()) out_ += ",\n";
  }
  std::string out_;
};

// Track ids inside the per-CPU process. Keep them spread out so Perfetto
// renders the tracks in this order under each CPU group.
constexpr int kTrackTask = 0;
constexpr int kTrackIrq = 1;
constexpr int kTrackSoftirq = 2;
constexpr int kTrackSmi = 3;
constexpr int kTrackOob = 4;
constexpr int kTrackIrqOff = 5;
constexpr int kTracksPerCpu = 8;

constexpr int kPidMachine = 0;
constexpr int kPidChains = 1;
constexpr int kPidLocks = 2;
constexpr int kFaultTid = 999;

// Pseudo vectors, mirroring kernel/kernel.h (the telemetry layer cannot
// include the kernel, so the contract is by value).
constexpr int kVecLocalTimer = -1;
constexpr int kVecReschedIpi = -2;
constexpr int kVecSmi = -3;
constexpr int kVecOobStage = -4;

std::string vector_name(int vec, const TimelineOptions& opt) {
  switch (vec) {
    case kVecLocalTimer: return "local-timer";
    case kVecReschedIpi: return "resched-ipi";
    case kVecSmi: return "smi";
    case kVecOobStage: return "oob-stage-stall";
    default: break;
  }
  if (opt.irq_name) return opt.irq_name(vec);
  return "irq" + std::to_string(vec);
}

std::string lock_label(int id, const TimelineOptions& opt) {
  if (opt.lock_name) return opt.lock_name(id);
  return "lock" + std::to_string(id);
}

}  // namespace

std::string chrome_trace_json(const FlightRecorder& ring,
                              const std::vector<sim::LatencyChain>& chains,
                              const TimelineOptions& opt) {
  const auto entries = ring.entries();

  int ncpus = opt.ncpus;
  for (const auto& e : entries) ncpus = std::max(ncpus, e.cpu + 1);

  TraceWriter w;
  w.meta_process(kPidMachine, "machine");
  for (int c = 0; c < ncpus; ++c) {
    const std::string p = "cpu" + std::to_string(c) + " ";
    const int base = c * kTracksPerCpu;
    w.meta_thread(kPidMachine, base + kTrackTask, p + "task");
    w.meta_thread(kPidMachine, base + kTrackIrq, p + "irq");
    w.meta_thread(kPidMachine, base + kTrackSoftirq, p + "softirq");
    w.meta_thread(kPidMachine, base + kTrackSmi, p + "smi");
    w.meta_thread(kPidMachine, base + kTrackOob, p + "oob");
    w.meta_thread(kPidMachine, base + kTrackIrqOff, p + "irq-off");
  }
  w.meta_thread(kPidMachine, kFaultTid, "faults");

  // Running task spans: a ctx-switch opens the incoming task's span and
  // closes the previous one on that CPU. The final span on each CPU closes
  // at the newest ring timestamp.
  std::uint64_t max_ns = 0;
  for (const auto& e : entries) {
    max_ns = std::max(max_ns, static_cast<std::uint64_t>(e.at));
  }
  struct Running {
    bool open = false;
    std::uint64_t since = 0;
    std::int32_t pid = 0;
    std::int32_t rt = 0;
  };
  std::vector<Running> running(static_cast<std::size_t>(std::max(ncpus, 0)));

  const auto span_begin = [](std::uint64_t at, std::int32_t dur) {
    const auto d = static_cast<std::uint64_t>(dur < 0 ? 0 : dur);
    return at >= d ? at - d : 0;
  };

  for (const auto& e : entries) {
    const auto at = static_cast<std::uint64_t>(e.at);
    const int cpu = e.cpu;
    const int base = cpu * kTracksPerCpu;
    switch (e.kind) {
      case EventKind::kCtxSwitch: {
        if (cpu < 0 || cpu >= ncpus) break;
        auto& r = running[static_cast<std::size_t>(cpu)];
        if (r.open && at > r.since) {
          w.complete(kPidMachine, base + kTrackTask, r.since, at - r.since,
                     "pid " + std::to_string(r.pid) + (r.rt ? " [rt]" : ""));
        }
        r = {true, at, e.a, e.b};
        break;
      }
      case EventKind::kIrqSpan: {
        const int track = e.a == kVecSmi     ? kTrackSmi
                          : e.a == kVecOobStage ? kTrackOob
                                                : kTrackIrq;
        const auto b = span_begin(at, e.b);
        w.complete(kPidMachine, base + track, b, at - b, vector_name(e.a, opt),
                   "\"vector\":" + std::to_string(e.a));
        break;
      }
      case EventKind::kSoftirqSpan: {
        const auto b = span_begin(at, e.b);
        w.complete(kPidMachine, base + kTrackSoftirq, b, at - b, "softirq");
        break;
      }
      case EventKind::kIrqOffSpan: {
        const auto b = span_begin(at, e.a);
        w.complete(kPidMachine, base + kTrackIrqOff, b, at - b, "irqs-off");
        break;
      }
      case EventKind::kLockRelease: {
        // Locks are mutually exclusive, so per-lock tracks never overlap
        // even when holds nest LIFO on one CPU or migrate between CPUs.
        const auto b = span_begin(at, e.b);
        w.complete(kPidLocks, e.a + 1, b, at - b,
                   "held " + lock_label(e.a, opt),
                   "\"cpu\":" + std::to_string(cpu));
        break;
      }
      case EventKind::kLockContend:
        w.instant(kPidLocks, e.a + 1, at, "contend " + lock_label(e.a, opt),
                  "\"cpu\":" + std::to_string(cpu) +
                      ",\"holder_cpu\":" + std::to_string(e.b));
        break;
      case EventKind::kIrqRaise:
        w.instant(kPidMachine, base + kTrackIrq, at,
                  "raise irq" + std::to_string(e.a));
        break;
      case EventKind::kIrqDispatch:
        w.instant(kPidMachine,
                  base + (e.a == kVecSmi     ? kTrackSmi
                          : e.a == kVecOobStage ? kTrackOob
                                                : kTrackIrq),
                  at, "dispatch " + vector_name(e.a, opt));
        break;
      case EventKind::kSoftirqRaise:
        w.instant(kPidMachine, base + kTrackSoftirq, at,
                  "raise softirq" + std::to_string(e.a));
        break;
      case EventKind::kOobStage:
        w.instant(kPidMachine, base + kTrackOob, at, "oob-stall",
                  "\"stall_ns\":" + std::to_string(e.a));
        break;
      case EventKind::kFaultArm:
        w.instant(kPidMachine, kFaultTid, at, "fault-arm");
        break;
      case EventKind::kFaultFire:
        w.instant(kPidMachine, kFaultTid, at,
                  "fault-fire kind=" + std::to_string(e.a));
        break;
      case EventKind::kLockAcquire:
      case EventKind::kCount:
        break;  // acquisitions render as the hold span on release
    }
  }
  for (int c = 0; c < ncpus; ++c) {
    const auto& r = running[static_cast<std::size_t>(c)];
    if (r.open && max_ns > r.since) {
      w.complete(kPidMachine, c * kTracksPerCpu + kTrackTask, r.since,
                 max_ns - r.since,
                 "pid " + std::to_string(r.pid) + (r.rt ? " [rt]" : ""));
    }
  }

  // Latency chains: one track per chain, segments partition [start, end].
  if (!chains.empty()) w.meta_process(kPidChains, "latency-chains");
  for (std::size_t i = 0; i < chains.size(); ++i) {
    const auto& ch = chains[i];
    const int tid = static_cast<int>(i) + 1;
    w.meta_thread(kPidChains, tid,
                  ch.origin + " #" + std::to_string(i) + " (" +
                      std::to_string(ch.total()) + " ns)");
    for (const auto& seg : ch.segments) {
      std::string name = to_string(seg.kind);
      if (!seg.detail.empty()) name += " (" + seg.detail + ")";
      w.complete(kPidChains, tid, static_cast<std::uint64_t>(seg.begin),
                 static_cast<std::uint64_t>(seg.span()), name,
                 "\"cpu\":" + std::to_string(seg.cpu));
    }
  }

  return std::move(w).finish();
}

// ---------------------------------------------------------------------------
// BlameCollector
// ---------------------------------------------------------------------------

BlameCollector::BlameCollector(Options opt) : opt_(opt) {
  if (opt_.worst_n < 1) opt_.worst_n = 1;
}

const char* BlameCollector::band_name(int band) {
  switch (band) {
    case 0: return "<10us";
    case 1: return "10-100us";
    case 2: return "100us-1ms";
    default: return ">=1ms";
  }
}

int BlameCollector::band_of(std::uint64_t total_ns) {
  if (total_ns < 10'000) return 0;
  if (total_ns < 100'000) return 1;
  if (total_ns < 1'000'000) return 2;
  return 3;
}

void BlameCollector::fold(const sim::LatencyChain& chain,
                          std::map<std::string, CauseTotal>& into) {
  for (const auto& seg : chain.segments) {
    std::string key = to_string(seg.kind);
    if (!seg.detail.empty()) {
      key += '/';
      key += seg.detail;
    }
    auto& slot = into[key];
    slot.ns += static_cast<std::uint64_t>(seg.span());
    slot.count++;
  }
}

void BlameCollector::on_sample(const sim::LatencyChain& chain) {
  const auto total = static_cast<std::uint64_t>(chain.total());

  // Worst-window trigger: snapshot the ring the moment a new worst sample
  // closes, so the dump shows what the machine was doing right before it.
  if (seen_ == 0 || total > worst_ns_) {
    worst_ns_ = total;
    if (ring_ != nullptr && ring_->enabled()) {
      worst_window_ = ring_->entries();
    }
  }
  const std::uint64_t order = seen_++;

  const bool threshold_mode = opt_.threshold_ns > 0;
  if (threshold_mode) {
    if (total < opt_.threshold_ns) return;
    over_threshold_++;
    fold(chain, agg_);
    auto& band = band_agg_[static_cast<std::size_t>(band_of(total))];
    band.samples++;
    fold(chain, band.causes);
  }

  // Keep the worst-N chains, largest first; arrival order breaks ties.
  const auto n = static_cast<std::size_t>(opt_.worst_n);
  if (worst_.size() == n && total <= worst_.back().chain.total()) return;
  auto it = std::upper_bound(
      worst_.begin(), worst_.end(), total,
      [](std::uint64_t t, const Kept& k) {
        return t > static_cast<std::uint64_t>(k.chain.total());
      });
  worst_.insert(it, Kept{chain, order});
  if (worst_.size() > n) worst_.pop_back();
}

BlameCollector::Attribution BlameCollector::attribution() const {
  Attribution a;
  a.samples_seen = seen_;
  if (opt_.threshold_ns > 0) {
    a.samples_attributed = over_threshold_;
    a.causes = agg_;
    a.bands = band_agg_;
  } else {
    a.samples_attributed = worst_.size();
    for (const auto& kept : worst_) {
      fold(kept.chain, a.causes);
      auto& band = a.bands[static_cast<std::size_t>(
          band_of(static_cast<std::uint64_t>(kept.chain.total())))];
      band.samples++;
      fold(kept.chain, band.causes);
    }
  }
  a.worst.reserve(worst_.size());
  for (const auto& kept : worst_) {
    Attribution::Sample s;
    s.origin = kept.chain.origin;
    s.total_ns = static_cast<std::uint64_t>(kept.chain.total());
    s.start = kept.chain.start;
    s.end = kept.chain.end;
    fold(kept.chain, s.causes);
    a.worst.push_back(std::move(s));
  }
  return a;
}

std::vector<sim::LatencyChain> BlameCollector::worst_chains() const {
  std::vector<sim::LatencyChain> out;
  out.reserve(worst_.size());
  for (const auto& kept : worst_) out.push_back(kept.chain);
  return out;
}

void BlameCollector::clear() {
  seen_ = 0;
  worst_.clear();
  over_threshold_ = 0;
  agg_.clear();
  band_agg_ = {};
  worst_window_.clear();
  worst_ns_ = 0;
}

}  // namespace telemetry
