#include "config/scenario_runner.h"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "config/telemetry_export.h"
#include "fault/injector.h"
#include "metrics/report.h"
#include "sim/arena.h"
#include "sim/rng.h"
#include "sim/snapshot.h"
#include "telemetry/sampler.h"
#include "workload/registry.h"

namespace config {
namespace {

using json::Value;

// ---- exact histogram / summary serialization -------------------------------

Value summary_to_json(const metrics::Summary& s) {
  Value v = Value::object();
  v.set("n", s.count());
  if (s.count() == 0) return v;  // min/max are infinities; don't emit them
  v.set("min", s.min());
  v.set("max", s.max());
  v.set("mean", s.mean());
  v.set("m2", s.m2());
  v.set("sum", s.sum());
  return v;
}

metrics::Summary summary_from_json(const Value& v) {
  const std::uint64_t n = v.at("n").as_u64();
  if (n == 0) return metrics::Summary{};
  return metrics::Summary::restore(n, v.at("min").as_double(),
                                   v.at("max").as_double(),
                                   v.at("mean").as_double(),
                                   v.at("m2").as_double(),
                                   v.at("sum").as_double());
}

Value hist_to_json(const metrics::LatencyHistogram& h) {
  Value v = Value::object();
  Value buckets = Value::array();
  for (const auto& [index, count] : h.bucket_counts()) {
    Value pair = Value::array();
    pair.push(index);
    pair.push(count);
    buckets.push(std::move(pair));
  }
  v.set("buckets", std::move(buckets));
  v.set("summary", summary_to_json(h.summary()));
  return v;
}

metrics::LatencyHistogram hist_from_json(const Value& v) {
  std::vector<std::pair<int, std::uint64_t>> buckets;
  if (const Value* b = v.find("buckets")) {
    for (const auto& pair : b->items()) {
      buckets.emplace_back(static_cast<int>(pair.items().at(0).as_i64()),
                           pair.items().at(1).as_u64());
    }
  }
  const Value* s = v.find("summary");
  return metrics::LatencyHistogram::restore(
      buckets, s ? summary_from_json(*s) : metrics::Summary{});
}

Value probe_result_to_json(const rt::ProbeResult& r) {
  Value v = Value::object();
  v.set("primary", hist_to_json(r.primary));
  v.set("secondary", hist_to_json(r.secondary));
  v.set("ideal_ns", r.ideal);
  v.set("collected", r.collected);
  v.set("expected", r.expected);
  v.set("complete", r.complete);
  Value stats = Value::object();
  for (const auto& [key, value] : r.stats) stats.set(key, value);
  v.set("stats", std::move(stats));
  return v;
}

rt::ProbeResult probe_result_from_json(const Value& v) {
  rt::ProbeResult r;
  if (const Value* p = v.find("primary")) r.primary = hist_from_json(*p);
  if (const Value* s = v.find("secondary")) r.secondary = hist_from_json(*s);
  if (const Value* i = v.find("ideal_ns")) r.ideal = i->as_u64();
  if (const Value* c = v.find("collected")) r.collected = c->as_u64();
  if (const Value* e = v.find("expected")) r.expected = e->as_u64();
  if (const Value* c = v.find("complete")) r.complete = c->as_bool();
  if (const Value* s = v.find("stats")) {
    for (const auto& [key, value] : s->members()) {
      r.stats[key] = value.as_double();
    }
  }
  return r;
}

// ---- shield plan -----------------------------------------------------------

void apply_shield(const ScenarioSpec& spec, Platform& p, rt::Probe& probe) {
  const ShieldPlan& s = spec.shield;
  if (s.mode == ShieldPlan::Mode::kNone) return;
  if (!p.has_shield()) {
    throw std::runtime_error("scenario '" + spec.name +
                             "': kernel has no shield support");
  }
  const auto mask = hw::CpuMask::single(s.cpu);
  switch (s.mode) {
    case ShieldPlan::Mode::kNone:
      return;
    case ShieldPlan::Mode::kShieldAll:
      p.shield().shield_all(mask);
      return;
    case ShieldPlan::Mode::kDedicate:
      if (probe.task() == nullptr || probe.irq() < 0) {
        throw std::runtime_error(
            "scenario '" + spec.name +
            "': dedicate shield plan needs a probe with a task and an IRQ");
      }
      p.shield().dedicate_cpu(s.cpu, *probe.task(), probe.irq());
      return;
    case ShieldPlan::Mode::kComponents: {
      if (s.bind_irq && probe.irq() >= 0) {
        // The "user intent" procfs write: bind the probe's IRQ to the
        // shield CPU whether or not the irq shield is up.
        p.kernel().procfs().write(
            "/proc/irq/" + std::to_string(probe.irq()) + "/smp_affinity",
            std::to_string(std::uint64_t{1} << s.cpu));
      }
      if (s.procs) p.shield().set_process_shield(mask);
      if (s.irqs) p.shield().set_irq_shield(mask);
      if (s.ltmr) p.shield().set_ltmr_shield(mask);
      return;
    }
  }
}

// ---- delivery mechanism ----------------------------------------------------

/// Install the spec's interrupt-delivery mechanism on the booted-or-booting
/// kernel. For "oob" the probe's task and IRQ line move onto the out-of-band
/// stage; "inband" (the default) leaves the kernel exactly as constructed,
/// so omitting the field cannot perturb any byte of any output.
void apply_mechanism(const ScenarioSpec& spec, Platform& p, rt::Probe& probe) {
  if (spec.mechanism != "oob") return;
  kernel::Kernel& k = p.kernel();
  k.set_mechanism(kernel::MechanismKind::kOob);
  auto& oob = static_cast<kernel::OobPipeline&>(k.pipeline());
  if (probe.task() != nullptr) oob.adopt_task(*probe.task());
  if (probe.irq() >= 0) oob.adopt_irq(probe.irq());
}

bool read_file(const std::string& path, std::string& out) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  char buf[4096];
  std::size_t n = 0;
  out.clear();
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) out.append(buf, n);
  std::fclose(f);
  return true;
}

bool write_file(const std::string& path, const std::string& content) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const bool ok =
      std::fwrite(content.data(), 1, content.size(), f) == content.size();
  std::fclose(f);
  return ok;
}

// ---- disk-cache integrity ---------------------------------------------------

/// Cache files are a sealed envelope around the result payload so partial
/// writes and bit rot are detectable (json::seal). Files in the old
/// bare-result format fail the check and get recomputed — migration by
/// quarantine.
constexpr const char* kCacheFormat = "shieldsim-cache-v1";

std::string encode_cache_entry(const ScenarioResult& r) {
  return json::seal(kCacheFormat, "result", r.to_json()).dump(2);
}

std::optional<ScenarioResult> decode_cache_entry(const std::string& text) {
  try {
    const Value env = Value::parse(text);
    const Value* payload = json::unseal(env, kCacheFormat, "result");
    if (payload == nullptr) return std::nullopt;
    return ScenarioResult::from_json(*payload);
  } catch (const std::exception&) {
    return std::nullopt;  // truncated / not JSON / wrong shapes
  }
}

void quarantine_cache_file(const std::string& path) {
  // Keep the evidence next to the cache rather than deleting it: a
  // .quarantined file is inert (never read back) but diagnosable.
  (void)std::rename(path.c_str(), (path + ".quarantined").c_str());
}

// ---- prefix sharing ---------------------------------------------------------

/// Root folded into every prefix-platform seed; the per-prefix seed is
/// derived from the prefix key so identical prefixes are identical across
/// processes and runs.
constexpr std::uint64_t kPrefixSeedRoot = 0x707265666978ull;  // "prefix"

/// Bound on distinct warmed prefixes kept resident (LRU beyond it).
constexpr std::size_t kPrefixCacheEntries = 8;

/// Function-local statics in model code (the probe/workload factory maps,
/// the kernel's latency-counter view table, stream/locale machinery) must
/// make their first heap allocation on the ordinary heap: a static whose
/// buffer landed in an arena would dangle once that arena rewinds. The
/// factory maps are touched by ScenarioSpec::validate() (always called
/// before any arena activates); this covers the rest, once per process.
void warm_process_statics() {
  static std::once_flag once;
  std::call_once(once, [] {
    (void)kernel::latency_counter_views();
    std::ostringstream os;
    os << 0.5;
    (void)os.str();
  });
}

/// A spec's machine preset and its kernel preset with overrides applied.
/// Resolved on the ordinary heap, outside any arena: temporaries freed
/// inside an arena would leave holes that the platform's own allocations
/// then fill, changing the prefix's memory layout.
struct Presets {
  MachineConfig machine;
  KernelConfig kernel;
  explicit Presets(const ScenarioSpec& spec)
      : machine(*find_machine(spec.machine)),
        kernel(*find_kernel(spec.kernel)) {
    apply_kernel_overrides(kernel, spec.kernel_overrides);
  }
};

/// Construct the spec's machine under `seed` and install its workloads —
/// the part of a run that precedes the probe. Allocated wherever the active
/// allocator puts it (heap or a state arena); the caller owns it.
Platform* new_platform(const ScenarioSpec& spec, const Presets& presets,
                       std::uint64_t seed) {
  auto* p = new Platform(presets.machine, presets.kernel, seed,
                         spec.ht_override);
  for (const auto& w : spec.workloads) {
    workload::make_workload(w.name, w.params)->install(*p);
  }
  return p;
}

/// What the snapshot check compares beside the result: the whole telemetry
/// registry (every per-CPU latency counter and lock total) and the chain
/// tracer's statistics.
std::string kernel_counters_text(Platform& p) {
  const sim::ChainTracer& t = p.engine().chain_tracer();
  return p.engine().telemetry().prometheus_text() + "chains " +
         std::to_string(t.opened()) + " " + std::to_string(t.completed()) +
         " " + std::to_string(t.abandoned()) + " " +
         std::to_string(t.dropped()) + "\n";
}

}  // namespace

// ---- PrefixCache -----------------------------------------------------------

/// Bounded LRU of warmed prefixes. Each entry owns a pooled StateArena
/// hosting a constructed, booted Platform plus the Snapshot taken right
/// after boot. One run uses an entry at a time (Entry::mu); batch
/// scheduling groups same-prefix specs onto one worker so the lock is
/// uncontended on the hot path.
class ScenarioRunner::PrefixCache {
 public:
  struct Entry {
    std::mutex mu;
    sim::StateArena* arena = nullptr;  // pooled; returned by the destructor
    Platform* platform = nullptr;      // arena-allocated; null until built
    sim::Snapshot snap;
    std::uint64_t prefix_seed = 0;
    std::uint64_t last_used = 0;  // LRU tick, guarded by the cache mutex

    Entry() : arena(sim::StateArena::acquire_pooled()) {}
    ~Entry() {
      if (platform != nullptr) {
        sim::StateArena::Scope scope(*arena);
        // Roll back to the snapshot first so the destructor walks the
        // coherent post-boot object graph, not whatever state the last
        // forked run left behind.
        if (snap.valid()) snap.restore(*arena);
        delete platform;
      }
      sim::StateArena::release_pooled(arena);
    }
    Entry(const Entry&) = delete;
    Entry& operator=(const Entry&) = delete;
  };

  /// Look up or insert the entry for `key`. The caller locks the entry's
  /// mutex and builds the prefix if `platform` is still null. When the
  /// cache is full and every resident entry is in use, the returned entry
  /// is transient (not cached) — correctness never waits on capacity.
  std::shared_ptr<Entry> acquire(const std::string& key) {
    const std::scoped_lock hold(mu_);
    ++tick_;
    if (const auto it = entries_.find(key); it != entries_.end()) {
      it->second->last_used = tick_;
      return it->second;
    }
    if (entries_.size() >= kPrefixCacheEntries) evict_one_unlocked();
    auto entry = std::make_shared<Entry>();
    entry->last_used = tick_;
    if (entries_.size() < kPrefixCacheEntries) entries_.emplace(key, entry);
    return entry;
  }

 private:
  void evict_one_unlocked() {
    auto victim = entries_.end();
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      if (victim != entries_.end() &&
          it->second->last_used >= victim->second->last_used) {
        continue;
      }
      if (it->second->mu.try_lock()) {  // skip entries mid-run
        it->second->mu.unlock();
        victim = it;
      }
    }
    if (victim != entries_.end()) entries_.erase(victim);
  }

  std::mutex mu_;
  std::uint64_t tick_ = 0;
  std::map<std::string, std::shared_ptr<Entry>> entries_;
};

// ---- LiveRun ---------------------------------------------------------------

/// One scenario's lifecycle, from a platform with its workloads installed to
/// the extracted result — the only copy of it: cold runs, forked runs and
/// the snapshot check all drive this object. Construction arms the passive
/// observers, builds the probe, boots (unless a warmed prefix already did),
/// shields, starts the probe and arms the injector and sampler; midpoint()
/// and finish() walk fixed slice boundaries under the watchdogs; result()
/// extracts. Members are allocated wherever the active allocator puts
/// them, so an arena-hosted LiveRun is rewound by a restore along with the
/// platform it drives.
class ScenarioRunner::LiveRun {
 public:
  LiveRun(const Options& opt, const ScenarioSpec& spec, std::uint64_t seed,
          Platform& p);
  // The kernel and the engine's wall guard hold pointers into this object.
  LiveRun(const LiveRun&) = delete;
  LiveRun& operator=(const LiveRun&) = delete;

  /// Pause at the slice boundary nearest mid-horizon (the 32nd; clamped to
  /// the horizon for degenerate slicings).
  void midpoint() { advance(std::min<sim::Time>(end_, t0_ + 32 * slice_)); }
  /// Run to the horizon, or to the first boundary where a sample-bound
  /// probe reports done.
  void finish() { advance(end_); }

  [[nodiscard]] rt::Probe& probe() { return *probe_; }
  /// The run's result so far (stops the sampler).
  [[nodiscard]] ScenarioResult result();

 private:
  void advance(sim::Time until);
  [[noreturn]] void time_out(const std::string& budget) const;
  void check_wall() const;

  const Options& opt_;
  const ScenarioSpec& spec_;
  std::uint64_t seed_;
  Platform& p_;
  std::optional<telemetry::BlameCollector> blame_;
  std::unique_ptr<rt::Probe> probe_;
  std::unique_ptr<fault::Injector> injector_;
  std::optional<telemetry::Sampler> sampler_;
  bool watchdog_ = false;
  bool sample_bound_ = false;
  sim::Duration slice_ = 1;
  sim::Time t0_ = 0;
  sim::Time end_ = 0;
  std::uint64_t start_events_ = 0;
  std::chrono::steady_clock::time_point wall_start_;
};

ScenarioRunner::LiveRun::LiveRun(const Options& opt, const ScenarioSpec& spec,
                                 std::uint64_t seed, Platform& p)
    : opt_(opt), spec_(spec), seed_(seed), p_(p) {
  sim::Engine& engine = p.engine();
  // The flight recorder is passive (no events, no RNG, no model state), so
  // arming it alongside a watchdog cannot perturb the run it may have to
  // explain. Armed before boot so the ring sees the earliest events too; on
  // a fork it starts empty — the prefix is simulated with the recorder off
  // and a restore wipes any previous child's entries — so a watchdog dump
  // carries only this run's events.
  watchdog_ = opt.max_events > 0 || opt.wall_limit_s > 0.0;
  const bool worst = opt.flight_dump == Options::FlightDump::kWorst;
  const bool ring_opted =
      spec.telemetry.flight_recorder || spec.telemetry.timeline;
  const bool dumping = opt.flight_dump != Options::FlightDump::kOff;
  if (ring_opted || watchdog_ || dumping) {
    const int cap = ring_opted ? spec.telemetry.flight_capacity : 4096;
    engine.flight_recorder().enable(static_cast<std::size_t>(cap));
  }
  // The chain tracer, like the recorder, only reads simulated time, so
  // enabling it for the timeline/blame exports cannot perturb the run. The
  // worst-window dump needs it too: its trigger is a closing probe chain.
  if (spec.telemetry.timeline || spec.telemetry.blame || worst) {
    engine.chain_tracer().enable();
  }
  // The blame collector rides the probe-sample hook; the worst-window
  // trigger additionally snapshots the ring around each new worst sample.
  if (spec.telemetry.blame || worst) {
    telemetry::BlameCollector::Options bo;
    bo.worst_n = spec.telemetry.blame_worst;
    bo.threshold_ns = spec.telemetry.blame_threshold_ns;
    blame_.emplace(bo);
    if (worst) blame_->attach_ring(&engine.flight_recorder());
    p.kernel().set_blame_collector(&*blame_);
  }

  // A forked run builds its probe on a live kernel: probe tasks enter the
  // scheduler as immediately runnable, which create_task supports.
  probe_ = rt::make_probe(spec.probe, p, spec.probe_params, opt.scale);
  apply_mechanism(spec, p, *probe_);
  if (!p.kernel().started()) p.boot();
  apply_shield(spec, p, *probe_);
  probe_->start();

  sim::Duration horizon;
  if (spec.duration.fixed_ns > 0) {
    horizon = static_cast<sim::Duration>(
        static_cast<double>(spec.duration.fixed_ns) * opt.scale);
  } else {
    horizon = static_cast<sim::Duration>(
                  static_cast<double>(probe_->base_duration()) *
                  spec.duration.factor) +
              spec.duration.margin_ns;
  }
  if (horizon <= 0) {
    throw std::runtime_error(
        "scenario '" + spec.name +
        "': computed horizon is zero — check the duration policy (and "
        "--scale; scaling a fixed horizon down to nothing counts)");
  }

  if (!spec.faults.empty()) {
    // The injector derives its own RNG stream from the scenario seed, so a
    // fault-free spec and an empty plan produce bit-identical runs.
    injector_ = std::make_unique<fault::Injector>(p, spec.faults, seed);
    injector_->arm(engine.now() + horizon);
  }
  if (spec.telemetry.sampler) {
    sampler_.emplace(engine, engine.telemetry());
    sampler_->start(spec.telemetry.sample_period_ns);
  }

  // The horizon of a sample-bound spec is an upper bound, not a target:
  // DurationPolicy pads the probe's nominal duration with factor + margin
  // so abnormal-latency runs still finish, and the probe freezes its
  // result (the measuring task exits) the moment the budget is banked.
  // Simulating past that point adds nothing to any export, so the run
  // stops at the first slice boundary where the probe reports done. The
  // check cadence derives from the probe's own nominal duration — not the
  // horizon — so duration-policy slack can never shift the stop time (and
  // therefore never perturbs the kernel counters or telemetry timeline).
  // Otherwise the slices only pace the watchdog checks: often enough to
  // matter, rarely enough that the loop itself is noise.
  sample_bound_ = spec.duration.fixed_ns == 0 && probe_->base_duration() > 0;
  slice_ = std::max<sim::Duration>(
      1, (sample_bound_ ? probe_->base_duration() : horizon) / 64);
  t0_ = engine.now();
  end_ = t0_ + horizon;
  start_events_ = engine.events_executed();
  wall_start_ = std::chrono::steady_clock::now();
}

void ScenarioRunner::LiveRun::advance(sim::Time until) {
  if (!watchdog_ && !sample_bound_) {
    p_.run_until(until);  // the zero-overhead path for fixed-duration specs
    return;
  }
  sim::Engine& engine = p_.engine();
  // The slice-boundary wall check below is too coarse on its own: one slice
  // of a pathological spec (an event chain at nanosecond pitch, a fault
  // storm) can take arbitrarily long, overshooting the limit unboundedly.
  // An engine-level guard polls the clock every few thousand events, so the
  // watchdog fires within microseconds of wall time of the budget no matter
  // how the work is distributed across slices.
  struct WallGuardScope {
    sim::Engine& engine;
    ~WallGuardScope() { engine.clear_wall_guard(); }
  };
  std::optional<WallGuardScope> guard;
  if (opt_.wall_limit_s > 0.0) {
    guard.emplace(WallGuardScope{engine});
    engine.set_wall_guard([this] { check_wall(); }, 4096);
  }
  // Boundaries fall at t0 + k*slice however the walk is split (a midpoint
  // pause included), and run_until(a); run_until(b) executes the same
  // events as run_until(b), so pausing never perturbs the event stream.
  while (engine.now() < until) {
    if (sample_bound_ && probe_->done()) break;
    p_.run_until(std::min<sim::Time>(until, engine.now() + slice_));
    if (opt_.max_events > 0 &&
        engine.events_executed() - start_events_ > opt_.max_events) {
      time_out("event watchdog (" + std::to_string(opt_.max_events) +
               " simulated events)");
    }
    if (opt_.wall_limit_s > 0.0) check_wall();
  }
}

void ScenarioRunner::LiveRun::check_wall() const {
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - wall_start_;
  if (elapsed.count() <= opt_.wall_limit_s) return;
  time_out("wall-clock watchdog (" + std::to_string(opt_.wall_limit_s) + "s)");
}

void ScenarioRunner::LiveRun::time_out(const std::string& budget) const {
  throw ScenarioTimeout("scenario '" + spec_.name + "': exceeded the " +
                            budget + " at t=" +
                            std::to_string(p_.engine().now()) + "ns",
                        flight_dump_json(p_.engine().flight_recorder()));
}

ScenarioResult ScenarioRunner::LiveRun::result() {
  sim::Engine& engine = p_.engine();
  ScenarioResult r;
  r.name = spec_.name;
  r.digest = spec_.digest();
  r.seed = seed_;
  r.scale = opt_.scale;
  r.probe = probe_->result();
  r.events = engine.events_executed();
  r.duration_ns = static_cast<std::uint64_t>(engine.now() - t0_);
  // A collector armed only for the worst-window trigger stays out of the
  // result: the attribution document is the spec's own opt-in.
  const bool attributed = blame_ && spec_.telemetry.blame;
  if (sampler_ || attributed) {
    Value t = Value::object();
    t.set("schema", "telemetry-v1");
    if (sampler_) {
      sampler_->stop();
      t.set("counters", telemetry_counters_json(engine.telemetry()));
      t.set("timeline", telemetry_timeline_json(*sampler_));
    }
    if (attributed) {
      t.set("attribution", attribution_json(blame_->attribution()));
    }
    r.telemetry = std::move(t);
  }
  switch (opt_.flight_dump) {
    case Options::FlightDump::kOff:
      break;
    case Options::FlightDump::kFull:
      r.flight_recording = flight_dump_json(engine.flight_recorder());
      break;
    case Options::FlightDump::kWorst:
      // Trigger mode: the window snapshotted around the worst observed
      // probe sample. A run whose probe never fired falls back to the
      // whole ring, so the outcome always carries evidence.
      if (blame_ && !blame_->worst_window().empty()) {
        r.flight_recording = flight_window_json(blame_->worst_window());
      } else {
        r.flight_recording = flight_dump_json(engine.flight_recorder());
      }
      break;
  }
  return r;
}

// ---- ScenarioResult --------------------------------------------------------

json::Value ScenarioResult::to_json() const {
  Value v = Value::object();
  v.set("name", name);
  v.set("digest", digest);
  v.set("seed", seed);
  v.set("scale", scale);
  v.set("events", events);
  v.set("duration_ns", duration_ns);
  v.set("probe", probe_result_to_json(probe));
  // Absent entirely when telemetry was off, so older cache entries and
  // telemetry-free results keep their exact serialized form.
  if (!telemetry.is_null()) v.set("telemetry", telemetry);
  return v;
}

ScenarioResult ScenarioResult::from_json(const json::Value& v) {
  ScenarioResult r;
  if (const Value* f = v.find("name")) r.name = f->as_string();
  if (const Value* f = v.find("digest")) r.digest = f->as_string();
  if (const Value* f = v.find("seed")) r.seed = f->as_u64();
  if (const Value* f = v.find("scale")) r.scale = f->as_double();
  if (const Value* f = v.find("events")) r.events = f->as_u64();
  if (const Value* f = v.find("duration_ns")) r.duration_ns = f->as_u64();
  if (const Value* f = v.find("probe")) r.probe = probe_result_from_json(*f);
  if (const Value* f = v.find("telemetry")) r.telemetry = *f;
  return r;
}

std::string ScenarioResult::render(const ScenarioSpec& spec) const {
  std::ostringstream os;
  os << "== " << (spec.title.empty() ? name : spec.title) << " ==\n";
  if (!spec.description.empty()) os << spec.description << "\n";
  if (probe.primary.count() == 0) {
    os << "(no samples)\n";
    return os.str();
  }
  if (!probe.complete) {
    os << "WARNING: only " << probe.collected << "/" << probe.expected
       << " samples collected\n";
  }
  if (probe.ideal > 0) {
    os << metrics::determinism_legend(probe.ideal,
                                      probe.ideal + probe.primary.max())
       << "\n";
  } else {
    const auto thresholds = metrics::figure5_thresholds();
    os << metrics::cumulative_bucket_table(probe.primary, thresholds);
  }
  os << metrics::ascii_histogram(probe.primary, 50, 8);
  if (!spec.paper_ref.empty()) os << "paper: " << spec.paper_ref << "\n";
  return os.str();
}

// ---- RunOutcome / BatchReport ----------------------------------------------

const char* to_string(RunStatus s) {
  switch (s) {
    case RunStatus::kOk: return "ok";
    case RunStatus::kRetried: return "retried";
    case RunStatus::kFailed: return "failed";
    case RunStatus::kTimedOut: return "timed_out";
    case RunStatus::kIncomplete: return "incomplete";
    case RunStatus::kCrashed: return "crashed";
    case RunStatus::kHung: return "hung";
  }
  return "failed";
}

RunStatus run_status_from(const std::string& token) {
  if (token == "ok") return RunStatus::kOk;
  if (token == "retried") return RunStatus::kRetried;
  if (token == "failed") return RunStatus::kFailed;
  if (token == "timed_out") return RunStatus::kTimedOut;
  if (token == "incomplete") return RunStatus::kIncomplete;
  if (token == "crashed") return RunStatus::kCrashed;
  if (token == "hung") return RunStatus::kHung;
  throw std::runtime_error("unknown run status '" + token + "'");
}

namespace {

/// The two outcome forms differ only in how the result appears (report:
/// seed/events; wire: the full result) and in `execution`, which the wire
/// form omits — see the header.
Value outcome_json(const RunOutcome& o, bool full) {
  Value v = Value::object();
  v.set("name", o.name);
  // Default mechanism omitted: pre-mechanism reports keep their exact bytes.
  if (o.mechanism != "inband") v.set("mechanism", o.mechanism);
  v.set("status", to_string(o.status));
  v.set("attempts", o.attempts);
  if (!o.error.empty()) v.set("error", o.error);
  if (!o.retry_seeds.empty()) {
    Value seeds = Value::array();
    for (const std::uint64_t s : o.retry_seeds) seeds.push(s);
    v.set("retry_seeds", std::move(seeds));
  }
  if (o.result && full) v.set("result", o.result->to_json());
  if (o.result && !full) {
    v.set("seed", o.result->seed);
    v.set("events", o.result->events);
  }
  if (!o.flight_recording.is_null()) {
    v.set("flight_recording", o.flight_recording);
  }
  if (!full && !o.execution.is_null()) v.set("execution", o.execution);
  return v;
}

}  // namespace

json::Value RunOutcome::to_json() const { return outcome_json(*this, false); }

json::Value RunOutcome::to_full_json() const {
  return outcome_json(*this, true);
}

RunOutcome RunOutcome::from_json(const json::Value& v) {
  RunOutcome o;
  if (const Value* f = v.find("name")) o.name = f->as_string();
  if (const Value* f = v.find("mechanism")) o.mechanism = f->as_string();
  if (const Value* f = v.find("status")) o.status = run_status_from(f->as_string());
  if (const Value* f = v.find("attempts")) o.attempts = static_cast<int>(f->as_i64());
  if (const Value* f = v.find("error")) o.error = f->as_string();
  if (const Value* f = v.find("retry_seeds")) {
    for (const auto& s : f->items()) o.retry_seeds.push_back(s.as_u64());
  }
  if (const Value* f = v.find("result")) o.result = ScenarioResult::from_json(*f);
  if (const Value* f = v.find("flight_recording")) o.flight_recording = *f;
  if (const Value* f = v.find("execution")) o.execution = *f;
  return o;
}

bool BatchReport::all_ok() const {
  for (const auto& o : outcomes) {
    if (!o.ok()) return false;
  }
  return true;
}

std::size_t BatchReport::count(RunStatus s) const {
  std::size_t n = 0;
  for (const auto& o : outcomes) {
    if (o.status == s) n++;
  }
  return n;
}

json::Value BatchReport::to_json() const {
  Value v = Value::object();
  v.set("schema", "degraded-run-report-v1");
  v.set("total", outcomes.size());
  v.set("ok", count(RunStatus::kOk));
  v.set("retried", count(RunStatus::kRetried));
  v.set("failed", count(RunStatus::kFailed));
  v.set("timed_out", count(RunStatus::kTimedOut));
  // The post-PR-8 statuses are emitted only when present, so reports from
  // batches that never hit them keep their exact serialized form.
  if (count(RunStatus::kIncomplete) > 0) {
    v.set("incomplete", count(RunStatus::kIncomplete));
  }
  if (count(RunStatus::kCrashed) > 0) v.set("crashed", count(RunStatus::kCrashed));
  if (count(RunStatus::kHung) > 0) v.set("hung", count(RunStatus::kHung));
  v.set("cache_entries_recomputed", cache_entries_recomputed);
  // Only present when the batch ran with prefix sharing, so reports from
  // runners with the feature off keep their exact serialized form.
  if (prefix_hits + prefix_misses > 0) {
    Value pr = Value::object();
    pr.set("hits", prefix_hits);
    pr.set("misses", prefix_misses);
    pr.set("hit_rate", static_cast<double>(prefix_hits) /
                           static_cast<double>(prefix_hits + prefix_misses));
    v.set("prefix_reuse", std::move(pr));
  }
  // Per-mechanism pass/fail breakdown, present only when the batch actually
  // mixed mechanisms in (any non-default outcome) — all-inband reports keep
  // their exact serialized form.
  bool any_non_default = false;
  for (const auto& o : outcomes) {
    if (o.mechanism != "inband") any_non_default = true;
  }
  if (any_non_default) {
    std::map<std::string, std::pair<std::size_t, std::size_t>> mech;  // ok/fail
    for (const auto& o : outcomes) {
      auto& [okc, failc] = mech[o.mechanism];
      (o.ok() ? okc : failc)++;
    }
    Value by = Value::object();
    for (const auto& [kind, counts] : mech) {
      Value e = Value::object();
      e.set("ok", counts.first);
      e.set("failed", counts.second);
      by.set(kind, std::move(e));
    }
    v.set("by_mechanism", std::move(by));
  }
  // Campaign-level blame rollup, present only when some outcome carries an
  // attribution-v1 document, so blame-free reports keep their exact form.
  if (Value roll = attribution_rollup(outcomes); !roll.is_null()) {
    v.set("attribution", std::move(roll));
  }
  if (!supervisor.is_null()) v.set("supervisor", supervisor);
  Value arr = Value::array();
  for (const auto& o : outcomes) arr.push(o.to_json());
  v.set("outcomes", std::move(arr));
  return v;
}

// ---- ScenarioRunner --------------------------------------------------------

ScenarioRunner::ScenarioRunner(Options opt)
    : opt_(std::move(opt)), sweep_(opt_.jobs) {
  if (opt_.prefix_reuse) prefix_cache_ = std::make_unique<PrefixCache>();
  if (!opt_.cache_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(opt_.cache_dir, ec);
    const bool usable = std::filesystem::is_directory(opt_.cache_dir, ec) &&
                        ::access(opt_.cache_dir.c_str(), W_OK) == 0;
    if (!usable) {
      std::fprintf(stderr,
                   "warning: cache dir '%s' is not writable; "
                   "falling back to in-memory cache\n",
                   opt_.cache_dir.c_str());
      opt_.cache_dir.clear();
    }
  }
}

ScenarioRunner::~ScenarioRunner() = default;

std::string ScenarioRunner::cache_key(const std::string& digest,
                                      std::uint64_t seed, bool forked) const {
  // A forked run is deterministic but draws different streams than a cold
  // run of the same (spec, seed), so the two must never share a cache slot.
  // The marker is versioned with the fork semantics. "-es1" versions the
  // early-stop horizon semantics (sample-bound runs end when the probe
  // banks its budget, so latency/telemetry exports cover a shorter window
  // than entries written before early stop existed).
  return digest + "-" + std::to_string(seed) + "-" + Value(opt_.scale).dump() +
         "-es1" + (forked ? "-fork1" : "");
}

std::string ScenarioRunner::cache_path(const std::string& key) const {
  return opt_.cache_dir + "/" + key + ".json";
}

ScenarioResult ScenarioRunner::run(const ScenarioSpec& spec,
                                   std::uint64_t seed, const Hooks& hooks) {
  // A flight-dump run behaves like an observed one: the dump is not part
  // of the cacheable result, so the run must be fresh (and cold, so the
  // dump explains the cold run's numbers), and its result must not be
  // cached (a later dump-free run would otherwise read a byte-identical
  // entry, which is fine, but a later dump run would get a cache hit with
  // no recording attached).
  const bool observed = hooks.finished != nullptr ||
                        opt_.flight_dump != Options::FlightDump::kOff;
  // Hooks need a cold platform built in this very call; everything else
  // may fork a shared prefix when the runner has prefix_reuse on.
  const bool forked = opt_.prefix_reuse && !observed;
  const std::string key = cache_key(spec.digest(), seed, forked);
  if (opt_.cache && !observed) {
    {
      const std::scoped_lock hold(cache_mutex_);
      const auto it = memory_cache_.find(key);
      if (it != memory_cache_.end()) {
        ScenarioResult r = it->second;
        r.from_cache = true;
        return r;
      }
    }
    if (!opt_.cache_dir.empty()) {
      std::string text;
      const std::string path = cache_path(key);
      if (read_file(path, text)) {
        if (auto cached = decode_cache_entry(text)) {
          cached->from_cache = true;
          const std::scoped_lock hold(cache_mutex_);
          memory_cache_[key] = *cached;
          return *cached;
        }
        // Truncated, corrupt or checksum-mismatched entry: never trust it.
        quarantine_cache_file(path);
        cache_recomputed_.fetch_add(1);
      }
    }
  }

  ScenarioResult r =
      forked ? run_forked(spec, seed) : run_cold(spec, seed, hooks);
  if (opt_.cache && !observed) {
    const std::scoped_lock hold(cache_mutex_);
    memory_cache_[key] = r;
    if (!opt_.cache_dir.empty()) {
      write_file(cache_path(key), encode_cache_entry(r));
    }
  }
  return r;
}

ScenarioResult ScenarioRunner::run_cold(const ScenarioSpec& spec,
                                       std::uint64_t seed,
                                       const Hooks& hooks) {
  spec.validate();
  const std::unique_ptr<Platform> p(new_platform(spec, Presets(spec), seed));
  LiveRun run(opt_, spec, seed, *p);
  try {
    run.finish();
  } catch (const ScenarioAbort&) {
    throw;  // already carries its dump
  } catch (const std::exception& e) {
    // A structured mid-run failure (probe error, workload assertion thrown
    // as an exception): keep the evidence if the ring was on.
    if (!p->engine().flight_recorder().enabled()) throw;
    throw ScenarioFailure(e.what(),
                          flight_dump_json(p->engine().flight_recorder()));
  }
  if (hooks.finished) hooks.finished(*p, run.probe());
  return run.result();
}

ScenarioResult ScenarioRunner::run_forked(const ScenarioSpec& spec,
                                          std::uint64_t seed) {
  spec.validate();  // also touches the factory-map statics (see warm note)
  const Presets presets(spec);
  warm_process_statics();

  const std::string pkey = scenario_prefix_key(spec);
  const auto entry = prefix_cache_->acquire(pkey);
  const std::scoped_lock hold(entry->mu);

  ScenarioResult out;
  std::exception_ptr failure;
  try {
    sim::StateArena::Scope scope(*entry->arena);
    if (entry->platform == nullptr) {
      // Miss: simulate the prefix — construct, install workloads, boot —
      // then checkpoint. The prefix platform's seed derives from the
      // prefix key, never from the scenario seed: siblings must share the
      // prefix bit-for-bit, and divergence enters only at the fork below.
      prefix_misses_.fetch_add(1);
      entry->arena->reset();
      entry->prefix_seed = sim::derive_seed(kPrefixSeedRoot, pkey);
      Platform* p = new_platform(spec, presets, entry->prefix_seed);
      p->boot();
      entry->snap = sim::Snapshot::capture(*entry->arena);
      entry->platform = p;
    } else {
      // Hit: rewind the arena to the post-boot checkpoint. This also
      // wipes everything the previous forked run did — counters, flight
      // ring, pending events — so the child observes a pristine prefix.
      prefix_hits_.fetch_add(1);
      entry->snap.restore(*entry->arena);
    }
    Platform& p = *entry->platform;

    // Fork: reseed the engine's root stream from the fork label. Streams
    // split before the snapshot (devices, workloads) continue their
    // checkpointed sequences identically in every sibling; every stream
    // split after this point (probe, injector) diverges per (spec, seed).
    p.engine().reseed(sim::derive_seed(
        entry->prefix_seed, sim::SeedDomain::kFork,
        spec.digest() + "#" + std::to_string(seed)));

    LiveRun run(opt_, spec, seed, p);
    run.finish();
    const ScenarioResult r = run.result();
    // Deep-copy the result off the arena: `r`'s innards live in arena
    // memory that the next fork's restore will rewind.
    scope.pause();
    out = r;
    scope.resume();
  } catch (const ScenarioTimeout& e) {
    // Rebuild every failure on the ordinary heap before the entry unlocks:
    // the original exception's message and flight dump live in the arena,
    // which the next acquirer will rewind.
    failure = std::make_exception_ptr(
        ScenarioTimeout(e.what(), json::Value(e.flight_recording())));
  } catch (const ScenarioAbort& e) {
    failure = std::make_exception_ptr(
        ScenarioFailure(e.what(), json::Value(e.flight_recording())));
  } catch (const std::exception& e) {
    failure = std::make_exception_ptr(std::runtime_error(e.what()));
  }
  if (failure) std::rethrow_exception(failure);
  return out;
}

ScenarioRunner::SnapshotCheck ScenarioRunner::snapshot_bit_identity(
    const ScenarioSpec& spec, std::uint64_t seed) {
  SnapshotCheck out;

  // Baseline: the ordinary malloc-hosted, uninterrupted run, with a
  // finished-hook grabbing the kernel counters at the same point the
  // arena-hosted extractions below will.
  std::string baseline_counters;
  Hooks hooks;
  hooks.finished = [&](Platform& p, rt::Probe&) {
    baseline_counters = kernel_counters_text(p);
  };
  out.baseline = run_cold(spec, seed, hooks).to_json().dump(2) + "\n" +
                 baseline_counters;

  // The same lifecycle hosted in an arena and paused at mid-horizon: take
  // a snapshot, finish and extract; then restore and finish and extract
  // again. All three serialized outputs must agree to the byte.
  const Presets presets(spec);
  warm_process_statics();
  sim::PooledArena arena;
  {
    sim::StateArena::Scope scope(*arena);
    Platform* p = new_platform(spec, presets, seed);
    auto* run = new LiveRun(opt_, spec, seed, *p);
    const auto extract = [&](std::string& into) {
      // Counters first, where the baseline's finished hook takes them.
      const std::string counters = kernel_counters_text(*p);
      const std::string blob =
          run->result().to_json().dump(2) + "\n" + counters;
      scope.pause();
      into.assign(blob.data(), blob.size());
      scope.resume();
    };

    run->midpoint();
    const sim::Snapshot snap = sim::Snapshot::capture(*arena);
    out.snapshot_bytes = snap.bytes();
    run->finish();
    extract(out.continued);

    snap.restore(*arena);
    run->finish();
    extract(out.resumed);

    snap.restore(*arena);  // destruct against the coherent checkpoint graph
    delete run;
    delete p;
  }

  out.identical =
      out.baseline == out.continued && out.baseline == out.resumed;
  return out;
}

RunOutcome ScenarioRunner::run_outcome(const ScenarioSpec& spec,
                                       std::uint64_t seed) {
  RunOutcome out;
  out.name = spec.name;
  out.mechanism = spec.mechanism;
  const int allowed = spec.transient ? std::max(1, opt_.max_attempts) : 1;
  std::uint64_t attempt_seed = seed;
  for (int attempt = 1; attempt <= allowed; ++attempt) {
    out.attempts = attempt;
    if (attempt > 1) out.retry_seeds.push_back(attempt_seed);
    try {
      out.result = run(spec, attempt_seed);
      // A flight-dump run attached its ring to the result as transport;
      // move it onto the outcome, which is what serializes it. The result
      // itself stays dump-free so cache entries keep their exact form.
      if (!out.result->flight_recording.is_null()) {
        out.flight_recording = std::move(out.result->flight_recording);
        out.result->flight_recording = Value();
      }
      if (!out.result->probe.complete) {
        // The run finished but the probe banked only part of its budget —
        // registry rot (horizon too short for the workload), not transient
        // noise, so no retry: every reseeding would under-collect the same
        // way. Classified as its own status so report totals and the CLI
        // exit code agree (see shieldctl).
        out.status = RunStatus::kIncomplete;
        out.error = "probe collected " +
                    std::to_string(out.result->probe.collected) + "/" +
                    std::to_string(out.result->probe.expected) +
                    " samples within the horizon";
        return out;
      }
      out.status = attempt > 1 ? RunStatus::kRetried : RunStatus::kOk;
      out.error.clear();
      return out;
    } catch (const ScenarioTimeout& e) {
      out.status = RunStatus::kTimedOut;
      out.error = e.what();
      out.flight_recording = e.flight_recording();
    } catch (const ScenarioAbort& e) {
      out.status = RunStatus::kFailed;
      out.error = e.what();
      out.flight_recording = e.flight_recording();
    } catch (const std::exception& e) {
      out.status = RunStatus::kFailed;
      out.error = e.what();
    }
    // Reseed deterministically off the original seed, not the failed one,
    // so retry N of a spec is the same run no matter how earlier attempts
    // interleaved across worker threads. The retry domain keeps these
    // streams disjoint from batch names and fork labels (a spec literally
    // named "retry#1" must not share a stream with anyone's first retry).
    attempt_seed = sim::derive_seed(seed, sim::SeedDomain::kRetry,
                                    "retry#" + std::to_string(attempt));
  }
  return out;
}

namespace {

/// Map `fn` over a batch's indices on the sweep's workers, results in
/// batch order. Grouped (prefix sharing on), each prefix group runs in
/// order on one worker, so the group's first run builds the snapshot and
/// the rest fork it without contending on the entry lock.
template <typename T, typename Fn>
std::vector<T> map_batch(const bench::SweepRunner& sweep,
                         const std::vector<ScenarioSpec>& specs, bool grouped,
                         Fn fn) {
  if (!grouped) return sweep.map<T>(specs.size(), fn);
  const auto groups = prefix_groups(specs);
  auto per_group = sweep.map<std::vector<T>>(groups.size(), [&](std::size_t g) {
    std::vector<T> outs;
    outs.reserve(groups[g].size());
    for (const std::size_t i : groups[g]) outs.push_back(fn(i));
    return outs;
  });
  std::vector<T> results(specs.size());
  for (std::size_t g = 0; g < groups.size(); ++g) {
    for (std::size_t k = 0; k < groups[g].size(); ++k) {
      results[groups[g][k]] = std::move(per_group[g][k]);
    }
  }
  return results;
}

}  // namespace

BatchReport ScenarioRunner::run_batch_report(
    const std::vector<ScenarioSpec>& specs, std::uint64_t root_seed) {
  return run_batch_report(specs, root_seed, BatchObserver{});
}

BatchReport ScenarioRunner::run_batch_report(
    const std::vector<ScenarioSpec>& specs, std::uint64_t root_seed,
    const BatchObserver& observer) {
  BatchReport report;
  const std::uint64_t hits0 = prefix_hits_.load();
  const std::uint64_t misses0 = prefix_misses_.load();
  // run_outcome never throws, so one hostile spec cannot sink the batch the
  // way run_batch's first-exception-wins rethrow does.
  report.outcomes = map_batch<RunOutcome>(
      sweep_, specs, opt_.prefix_reuse, [&](std::size_t i) {
        const std::uint64_t seed = batch_seed(root_seed, specs[i]);
        if (observer.started) observer.started(i, specs[i], seed);
        RunOutcome out = run_outcome(specs[i], seed);
        if (observer.finished) observer.finished(i, specs[i], out);
        return out;
      });
  report.cache_entries_recomputed = cache_recomputed_.load();
  report.prefix_hits = prefix_hits_.load() - hits0;
  report.prefix_misses = prefix_misses_.load() - misses0;
  return report;
}

std::vector<ScenarioResult> ScenarioRunner::run_batch(
    const std::vector<ScenarioSpec>& specs, std::uint64_t root_seed) {
  return map_batch<ScenarioResult>(
      sweep_, specs, opt_.prefix_reuse, [&](std::size_t i) {
        return run(specs[i], batch_seed(root_seed, specs[i]));
      });
}

std::vector<ScenarioResult> ScenarioRunner::run_seeds(const ScenarioSpec& spec,
                                                      std::uint64_t root_seed,
                                                      int repeats) {
  const auto n = static_cast<std::size_t>(repeats < 0 ? 0 : repeats);
  return sweep_.map<ScenarioResult>(n, [&](std::size_t i) {
    return run(spec,
               sim::derive_seed(root_seed, sim::SeedDomain::kFanout,
                                spec.name + "#" + std::to_string(i)));
  });
}

/// Which part of a spec the shared prefix covers: platform construction,
/// workload installation and boot. Shield plan, probe, probe params,
/// faults, telemetry and duration are all applied after the fork, so they
/// stay out of the key. `ramp_ns` reserves room for a future simulated
/// warm-up period shared by the prefix.
std::string scenario_prefix_key(const ScenarioSpec& spec) {
  Value v = Value::object();
  v.set("machine", spec.machine);
  v.set("kernel", spec.kernel);
  v.set("kernel_overrides", spec.kernel_overrides);
  v.set("ht_override",
        spec.ht_override ? Value(*spec.ht_override) : Value());
  Value wl = Value::array();
  for (const auto& w : spec.workloads) {
    Value e = Value::object();
    e.set("name", w.name);
    e.set("params", w.params);
    wl.push(std::move(e));
  }
  v.set("workloads", std::move(wl));
  v.set("ramp_ns", 0);
  return json::content_digest(v);
}

std::vector<std::vector<std::size_t>> prefix_groups(
    const std::vector<ScenarioSpec>& specs) {
  std::vector<std::vector<std::size_t>> groups;
  std::map<std::string, std::size_t> index;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const auto [it, inserted] =
        index.emplace(scenario_prefix_key(specs[i]), groups.size());
    if (inserted) groups.emplace_back();
    groups[it->second].push_back(i);
  }
  return groups;
}

std::uint64_t batch_seed(std::uint64_t root_seed, const ScenarioSpec& spec) {
  return sim::derive_seed(root_seed, sim::SeedDomain::kBatch, spec.name);
}

json::Value attribution_rollup(const std::vector<RunOutcome>& outcomes) {
  std::vector<const Value*> docs;
  for (const auto& o : outcomes) {
    if (!o.result) continue;
    if (const Value* a = o.result->telemetry.find("attribution")) {
      docs.push_back(a);
    }
  }
  return attribution_rollup_json(docs);
}

}  // namespace config
