#include "config/scenario_runner.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "config/supervisor.h"
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

// ---- platform construction --------------------------------------------------

/// Function-local statics in model code (the probe/workload factory maps,
/// the kernel's latency-counter view table, stream/locale machinery) must
/// make their first heap allocation on the ordinary heap: a static whose
/// buffer landed in an arena would dangle once that arena rewinds. The
/// factory maps are touched by ScenarioSpec::validate() (always called
/// before any arena activates); this covers the rest, once per process.
/// Every run calls it, though only the snapshot check hosts a platform in an
/// arena: perfbench's set-up probe builds arena-hosted platforms after
/// warming the process with one ordinary run, and relies on this.
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
/// then fill, changing the arena-hosted platform's memory layout.
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

// ---- LiveRun ---------------------------------------------------------------

/// One scenario's lifecycle, from a platform with its workloads installed to
/// the extracted result — the only copy of it: runs and the snapshot check
/// both drive this object. Construction arms the passive observers, builds
/// the probe, boots, shields, starts the probe and arms the injector and
/// sampler; midpoint() and finish() walk fixed slice boundaries under the
/// watchdogs; result() extracts. Members are allocated wherever the active
/// allocator puts them, so an arena-hosted LiveRun is rewound by a restore
/// along with the platform it drives.
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
  // explain. Armed before boot so the ring sees the earliest events too.
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

  probe_ = rt::make_probe(spec.probe, p, spec.probe_params, opt.scale);
  apply_mechanism(spec, p, *probe_);
  p.boot();
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
  // Absent entirely when telemetry was off, so telemetry-free results keep
  // their exact serialized form.
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
  v.set("schema", "degraded-run-report-v2");
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

ScenarioResult ScenarioRunner::run(const ScenarioSpec& spec,
                                   std::uint64_t seed, const Hooks& hooks) {
  spec.validate();
  warm_process_statics();
  const std::unique_ptr<Platform> p(new_platform(spec, Presets(spec), seed));
  LiveRun live(opt_, spec, seed, *p);
  try {
    live.finish();
  } catch (const ScenarioAbort&) {
    throw;  // already carries its dump
  } catch (const std::exception& e) {
    // A structured mid-run failure (probe error, workload assertion thrown
    // as an exception): keep the evidence if the ring was on.
    if (!p->engine().flight_recorder().enabled()) throw;
    throw ScenarioFailure(e.what(),
                          flight_dump_json(p->engine().flight_recorder()));
  }
  if (hooks.finished) hooks.finished(*p, live.probe());
  return live.result();
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
  out.baseline = run(spec, seed, hooks).to_json().dump(2) + "\n" +
                 baseline_counters;

  // The same lifecycle hosted in an arena and paused at mid-horizon: take
  // a snapshot, finish and extract; then restore and finish and extract
  // again. All three serialized outputs must agree to the byte. The
  // baseline run above has already warmed the process statics.
  const Presets presets(spec);
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
      // move it onto the outcome, which is what serializes it.
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
    // so retry N of a spec is the same run whichever lane ran the earlier
    // attempts. The retry domain keeps these streams disjoint from batch
    // names (a spec literally named "retry#1" must not share a stream with
    // anyone's first retry).
    attempt_seed = sim::derive_seed(seed, sim::SeedDomain::kRetry,
                                    "retry#" + std::to_string(attempt));
  }
  return out;
}

namespace {

/// The batch on the one scheduler, at the lanes `opt.jobs` asks for.
BatchReport schedule(const ScenarioRunner::Options& opt,
                     const std::vector<BatchItem>& items,
                     const ScenarioRunner::BatchObserver& observer) {
  return Supervisor({.workers = batch_workers(opt.jobs), .runner = opt})
      .run(items, observer);
}

/// The results of a batch, or the error of its first outcome in item order
/// without one: failed, timed out, crashed or hung (incomplete runs have a
/// result).
std::vector<ScenarioResult> results_or_throw(BatchReport report) {
  std::vector<ScenarioResult> results;
  for (auto& o : report.outcomes) {
    if (o.status == RunStatus::kTimedOut) {
      throw ScenarioTimeout(o.error, std::move(o.flight_recording));
    }
    if (!o.result) {
      throw ScenarioFailure(o.error, std::move(o.flight_recording));
    }
    results.push_back(std::move(*o.result));
  }
  return results;
}

}  // namespace

BatchReport ScenarioRunner::run_batch_report(
    const std::vector<ScenarioSpec>& specs, std::uint64_t root_seed,
    const BatchObserver& observer) {
  return schedule(opt_, batch_items(specs, root_seed), observer);
}

std::vector<ScenarioResult> ScenarioRunner::run_batch(
    const std::vector<ScenarioSpec>& specs, std::uint64_t root_seed) {
  return results_or_throw(run_batch_report(specs, root_seed));
}

std::vector<ScenarioResult> ScenarioRunner::run_seeds(const ScenarioSpec& spec,
                                                      std::uint64_t root_seed,
                                                      int repeats) {
  std::vector<BatchItem> items;
  for (int i = 0; i < repeats; ++i) {
    const std::string label = spec.name + "#" + std::to_string(i);
    items.push_back(
        {&spec, sim::derive_seed(root_seed, sim::SeedDomain::kFanout, label)});
  }
  return results_or_throw(schedule(opt_, items, {}));
}

/// Platform construction, workload installation and boot. Shield plan,
/// probe, probe params, faults, telemetry and duration stay out of the key.
/// Must not change by a byte: perfbench seeds its set-up probe's
/// platforms from it.
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

std::uint64_t batch_seed(std::uint64_t root_seed, const ScenarioSpec& spec) {
  return sim::derive_seed(root_seed, sim::SeedDomain::kBatch, spec.name);
}

std::vector<BatchItem> batch_items(const std::vector<ScenarioSpec>& specs,
                                   std::uint64_t root_seed) {
  std::vector<BatchItem> items;
  for (const auto& s : specs) items.push_back({&s, batch_seed(root_seed, s)});
  return items;
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
