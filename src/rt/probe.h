// RT probe registry: one uniform interface over every measurement the
// paper (and the ablations) run.
//
// A scenario names its probe ("determinism", "realfeel", "rcim",
// "cyclictest", "timer-gap", "holdoff") plus a JSON parameter object; the
// registry builds the concrete rt:: test on a Platform and adapts it to
// the Probe interface the ScenarioRunner drives: construct before boot,
// start() after boot + shield setup, run to the horizon, then collect a
// serializable ProbeResult.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "config/json.h"
#include "config/platform.h"
#include "metrics/histogram.h"

namespace rt {

/// Everything a scenario result keeps from a probe run. Pure simulated
/// data — it serializes exactly (histograms via bucket counts + summary),
/// which is what makes scenario results cacheable.
struct ProbeResult {
  metrics::LatencyHistogram primary;  ///< the headline latency distribution
  /// Probe-specific cross-check (realfeel: wake latencies; rcim: the other
  /// of register/truth). Empty when the probe has no second view.
  metrics::LatencyHistogram secondary;
  sim::Duration ideal = 0;  ///< determinism: the unloaded loop time
  std::uint64_t collected = 0;
  /// Target sample count; 0 means the probe is duration-bound and
  /// `complete` is always true.
  std::uint64_t expected = 0;
  bool complete = false;
  std::map<std::string, double> stats;  ///< probe-specific scalars
};

/// Adapter between the ScenarioRunner and one concrete RT measurement.
class Probe {
 public:
  virtual ~Probe() = default;

  /// The measuring task, if the probe has one (shield plans pin it).
  [[nodiscard]] virtual kernel::Task* task() { return nullptr; }
  /// IRQ line of the probe's device, or -1 (dedicate plans pin it).
  [[nodiscard]] virtual int irq() const { return -1; }
  /// Arm devices/timers. Called after boot and shield setup.
  virtual void start() {}
  /// Nominal simulated time the probe needs to collect its samples; the
  /// scenario's DurationPolicy turns this into a horizon. 0 for
  /// duration-bound probes (they need a fixed-duration policy).
  [[nodiscard]] virtual sim::Duration base_duration() const = 0;
  [[nodiscard]] virtual bool done() const = 0;
  [[nodiscard]] virtual ProbeResult result() const = 0;
};

/// All registered probe names, sorted.
[[nodiscard]] std::vector<std::string> probe_names();

[[nodiscard]] bool probe_contains(const std::string& name);

/// True when the probe collects for as long as it runs (no sample target,
/// base_duration() == 0) and therefore needs a fixed-duration policy.
[[nodiscard]] bool probe_duration_bound(const std::string& name);

/// Build a probe on a platform; call before boot() (probes create their
/// measuring task in the constructor). `params` must be a JSON object;
/// `scale` multiplies sample counts the way the benches' --scale always
/// has. Throws std::runtime_error on unknown names or parameter keys.
[[nodiscard]] std::unique_ptr<Probe> make_probe(
    const std::string& name, config::Platform& platform,
    const config::json::Value& params, double scale);

}  // namespace rt
