// Declarative scenario description.
//
// A ScenarioSpec is pure data: machine preset, kernel preset (+ field
// overrides), hyperthreading override, workload list, RT probe + params,
// shield plan and duration policy. It serializes to/from JSON, validates
// against the workload/probe registries, and hashes to a stable digest —
// with the seed, what a campaign journal adopts an outcome by. Every figure and ablation in this
// repository is one of these records (see the registry in experiment.h);
// nothing about an experiment lives in bench code any more.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "config/json.h"
#include "config/kernel_config.h"
#include "config/machine_config.h"
#include "fault/fault_plan.h"
#include "sim/time.h"

namespace config {

/// One background load: a workload-registry name plus its parameters.
struct WorkloadRef {
  std::string name;
  json::Value params = json::Value::object();
};

/// How the scenario pins and shields the RT side after boot.
struct ShieldPlan {
  enum class Mode {
    kNone,        ///< no shielding
    kShieldAll,   ///< shield_all(cpu): procs + irqs + local timer
    kDedicate,    ///< dedicate_cpu(cpu, probe task, probe irq)
    kComponents,  ///< individual procs/irqs/ltmr switches (ablation A)
  };
  Mode mode = Mode::kNone;
  int cpu = 1;
  // kComponents only:
  bool procs = false;
  bool irqs = false;
  bool ltmr = false;
  /// kComponents: additionally bind the probe's IRQ to `cpu` through the
  /// procfs smp_affinity file (the "user intent" write ablation A makes
  /// in every case, shielded or not).
  bool bind_irq = false;
};

/// Simulated-time horizon. fixed_ns > 0 → horizon = fixed_ns * scale
/// (duration-bound probes); otherwise horizon = probe base duration *
/// factor + margin_ns (sample-bound probes, already scaled through their
/// sample counts).
struct DurationPolicy {
  double factor = 2.0;
  sim::Duration margin_ns = 5 * sim::kSecond;
  sim::Duration fixed_ns = 0;
};

/// Per-run telemetry switches: the registry itself is always live (it is
/// how the kernel's counters are stored), but the sampler and the flight
/// recorder only run when a scenario opts in. A default plan is not
/// serialized, so the digests of telemetry-free scenarios are unchanged and
/// their outputs stay bit-identical.
struct TelemetryPlan {
  /// Snapshot registry deltas every `sample_period_ns` of sim time into the
  /// result's timeline.
  bool sampler = false;
  sim::Duration sample_period_ns = 10 * sim::kMillisecond;
  /// Keep a ring of recent events for post-mortem dumps. (The runner also
  /// force-enables the ring whenever a watchdog is armed.)
  bool flight_recorder = false;
  int flight_capacity = 4096;
  /// Timeline assembly: force-enable the ring + chain tracer so the run can
  /// export a trace-event-v1 document (see telemetry::chrome_trace_json).
  bool timeline = false;
  /// Worst-case attribution: collect blame cause trees for the worst-N
  /// probe samples (or, with a threshold, every sample at or above it) into
  /// the result's attribution-v1 document.
  bool blame = false;
  int blame_worst = 8;
  std::uint64_t blame_threshold_ns = 0;

  /// Knobs are inert while their switch is off, so a plan counts as
  /// default — and serializes to nothing — when every switch is off.
  [[nodiscard]] bool is_default() const {
    return !sampler && !flight_recorder && !timeline && !blame;
  }
};

struct ScenarioSpec {
  std::string name;         ///< registry key, e.g. "fig6"
  std::string title;        ///< display title, e.g. "Figure 6: ..."
  std::string description;  ///< one-liner for `shieldctl list`
  std::string group;        ///< "figure", "ablation", "sweep", ...

  std::string machine = "dual-p4-1400";      ///< machine preset token
  std::string kernel = "vanilla-2.4.20";     ///< kernel preset token
  /// KernelConfig field overrides applied over the preset (JSON object,
  /// e.g. {"section_max_ns": 8000000, "section_alpha": 1.1}).
  json::Value kernel_overrides = json::Value::object();
  std::optional<bool> ht_override;

  std::vector<WorkloadRef> workloads;

  std::string probe = "realfeel";  ///< probe registry name
  json::Value probe_params = json::Value::object();

  /// Interrupt-delivery mechanism: "inband" (the paper's kernels; default)
  /// or "oob" (the dual-kernel out-of-band stage — the probe task and its
  /// IRQ line are adopted by kernel::OobPipeline). The default is not
  /// serialized, so every pre-existing spec's digest — and its
  /// byte-identical output — is unchanged.
  std::string mechanism = "inband";

  ShieldPlan shield;
  DurationPolicy duration;

  /// Optional fault plan executed by fault::Injector during the run. An
  /// empty plan is the default and is not serialized, so the digests of
  /// fault-free scenarios are unchanged.
  fault::FaultPlan faults;

  /// Scenarios whose failures are known-transient (e.g. probabilistic
  /// fault plans near an assertion boundary): ScenarioRunner retries them
  /// with a reseeded derived seed before reporting failure.
  bool transient = false;

  /// Optional telemetry (sampler timeline + flight recorder). The default
  /// plan is all-off and is not serialized.
  TelemetryPlan telemetry;

  /// The paper's reference numbers for this scenario (may be empty).
  std::string paper_ref;

  [[nodiscard]] json::Value to_json() const;
  static ScenarioSpec from_json(const json::Value& v);

  /// Content hash of the canonical JSON form — with the seed, the key a
  /// campaign journal adopts an outcome by.
  [[nodiscard]] std::string digest() const;

  /// Check every token against its registry (machine, kernel, workloads +
  /// their params, probe + params, override keys, plan consistency).
  /// Throws std::runtime_error naming the offending field.
  void validate() const;
};

// ---- preset lookups --------------------------------------------------------

[[nodiscard]] std::vector<std::string> machine_preset_names();
[[nodiscard]] std::optional<MachineConfig> find_machine(
    const std::string& token);

[[nodiscard]] std::vector<std::string> kernel_preset_names();
[[nodiscard]] std::optional<KernelConfig> find_kernel(const std::string& token);

/// Apply a JSON object of KernelConfig overrides (keys as documented in
/// docs/MODEL.md, e.g. "preempt_kernel", "section_max_ns"). Throws
/// std::runtime_error on an unknown key.
void apply_kernel_overrides(KernelConfig& cfg, const json::Value& overrides);

/// Every override key apply_kernel_overrides accepts (kept in sync by
/// test_scenario). ScenarioSpec::from_json rejects unknown keys against
/// this list at parse time — with a did-you-mean suggestion — so a typo
/// like "fault_mean_interval_nss" fails where it was written, not at run
/// time (or never).
[[nodiscard]] std::vector<std::string> kernel_override_keys();

}  // namespace config
