// One executor behind every bench, tool and test.
//
// ScenarioRunner turns a ScenarioSpec into a Platform, installs the
// workloads, builds the probe, boots, applies the shield plan, runs to the
// horizon and returns a serializable ScenarioResult. Batches fan out over
// bench::SweepRunner with per-scenario seeds derived via sim::derive_seed
// (insertion-order independent). Every run simulates: the campaign journal
// (config/journal.h) is the one store that keeps and adopts outcomes.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "config/json.h"
#include "config/platform.h"
#include "config/scenario.h"
#include "config/sweep_runner.h"
#include "rt/probe.h"

namespace config {

/// What one (spec, seed, scale) run produced. Pure simulated data — it
/// JSON-round-trips exactly, so a journaled outcome can stand in for the run.
struct ScenarioResult {
  std::string name;
  std::string digest;  ///< spec digest the run was keyed by
  std::uint64_t seed = 0;
  double scale = 1.0;
  rt::ProbeResult probe;
  std::uint64_t events = 0;  ///< simulator events executed
  /// Simulated time actually executed for the measurement window. For
  /// fixed-duration specs this equals the scaled horizon; for sample-bound
  /// specs it is where the run stopped once the probe banked its budget
  /// (the horizon is an upper bound, not a target — see DESIGN.md §12).
  std::uint64_t duration_ns = 0;
  /// Telemetry document ({counters, timeline, attribution}) when the spec
  /// opted into the sampler and/or blame; null otherwise and then absent
  /// from the serialized form, so telemetry-free results are byte-identical
  /// to pre-telemetry ones.
  json::Value telemetry;
  /// Transport-only: the run's flight-recorder dump when the runner's
  /// flight_dump option asked for one on success. Not serialized with the
  /// result; run_outcome moves it onto the outcome record, which does
  /// serialize it.
  json::Value flight_recording;

  [[nodiscard]] json::Value to_json() const;
  static ScenarioResult from_json(const json::Value& v);

  /// Render the result the way the paper reports this kind of scenario
  /// (determinism legend for probes with an ideal, cumulative latency
  /// table otherwise).
  [[nodiscard]] std::string render(const ScenarioSpec& spec) const;
};

/// Base for failures thrown while the Platform is still alive. Carries the
/// post-mortem flight-recorder dump (a null Value when the recorder was
/// off): the ring dies with the engine during stack unwind, so the dump has
/// to be captured at the throw site.
class ScenarioAbort : public std::runtime_error {
 public:
  explicit ScenarioAbort(const std::string& what,
                         json::Value flight = json::Value())
      : std::runtime_error(what),
        flight_(std::make_shared<const json::Value>(std::move(flight))) {}
  [[nodiscard]] const json::Value& flight_recording() const {
    return *flight_;
  }

 private:
  std::shared_ptr<const json::Value> flight_;  // shared: copies never throw
};

/// Thrown when a run blows through its watchdog budget (simulated-event
/// count or wall-clock seconds). Distinct from the other failures so batch
/// reports can classify it as timed_out rather than failed.
class ScenarioTimeout : public ScenarioAbort {
 public:
  using ScenarioAbort::ScenarioAbort;
};

/// A structured failure rethrown with the flight dump attached when the
/// recorder was on (plain std::exceptions pass through untouched when it
/// was not).
class ScenarioFailure : public ScenarioAbort {
 public:
  using ScenarioAbort::ScenarioAbort;
};

/// How one spec in a batch ended up.
enum class RunStatus {
  kOk,          ///< first attempt succeeded
  kRetried,     ///< succeeded after >= 1 reseeded retry (transient specs)
  kFailed,      ///< structured failure (validation, probe, assertion...)
  kTimedOut,    ///< watchdog fired on the final attempt
  kIncomplete,  ///< run finished but the probe banked only part of its budget
  kCrashed,     ///< supervised worker died by signal running this spec
  kHung,        ///< supervised worker stopped responding and was killed
};
[[nodiscard]] const char* to_string(RunStatus s);
/// Inverse of to_string. Throws std::runtime_error on an unknown token.
[[nodiscard]] RunStatus run_status_from(const std::string& token);

/// Per-spec record in a degraded-run batch report.
struct RunOutcome {
  std::string name;
  /// Delivery mechanism the spec ran under ("inband"/"oob"). Serialized
  /// only when non-default; feeds the report's by_mechanism breakdown.
  std::string mechanism = "inband";
  RunStatus status = RunStatus::kOk;
  int attempts = 1;
  std::string error;  ///< what() of the last failure (empty on success)
  /// Seed of every reseeded retry actually attempted (attempts 2..N, in
  /// order), whether or not the spec eventually recovered. Lets a report
  /// reader replay any individual attempt; empty for single-attempt runs
  /// and then absent from the serialized form.
  std::vector<std::uint64_t> retry_seeds;
  std::optional<ScenarioResult> result;
  /// Flight-recorder dump from the final failed attempt (null unless the
  /// recorder was live when the run died). The post-mortem artifact the
  /// degraded-run report carries for watchdog timeouts.
  json::Value flight_recording;
  /// Host-side crash taxonomy, filled by the supervisor for kCrashed/kHung
  /// specs ({signal, phase, respawns, ...}; see docs/MODEL.md). Null for
  /// in-process runs. Deliberately excluded from to_full_json(): execution
  /// history is wall-clock-dependent, and the resumable-campaign merge must
  /// stay byte-identical across interruptions.
  json::Value execution;

  [[nodiscard]] bool ok() const {
    return status == RunStatus::kOk || status == RunStatus::kRetried;
  }
  /// Report form: status + error + taxonomy, result abbreviated to
  /// seed/events. What degraded-run reports embed.
  [[nodiscard]] json::Value to_json() const;
  /// Wire/journal form: like to_json() but with the full serialized result
  /// and without `execution`, so it round-trips through from_json() and is
  /// a pure function of (spec, seed) — the property campaign-journal merge
  /// identity rests on.
  [[nodiscard]] json::Value to_full_json() const;
  static RunOutcome from_json(const json::Value& v);
};

/// The degraded-run report for a whole batch: every spec gets an outcome
/// even when some fail — callers decide what a partial batch is worth.
struct BatchReport {
  std::vector<RunOutcome> outcomes;
  /// Always 0. Kept only because perfbench/measure.cpp, which is frozen
  /// with the benchmark, reads them for its config.prefix_hit_pct layer
  /// metric.
  std::uint64_t prefix_hits = 0;
  std::uint64_t prefix_misses = 0;
  /// Supervisor section ({workers, respawns, incidents, ...}) when the
  /// batch ran under config::Supervisor; null — and absent from the
  /// serialized form — for in-process batches.
  json::Value supervisor;

  [[nodiscard]] bool all_ok() const;
  [[nodiscard]] std::size_t count(RunStatus s) const;
  /// Schema: see docs/MODEL.md §"Degraded-run report".
  [[nodiscard]] json::Value to_json() const;
};

class ScenarioRunner {
 public:
  struct Options {
    /// Worker threads for batches (0 = all hardware threads).
    unsigned jobs = 0;
    /// Multiplies sample counts / fixed horizons, like the benches'
    /// --scale always has.
    double scale = 1.0;
    /// Ignored, both: every run builds, installs and boots its own platform
    /// at its own seed, and no result is memoized. Kept only because
    /// perfbench/measure.cpp, which is frozen with the benchmark, sets them.
    bool cache = true;
    bool prefix_reuse = false;
    /// Watchdog: abort a run (ScenarioTimeout) after this many simulated
    /// events (0 = unlimited).
    std::uint64_t max_events = 0;
    /// Watchdog: abort a run (ScenarioTimeout) after this much wall-clock
    /// time (0 = unlimited).
    double wall_limit_s = 0.0;
    /// Attempts for specs flagged `transient` (reseeded per retry); specs
    /// not flagged always get exactly one attempt.
    int max_attempts = 2;
    /// Attach the flight-recorder ring to *successful* runs too (outcomes
    /// gain a flight_recording document). kFull dumps the whole ring at the
    /// end of the run; kWorst snapshots the ring around the worst observed
    /// probe sample (trigger mode). Ring contents are pure simulated data,
    /// so the dump is deterministic per (spec, seed).
    enum class FlightDump { kOff, kFull, kWorst };
    FlightDump flight_dump = FlightDump::kOff;
  };

  /// Observation points for runs that need more than the serialized result
  /// (e.g. shieldctl stat's Prometheus text): hooks see live Platform/Probe
  /// state.
  struct Hooks {
    /// After the horizon has elapsed, before the result is extracted.
    std::function<void(Platform&, rt::Probe&)> finished;
  };

  ScenarioRunner() : ScenarioRunner(Options{}) {}
  explicit ScenarioRunner(Options opt)
      : opt_(std::move(opt)), sweep_(opt_.jobs) {}

  /// Verification harness for the snapshot layer: run `spec` three ways —
  /// an ordinary uninterrupted run, an arena-hosted run snapshotted at
  /// mid-horizon and continued, and a restore of that snapshot replayed to
  /// the horizon — and return each run's full serialized output (scenario
  /// result + telemetry registry text + chain-tracer statistics).
  /// `identical` means all three are byte-for-byte equal, which is the
  /// soundness gate for the snapshot layer (kept for perfbench's set-up
  /// probe; no run uses it).
  struct SnapshotCheck {
    bool identical = false;
    std::size_t snapshot_bytes = 0;
    std::string baseline;
    std::string continued;
    std::string resumed;
  };
  SnapshotCheck snapshot_bit_identity(const ScenarioSpec& spec,
                                      std::uint64_t seed);

  /// Simulate one scenario at one seed, synchronously in this thread.
  ScenarioResult run(const ScenarioSpec& spec, std::uint64_t seed,
                     const Hooks& hooks = {});

  /// Run many scenarios in parallel; seeds derive from `root_seed` per
  /// spec *name*, so adding or reordering specs does not reshuffle the
  /// streams of the others. Results come back in spec order.
  std::vector<ScenarioResult> run_batch(const std::vector<ScenarioSpec>& specs,
                                        std::uint64_t root_seed);

  /// Run one scenario at `repeats` derived seeds in parallel
  /// (seed fan-out for jitter-of-jitter studies).
  std::vector<ScenarioResult> run_seeds(const ScenarioSpec& spec,
                                        std::uint64_t root_seed, int repeats);

  /// Like run(), but never throws: failures, timeouts and (for transient
  /// specs) bounded reseeded retries are folded into the outcome record.
  RunOutcome run_outcome(const ScenarioSpec& spec, std::uint64_t seed);

  /// Progress callbacks for hardened batches. Both are invoked from worker
  /// threads — possibly concurrently for different specs — so callbacks
  /// must synchronize their own state. Used by the campaign journal to log
  /// start/done records as they happen rather than after the batch.
  struct BatchObserver {
    std::function<void(std::size_t index, const ScenarioSpec& spec,
                       std::uint64_t seed)>
        started;
    std::function<void(std::size_t index, const ScenarioSpec& spec,
                       const RunOutcome& outcome)>
        finished;
  };

  /// Hardened batch: every spec runs to an outcome regardless of other
  /// specs failing; the report carries per-spec status. Seeds derive like
  /// run_batch's.
  BatchReport run_batch_report(const std::vector<ScenarioSpec>& specs,
                               std::uint64_t root_seed);
  BatchReport run_batch_report(const std::vector<ScenarioSpec>& specs,
                               std::uint64_t root_seed,
                               const BatchObserver& observer);

 private:
  class LiveRun;

  Options opt_;
  bench::SweepRunner sweep_;
};

/// Digest of the part of a spec that precedes the probe: machine, kernel
/// and workloads, the platform a run builds and boots. No run uses it; it
/// stays, unchanged, for perfbench/measure.cpp (frozen with the benchmark),
/// whose set-up probe groups specs by it and seeds each group's platform
/// from it.
[[nodiscard]] std::string scenario_prefix_key(const ScenarioSpec& spec);

/// The seed `spec` runs under in a batch rooted at `root_seed`: derived
/// from the spec *name* (SeedDomain::kBatch), so adding, reordering or
/// re-placing specs never reshuffles another spec's streams.
[[nodiscard]] std::uint64_t batch_seed(std::uint64_t root_seed,
                                       const ScenarioSpec& spec);

/// Campaign blame rollup (attribution-rollup-v1) over every outcome whose
/// result carries an attribution-v1 document; null when none does. Derived
/// purely from outcomes, never from execution order, so a resumed campaign
/// rolls up to the same bytes as an uninterrupted one.
[[nodiscard]] json::Value attribution_rollup(
    const std::vector<RunOutcome>& outcomes);

}  // namespace config
