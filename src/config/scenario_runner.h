// One executor behind every bench, tool and test.
//
// ScenarioRunner turns a ScenarioSpec into a Platform, installs the
// workloads, builds the probe, boots, applies the shield plan, runs to the
// horizon and returns a serializable ScenarioResult. Batches fan out over
// bench::SweepRunner with per-scenario seeds derived via sim::derive_seed
// (insertion-order independent), and results are cached in memory (and
// optionally on disk) keyed by (spec digest, seed, scale).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "config/json.h"
#include "config/platform.h"
#include "config/scenario.h"
#include "config/sweep_runner.h"
#include "rt/probe.h"

namespace config {

/// What one (spec, seed, scale) run produced. Pure simulated data — it
/// JSON-round-trips exactly, which is what makes the cache sound.
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
  /// True when the result came out of the cache, not a fresh simulation.
  /// Not serialized: a round-tripped result compares equal either way.
  bool from_cache = false;
  /// Transport-only: the run's flight-recorder dump when the runner's
  /// flight_dump option asked for one on success. Not serialized with the
  /// result (cache entries stay byte-identical); run_outcome moves it onto
  /// the outcome record, which does serialize it.
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
  /// Disk-cache entries that failed integrity checks and were quarantined
  /// and recomputed during this runner's lifetime.
  std::uint64_t cache_entries_recomputed = 0;
  /// Prefix snapshot reuse during this batch (zero/zero when the runner has
  /// prefix_reuse off): a hit forked a warmed prefix, a miss simulated one.
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
    /// In-memory result cache keyed by (digest, seed, scale).
    bool cache = true;
    /// Also persist results under this directory (empty = memory only).
    /// Created (recursively) if missing; if it ends up unwritable the
    /// runner warns once on stderr and falls back to memory-only caching.
    std::string cache_dir;
    /// Watchdog: abort a run (ScenarioTimeout) after this many simulated
    /// events (0 = unlimited).
    std::uint64_t max_events = 0;
    /// Watchdog: abort a run (ScenarioTimeout) after this much wall-clock
    /// time (0 = unlimited).
    double wall_limit_s = 0.0;
    /// Attempts for specs flagged `transient` (reseeded per retry); specs
    /// not flagged always get exactly one attempt.
    int max_attempts = 2;
    /// Share simulated prefixes across scenarios: specs whose (machine,
    /// kernel, workloads) agree fork one warmed-up snapshot from a bounded
    /// in-memory LRU instead of each building and booting a platform. A
    /// forked run is bit-reproducible (same spec + seed → same result) but
    /// numerically different from a cold run of the same spec — the child's
    /// streams derive from a fork label — so cached results carry a fork
    /// marker in their key. Off by default; `shieldctl run` turns it on.
    bool prefix_reuse = false;
    /// Attach the flight-recorder ring to *successful* runs too (outcomes
    /// gain a flight_recording document). kFull dumps the whole ring at the
    /// end of the run; kWorst snapshots the ring around the worst observed
    /// probe sample (trigger mode). Either mode forces fresh runs (the dump
    /// is not part of the cacheable result) — ring contents are pure
    /// simulated data, so the dump is still deterministic per (spec, seed).
    enum class FlightDump { kOff, kFull, kWorst };
    FlightDump flight_dump = FlightDump::kOff;
  };

  /// Observation points for runs that need more than the cacheable result
  /// (e.g. shieldctl stat's Prometheus text). Any hook forces a fresh, cold
  /// simulation: hooks see live Platform/Probe state the cache cannot
  /// reproduce.
  struct Hooks {
    /// After the horizon has elapsed, before the result is extracted.
    std::function<void(Platform&, rt::Probe&)> finished;
  };

  ScenarioRunner() : ScenarioRunner(Options{}) {}
  explicit ScenarioRunner(Options opt);
  ~ScenarioRunner();

  [[nodiscard]] const Options& options() const { return opt_; }

  /// Prefix snapshot reuse counters (see Options::prefix_reuse).
  struct PrefixStats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
  };
  [[nodiscard]] PrefixStats prefix_stats() const {
    return {prefix_hits_.load(), prefix_misses_.load()};
  }

  /// Verification harness for the snapshot layer: run `spec` three ways —
  /// an ordinary uninterrupted run, an arena-hosted run snapshotted at
  /// mid-horizon and continued, and a restore of that snapshot replayed to
  /// the horizon — and return each run's full serialized output (scenario
  /// result + telemetry registry text + chain-tracer statistics).
  /// `identical` means all three are byte-for-byte equal, which is the
  /// soundness gate for fork reuse.
  struct SnapshotCheck {
    bool identical = false;
    std::size_t snapshot_bytes = 0;
    std::string baseline;
    std::string continued;
    std::string resumed;
  };
  SnapshotCheck snapshot_bit_identity(const ScenarioSpec& spec,
                                      std::uint64_t seed);

  /// Run one scenario at one seed, synchronously in this thread.
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
  /// specs failing; the report carries per-spec status plus cache-repair
  /// accounting. Seeds derive like run_batch's.
  BatchReport run_batch_report(const std::vector<ScenarioSpec>& specs,
                               std::uint64_t root_seed);
  BatchReport run_batch_report(const std::vector<ScenarioSpec>& specs,
                               std::uint64_t root_seed,
                               const BatchObserver& observer);

  /// Disk-cache entries quarantined + recomputed so far (integrity check
  /// failures: truncated writes, corruption, checksum mismatches).
  [[nodiscard]] std::uint64_t cache_entries_recomputed() const {
    return cache_recomputed_.load();
  }

 private:
  class LiveRun;
  class PrefixCache;

  /// A fresh platform built in this call: the only path hooks can observe.
  ScenarioResult run_cold(const ScenarioSpec& spec, std::uint64_t seed,
                          const Hooks& hooks);
  /// A fork of the spec's warmed prefix (Options::prefix_reuse).
  ScenarioResult run_forked(const ScenarioSpec& spec, std::uint64_t seed);
  [[nodiscard]] std::string cache_key(const std::string& digest,
                                      std::uint64_t seed, bool forked) const;
  [[nodiscard]] std::string cache_path(const std::string& key) const;

  Options opt_;
  bench::SweepRunner sweep_;
  std::mutex cache_mutex_;
  std::map<std::string, ScenarioResult> memory_cache_;
  std::atomic<std::uint64_t> cache_recomputed_{0};
  std::unique_ptr<PrefixCache> prefix_cache_;
  std::atomic<std::uint64_t> prefix_hits_{0};
  std::atomic<std::uint64_t> prefix_misses_{0};
};

/// Prefix-sharing key of a spec (see Options::prefix_reuse): specs with
/// equal keys can fork one booted platform prefix.
[[nodiscard]] std::string scenario_prefix_key(const ScenarioSpec& spec);

/// Batch indices grouped by scenario_prefix_key, groups in order of first
/// appearance (a prefix-sorted registry keeps its familiar order). Every
/// batch executor dispatches whole groups to one worker thread or process,
/// so a group's first run builds the prefix snapshot and the rest fork it.
[[nodiscard]] std::vector<std::vector<std::size_t>> prefix_groups(
    const std::vector<ScenarioSpec>& specs);

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
