// The one batch scheduler. One lane runs a batch's (spec, seed) items in
// order on the calling thread through ScenarioRunner::run_outcome; more
// lanes fork that many worker processes (one single-threaded runner each,
// at most one per item), so a runner bug, OOM kill or hang costs one
// in-flight item, not the batch. Either way the scheduler orders the items,
// makes the observer calls and journal records on the calling thread, and
// assembles the report.
//
// Worker lifecycle (DESIGN.md §14): spawn → dispatch → [death] → backoff →
// respawn, and quarantine once an item has killed more than `max_respawns`
// workers. A death is an exit by signal or with a nonzero status, or a hang:
// no message within `hang_timeout_s` of dispatch, and then a SIGKILL. Backoff
// is exponential with deterministic jitter (SeedDomain::kRespawn). Workers
// fork after the items exist, so a task line names an item by index.
// Outcomes come back as RunOutcome wire JSON, pure simulated data, which is
// what lets a journal merge supervised, inline and resumed runs
// byte-identically.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "config/journal.h"
#include "config/scenario.h"
#include "config/scenario_runner.h"
#include "telemetry/registry.h"

namespace config {

/// The lane rule: `jobs` lanes, 0 meaning one per hardware thread. One lane
/// runs inline (0 workers); two or more run on that many worker processes.
[[nodiscard]] int batch_workers(unsigned jobs);

class Supervisor {
 public:
  struct Options {
    /// Worker processes to fork, at most one per item. 0 runs the batch
    /// inline, in item order, on the calling thread.
    int workers = 2;
    /// Worker deaths one item may cause before it is quarantined with a
    /// terminal kCrashed/kHung outcome instead of being re-queued.
    int max_respawns = 2;
    /// Heartbeat budget: a busy worker silent for longer is declared hung
    /// and SIGKILLed. 0 disables hang detection.
    double hang_timeout_s = 0.0;
    /// Runner configuration, inline and in each worker. Its `jobs` is not
    /// read: `workers` sets the lanes.
    ScenarioRunner::Options runner;
  };

  /// What supervision did, beyond the per-item outcomes. All zero inline.
  struct Stats {
    std::uint64_t spawns = 0;        ///< workers forked, incl. replacements
    std::uint64_t respawns = 0;      ///< replacements after abnormal deaths
    std::uint64_t worker_crashes = 0;  ///< deaths by signal / nonzero exit
    std::uint64_t worker_hangs = 0;    ///< workers SIGKILLed by the heartbeat
    std::uint64_t requeues = 0;      ///< item re-dispatches after a death
    std::uint64_t specs_quarantined = 0;  ///< given terminal crash outcomes
    double backoff_total_s = 0.0;    ///< wall time slots spent in backoff
  };

  explicit Supervisor(Options opt);

  /// Run `items` to one outcome each, returned in item order. The observer
  /// calls and, when `journal` is non-null, the journal records — `start`
  /// at dispatch, `done` at the terminal outcome, `incident` for host
  /// events — happen on the calling thread as they occur. With workers the
  /// report's `supervisor` section carries the Stats plus incident records,
  /// and a journal directory gains supervisor.prom; inline, neither.
  BatchReport run(const std::vector<BatchItem>& items,
                  const ScenarioRunner::BatchObserver& observer = {},
                  CampaignJournal* journal = nullptr);

  /// The batch of `specs` at their batch seeds (batch_seed), so a
  /// supervised campaign produces the same per-spec results as an inline
  /// one.
  BatchReport run(const std::vector<ScenarioSpec>& specs,
                  std::uint64_t root_seed, CampaignJournal* journal = nullptr);

  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  Options opt_;
  Stats stats_;
  /// Supervisor gauges (supervisor.workers_alive / .respawns /
  /// .backoff_slots), updated live while workers run and exported to
  /// DIR/supervisor.prom when running workers with a journal.
  telemetry::Registry telemetry_;
};

}  // namespace config
