// Crash-isolated campaign execution: a pool of supervised worker processes.
//
// The in-process batch path (ScenarioRunner::run_batch_report) is fast but
// fragile at fleet scale: one runner bug, OOM kill or un-watchdogged hang
// takes the whole batch — and every completed-but-unreported result — with
// it. The Supervisor runs the same batch across forked worker processes
// (one single-threaded ScenarioRunner each), so a dying worker costs one
// in-flight spec, not the campaign.
//
// Worker lifecycle (see DESIGN.md §14): spawn → dispatch/heartbeat →
// [death] → backoff → respawn, with a per-spec quarantine once a spec has
// killed more workers than `max_respawns` allows. Death is detected three
// ways: exit by signal (SIGSEGV, SIGKILL/OOM), nonzero exit, and wall-clock
// hang (no protocol message within `hang_timeout_s` — the supervisor
// SIGKILLs the worker and classifies the spec kHung). Respawn backoff is
// exponential with deterministic jitter (SeedDomain::kRespawn).
//
// Dispatch preserves prefix-snapshot locality: a whole prefix_groups()
// group goes to one worker, so in-worker prefix reuse matches the
// in-process path and supervision stays within a few percent of it.
//
// Results cross the pipe as RunOutcome wire JSON — pure simulated data —
// which is what lets a campaign journal merge supervised, in-process and
// resumed runs byte-identically.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "config/journal.h"
#include "config/scenario.h"
#include "config/scenario_runner.h"
#include "telemetry/registry.h"

namespace config {

class Supervisor {
 public:
  struct Options {
    /// Worker processes to keep alive.
    int workers = 2;
    /// Worker deaths one spec may cause before it is quarantined with a
    /// terminal kCrashed/kHung outcome instead of being re-queued.
    int max_respawns = 2;
    /// Heartbeat budget: a busy worker silent for longer is declared hung
    /// and SIGKILLed. 0 disables hang detection.
    double hang_timeout_s = 0.0;
    /// Runner configuration for each worker. `jobs` is forced to 1 —
    /// parallelism comes from the pool — and `prefix_reuse` works as usual
    /// within a worker.
    ScenarioRunner::Options runner;
  };

  /// What supervision did, beyond the per-spec outcomes.
  struct Stats {
    std::uint64_t spawns = 0;        ///< workers forked, incl. replacements
    std::uint64_t respawns = 0;      ///< replacements after abnormal deaths
    std::uint64_t worker_crashes = 0;  ///< deaths by signal / nonzero exit
    std::uint64_t worker_hangs = 0;    ///< workers SIGKILLed by the heartbeat
    std::uint64_t requeues = 0;      ///< spec re-dispatches after a death
    std::uint64_t quarantined = 0;   ///< specs given terminal crash outcomes
    double backoff_total_s = 0.0;    ///< wall time slots spent in backoff
  };

  explicit Supervisor(Options opt);

  /// Run the batch under supervision. Seeds are run_batch_report's
  /// (batch_seed), so a supervised campaign produces the same per-spec
  /// results as an in-process one.
  /// When `journal` is non-null every start/terminal outcome/host incident
  /// is journaled as it happens. Outcomes come back in spec order; the
  /// report's `supervisor` section carries the Stats plus incident records.
  BatchReport run(const std::vector<ScenarioSpec>& specs,
                  std::uint64_t root_seed, CampaignJournal* journal = nullptr);

  [[nodiscard]] const Stats& stats() const { return stats_; }

  /// Supervisor gauges (supervisor.workers_alive / .respawns /
  /// .backoff_slots), updated live during run(). Exported to
  /// DIR/supervisor.prom when running with a journal.
  [[nodiscard]] telemetry::Registry& telemetry() { return telemetry_; }

 private:
  Options opt_;
  Stats stats_;
  telemetry::Registry telemetry_;
};

}  // namespace config
