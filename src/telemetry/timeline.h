// Timeline export + worst-case latency attribution.
//
// Two consumers of the passive instrumentation layers live here:
//
//  * `chrome_trace_json` assembles FlightRecorder entries and completed
//    LatencyChains into per-CPU tracks (task spans, IRQ handlers, softirqs,
//    lock hold/contend, SMI stalls, oob stage preemptions, irq-off windows)
//    and renders Chrome Trace Event JSON (`trace-event-v1`), loadable in
//    Perfetto / chrome://tracing.
//
//  * `BlameCollector` watches probe latency chains as they close and keeps
//    the worst-N (or every sample above a threshold), folding each chain's
//    segments into a cause tree whose leaf nanoseconds exactly partition
//    the sample — the same invariant as `segment_total() == total()`, so a
//    tail sample is always fully explained, never approximately.
//
// Both are strictly passive: they never schedule events, draw RNG or
// mutate model state, so enabling them cannot change a scenario's outputs.
// This file depends only on sim/ and the flight recorder; JSON document
// views for runner results live in config/telemetry_export.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "sim/time.h"
#include "sim/trace.h"
#include "telemetry/flight_recorder.h"

namespace telemetry {

// ---------------------------------------------------------------------------
// Chrome Trace Event export
// ---------------------------------------------------------------------------

struct TimelineOptions {
  int ncpus = 0;  ///< tracks are rendered for cpus [0, ncpus)
  /// Optional symbolizers for lock ids / irq lines carried in ring entries;
  /// when absent the numeric id is rendered.
  std::function<std::string(int)> lock_name;
  std::function<std::string(int)> irq_name;
};

/// Render the ring + chains as a Chrome Trace Event JSON document
/// (`{"traceEvents": [...], "otherData": {"schema": "trace-event-v1"}}`).
/// Timestamps are microseconds with nanosecond precision (ts = ns / 1000).
[[nodiscard]] std::string chrome_trace_json(
    const FlightRecorder& ring, const std::vector<sim::LatencyChain>& chains,
    const TimelineOptions& opt);

// ---------------------------------------------------------------------------
// Blame: worst-case attribution
// ---------------------------------------------------------------------------

class BlameCollector {
 public:
  struct Options {
    int worst_n = 8;  ///< detailed cause trees kept for the N worst samples
    /// 0: only the worst-N are attributed. >0: every sample at or above the
    /// threshold feeds the aggregate (worst-N still bounds the trees).
    std::uint64_t threshold_ns = 0;
  };

  struct CauseTotal {
    std::uint64_t ns = 0;
    std::uint64_t count = 0;
  };

  /// Miss bands, fixed edges: <10us, 10-100us, 100us-1ms, >=1ms.
  static constexpr int kBands = 4;
  [[nodiscard]] static const char* band_name(int band);
  [[nodiscard]] static int band_of(std::uint64_t total_ns);

  /// The export-time view. Cause keys are "segment-kind" or
  /// "segment-kind/detail" (e.g. "spin-wait/dcache_lock"); within one
  /// sample the cause nanoseconds sum exactly to total_ns.
  struct Attribution {
    std::uint64_t samples_seen = 0;        ///< chains offered to the collector
    std::uint64_t samples_attributed = 0;  ///< chains in the aggregate below
    std::map<std::string, CauseTotal> causes;
    struct Band {
      std::uint64_t samples = 0;
      std::map<std::string, CauseTotal> causes;
    };
    std::array<Band, kBands> bands;
    struct Sample {
      std::string origin;
      std::uint64_t total_ns = 0;
      sim::Time start = 0;
      sim::Time end = 0;
      std::map<std::string, CauseTotal> causes;
    };
    std::vector<Sample> worst;  ///< largest first
  };

  // Two overloads instead of one defaulted argument: a `= {}` default for
  // a nested class with member initializers is ill-formed until the
  // enclosing class is complete (the delegating mem-initializer below is
  // parsed in complete-class context, so it is fine).
  BlameCollector() : BlameCollector(Options{}) {}
  explicit BlameCollector(Options opt);

  /// Attach the flight recorder whose window should be snapshotted around
  /// the worst observed sample (may be null / detached at any time).
  void attach_ring(const FlightRecorder* ring) { ring_ = ring; }

  /// Offer one completed probe chain. Called from the kernel as latency
  /// chains close; read-only with respect to the simulation.
  void on_sample(const sim::LatencyChain& chain);

  [[nodiscard]] std::uint64_t samples_seen() const { return seen_; }

  /// Fold the retained samples into the aggregate view. Deterministic:
  /// ordered maps, arrival order breaks total-ns ties.
  [[nodiscard]] Attribution attribution() const;

  /// The retained worst chains themselves (largest first), for timeline
  /// export of the decomposed tail samples.
  [[nodiscard]] std::vector<sim::LatencyChain> worst_chains() const;

  /// Ring snapshot taken when the worst sample so far closed; empty when no
  /// ring was attached/enabled or no sample has been seen.
  [[nodiscard]] const std::vector<FlightRecorder::Entry>& worst_window()
      const {
    return worst_window_;
  }
  [[nodiscard]] std::uint64_t worst_ns() const { return worst_ns_; }

  void clear();

 private:
  struct Kept {
    sim::LatencyChain chain;
    std::uint64_t order = 0;  ///< arrival index, for deterministic ties
  };

  static void fold(const sim::LatencyChain& chain,
                   std::map<std::string, CauseTotal>& into);

  Options opt_;
  const FlightRecorder* ring_ = nullptr;
  std::uint64_t seen_ = 0;
  std::vector<Kept> worst_;  ///< sorted by total desc, then arrival asc
  // Threshold mode accumulates incrementally (the qualifying set can be
  // larger than worst_n); worst-N mode derives everything from worst_.
  std::uint64_t over_threshold_ = 0;
  std::map<std::string, CauseTotal> agg_;
  std::array<Attribution::Band, kBands> band_agg_{};
  std::vector<FlightRecorder::Entry> worst_window_;
  std::uint64_t worst_ns_ = 0;
};

}  // namespace telemetry
