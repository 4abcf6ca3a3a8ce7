// The simulation engine: clock + calendar + run loop.
//
// Everything in the model — hardware, kernel, workloads — schedules
// callbacks here. Time only advances between events; callbacks observe a
// frozen `now()`. The engine also owns the passive observers every layer
// reports into: the latency-chain tracer, the metric registry and the
// flight recorder. None of them can perturb the event stream.
#pragma once

#include <cstdint>
#include <functional>

#include "sim/event_queue.h"
#include "sim/rng.h"
#include "sim/time.h"
#include "sim/trace.h"
#include "telemetry/flight_recorder.h"
#include "telemetry/registry.h"

namespace sim {

class Engine {
 public:
  explicit Engine(std::uint64_t seed = 1);

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Current simulation time. Frozen during a callback.
  [[nodiscard]] Time now() const { return now_; }

  /// Schedule `cb` to run `delay` ns from now.
  EventId schedule(Duration delay, EventQueue::Callback cb) {
    return queue_.schedule_at(now_ + delay, std::move(cb));
  }

  /// Schedule `cb` at an absolute time (must not be in the past).
  EventId schedule_at(Time at, EventQueue::Callback cb);

  /// Cancel a pending event; no-op if it already fired or was cancelled.
  bool cancel(EventId id) { return queue_.cancel(id); }

  /// Run events until the calendar is empty or `deadline` is reached.
  /// Events stamped exactly at `deadline` do fire; `now()` ends at
  /// min(deadline, last event time... see implementation) — after return,
  /// now() == deadline if the calendar outlived it.
  void run_until(Time deadline);

  /// Run a single event. Returns false if the calendar is empty.
  bool step();

  /// Run until the calendar is empty. Only sensible for models that quiesce.
  void run_to_completion();

  /// Number of events executed so far.
  [[nodiscard]] std::uint64_t events_executed() const { return events_executed_; }

  /// Root RNG; model components should call `rng().split()` once at
  /// construction to obtain an independent stream.
  Rng& rng() { return rng_; }

  /// Replace the root RNG stream. Used by the snapshot fork path: after a
  /// restore, reseeding with a fork-label-derived seed makes every stream
  /// subsequently split from the root diverge deterministically between
  /// siblings, while streams split before the snapshot continue their
  /// checkpointed sequences unchanged.
  void reseed(std::uint64_t seed) { rng_ = Rng(seed); }

  /// Structured latency-chain tracer (see sim/trace.h). Off by default;
  /// enabling it never perturbs the event stream.
  ChainTracer& chain_tracer() { return chain_tracer_; }
  const ChainTracer& chain_tracer() const { return chain_tracer_; }

  /// Central metric registry. Components register counters/gauges at
  /// construction; exporters (procfs, reports, the sampler) read it.
  telemetry::Registry& telemetry() { return telemetry_; }
  const telemetry::Registry& telemetry() const { return telemetry_; }

  /// Post-mortem event ring (see telemetry/flight_recorder.h). Disabled by
  /// default; recording is passive and never perturbs the event stream.
  telemetry::FlightRecorder& flight_recorder() { return flight_recorder_; }
  const telemetry::FlightRecorder& flight_recorder() const {
    return flight_recorder_;
  }

  /// Host wall-clock guard: `check` is invoked from the run loop every
  /// `every` executed events (between callbacks, never inside one), so a
  /// budget enforced only at coarse simulated-time boundaries still fires
  /// while the engine grinds through a dense stretch of events. The guard
  /// reads no model state and is expected to either return or throw; it
  /// cannot perturb the event stream. Pass an empty function to disarm.
  void set_wall_guard(std::function<void()> check, std::uint64_t every = 1024) {
    wall_guard_ = std::move(check);
    wall_guard_every_ = every == 0 ? 1 : every;
    wall_guard_tick_ = 0;
  }
  void clear_wall_guard() { set_wall_guard(nullptr); }

 private:
  Time now_ = 0;
  EventQueue queue_;
  Rng rng_;
  ChainTracer chain_tracer_;
  telemetry::Registry telemetry_;
  telemetry::FlightRecorder flight_recorder_;
  std::uint64_t events_executed_ = 0;
  std::function<void()> wall_guard_;
  std::uint64_t wall_guard_every_ = 1024;
  std::uint64_t wall_guard_tick_ = 0;
};

}  // namespace sim
