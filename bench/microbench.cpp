// google-benchmark microbenchmarks of single simulator components: event
// queue, scheduler pick, RNG draw, histogram insert.
//
// A by-hand tool for looking at one component in isolation; nothing gates
// on its numbers. Whole-run simulator speed is measured by perfbench
// (BENCHMARK.json), whose method resolves changes above its A/A spread.
#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "config/kernel_config.h"
#include "kernel/goodness_scheduler.h"
#include "kernel/o1_scheduler.h"
#include "kernel/task.h"
#include "metrics/histogram.h"
#include "sim/event_queue.h"
#include "sim/rng.h"
#include "sim/time.h"

using namespace sim::literals;

namespace {

// Both event-queue benches hold the queue at a fixed live depth. Depths 4
// and 16 bracket what the simulator runs at (never more than 11 live
// events over the builtin registry at smoke scale; 3-8 for realfeel under
// stress-kernel); 1000 and 100'000 show how the cost grows past that.
void BM_EventQueueScheduleAndPop(benchmark::State& state) {
  const auto depth = static_cast<std::size_t>(state.range(0));
  sim::EventQueue q;
  sim::Time t = 0;
  for (auto _ : state) {
    q.schedule_at(t += 10, [] {});
    if (q.size() > depth) q.pop().second();
  }
}
BENCHMARK(BM_EventQueueScheduleAndPop)->Arg(4)->Arg(16)->Arg(1'000);

void BM_EventQueueCancel(benchmark::State& state) {
  // Schedule+cancel while other events stay pending: every preemption
  // cancels a segment-completion event this way.
  const auto depth = static_cast<std::size_t>(state.range(0));
  sim::EventQueue q;
  sim::Time t = 0;
  for (std::size_t i = 0; i < depth; ++i) q.schedule_at(t += 10, [] {});
  for (auto _ : state) {
    const auto id = q.schedule_at(t += 10, [] {});
    benchmark::DoNotOptimize(q.cancel(id));
  }
}
BENCHMARK(BM_EventQueueCancel)->Arg(4)->Arg(16)->Arg(1'000)->Arg(100'000);

void BM_RngBoundedPareto(benchmark::State& state) {
  sim::Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.bounded_pareto(1.0, 1e6, 1.1));
  }
}
BENCHMARK(BM_RngBoundedPareto);

void BM_HistogramAdd(benchmark::State& state) {
  metrics::LatencyHistogram h;
  sim::Rng rng(1);
  for (auto _ : state) {
    h.add(rng.uniform_duration(0, 100_ms));
  }
}
BENCHMARK(BM_HistogramAdd);

void BM_SchedulerPick(benchmark::State& state) {
  const bool o1 = state.range(0) != 0;
  const int ntasks = static_cast<int>(state.range(1));
  auto cfg = o1 ? config::KernelConfig::redhawk_1_4()
                : config::KernelConfig::vanilla_2_4_20();
  std::unique_ptr<kernel::Scheduler> s;
  if (o1) {
    s = std::make_unique<kernel::O1Scheduler>(cfg, sim::Rng(1));
  } else {
    s = std::make_unique<kernel::GoodnessScheduler>(cfg, sim::Rng(1));
  }
  s->init(1);
  std::vector<kernel::Task> tasks(static_cast<std::size_t>(ntasks));
  int pid = 1;
  for (auto& t : tasks) {
    t.pid = pid++;
    t.user_affinity = t.effective_affinity = hw::CpuMask(1);
    t.state = kernel::TaskState::kReady;
    t.timeslice_remaining = 60_ms;
  }
  for (auto& t : tasks) s->enqueue(t, 0);
  for (auto _ : state) {
    kernel::Task* t = s->pick_next(0);
    benchmark::DoNotOptimize(t);
    if (t != nullptr) {
      t->state = kernel::TaskState::kReady;
      s->enqueue(*t, 0);
    }
  }
}
BENCHMARK(BM_SchedulerPick)
    ->Args({0, 4})
    ->Args({0, 64})
    ->Args({1, 4})
    ->Args({1, 64});

}  // namespace

BENCHMARK_MAIN();
