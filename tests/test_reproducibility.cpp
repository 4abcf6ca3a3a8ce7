// Bit-level reproducibility: the same seed must give the same results; a
// different seed must (almost surely) give different ones.
#include <gtest/gtest.h>

#include <tuple>

#include "kernel_test_util.h"
#include "rt/realfeel_test.h"
#include "workload/stress_kernel.h"

using namespace testutil;
using namespace sim::literals;

namespace {

struct RunResult {
  std::uint64_t events;
  sim::Duration max_latency;
  sim::Duration mean_latency;
  std::uint64_t syscalls;
};

RunResult run_once(std::uint64_t seed, bool trace = false) {
  config::Platform p(config::MachineConfig::dual_p3_xeon_933(),
                     config::KernelConfig::vanilla_2_4_20(), seed);
  workload::StressKernel{}.install(p);
  if (trace) p.engine().chain_tracer().enable();
  rt::RealfeelTest::Params rp;
  rp.samples = 20'000;
  rt::RealfeelTest test(p.kernel(), p.rtc_driver(), rp);
  p.boot();
  test.start();
  p.run_for(30_s);
  std::uint64_t syscalls = 0;
  for (const auto& t : p.kernel().tasks()) syscalls += t->syscalls;
  return RunResult{p.engine().events_executed(), test.latencies().max(),
                   test.latencies().mean(), syscalls};
}

}  // namespace

TEST(Reproducibility, SameSeedSameRun) {
  const auto a = run_once(12345);
  const auto b = run_once(12345);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.max_latency, b.max_latency);
  EXPECT_EQ(a.mean_latency, b.mean_latency);
  EXPECT_EQ(a.syscalls, b.syscalls);
}

// The chain tracer only reads simulation time — it never schedules events
// or draws random numbers — so enabling it must not change the event
// stream or any figure metric. This is what lets verify.sh vouch that
// tracing-off figure outputs are byte-identical to a tracing build's.
TEST(Reproducibility, ChainTracerDoesNotPerturbTheRun) {
  const auto off = run_once(555, /*trace=*/false);
  const auto on = run_once(555, /*trace=*/true);
  EXPECT_EQ(off.events, on.events);
  EXPECT_EQ(off.max_latency, on.max_latency);
  EXPECT_EQ(off.mean_latency, on.mean_latency);
  EXPECT_EQ(off.syscalls, on.syscalls);
}

TEST(Reproducibility, DifferentSeedDifferentRun) {
  const auto a = run_once(1);
  const auto b = run_once(2);
  // Event counts of two 30 s stress runs colliding would be astonishing.
  EXPECT_NE(a.events, b.events);
}

// The calendar must preserve the determinism contract end to end: two runs
// with one seed agree on every event executed and on the full shape of the
// figure metrics, not just the summary moments.
TEST(Reproducibility, FigureMetricsBitIdenticalAcrossRuns) {
  const auto run = [](std::uint64_t seed) {
    config::Platform p(config::MachineConfig::dual_p3_xeon_933(),
                       config::KernelConfig::redhawk_1_4(), seed);
    workload::StressKernel{}.install(p);
    rt::RealfeelTest::Params rp;
    rp.samples = 20'000;
    rp.affinity = hw::CpuMask::single(1);
    rt::RealfeelTest test(p.kernel(), p.rtc_driver(), rp);
    p.boot();
    p.shield().shield_all(hw::CpuMask::single(1));
    test.start();
    p.run_for(30_s);
    const auto& lat = test.latencies();
    return std::tuple{p.engine().events_executed(), lat.count(), lat.min(),
                      lat.max(),  lat.percentile(0.5), lat.percentile(0.999),
                      lat.fraction_below(100 * sim::kMicrosecond)};
  };
  EXPECT_EQ(run(2003), run(2003));
  EXPECT_NE(std::get<0>(run(2003)), std::get<0>(run(2004)));
}

TEST(Reproducibility, ShieldedRunsAreAlsoDeterministic) {
  const auto run = [](std::uint64_t seed) {
    auto p = redhawk_rig(seed);
    workload::StressKernel{}.install(*p);
    auto& rt = spawn_hog(p->kernel(), "rt", hw::CpuMask::single(1),
                         kernel::SchedPolicy::kFifo, 90);
    p->boot();
    p->shield().shield_all(hw::CpuMask::single(1));
    p->run_for(3_s);
    return std::pair{p->engine().events_executed(), rt.utime};
  };
  EXPECT_EQ(run(777), run(777));
}
