// End-to-end latency-chain tracing: the kernel's emit sites must assemble,
// for each RT measurement app, a chain whose segments partition the
// recorded worst-case latency exactly — the §6.2-style decomposition of
// *why* a sample was slow. The worst chain is the one the blame collector
// keeps, as in every scenario run. Also covers the /proc/latency files.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "kernel_test_util.h"
#include "rt/cyclictest.h"
#include "rt/rcim_test.h"
#include "rt/realfeel_test.h"
#include "telemetry/timeline.h"
#include "workload/stress_kernel.h"

using namespace testutil;
using namespace sim::literals;

namespace {

// Every chain invariant the tracer guarantees by construction, asserted on
// a chain that came out of a real run.
void expect_well_formed(const sim::LatencyChain& c) {
  ASSERT_FALSE(c.segments.empty());
  EXPECT_EQ(c.segments.front().begin, c.start);
  EXPECT_EQ(c.segments.back().end, c.end);
  for (std::size_t i = 1; i < c.segments.size(); ++i) {
    EXPECT_EQ(c.segments[i].begin, c.segments[i - 1].end);
  }
  // The acceptance bar is "segments sum within 1% of the recorded
  // latency"; the partition construction makes the sum *exact*.
  EXPECT_EQ(c.segment_total(), c.total());
}

}  // namespace

TEST(LatencyChain, RealfeelWorstSampleDecomposesExactly) {
  auto p = redhawk_rig(301);
  p->engine().chain_tracer().enable();
  telemetry::BlameCollector blame({.worst_n = 1});
  p->kernel().set_blame_collector(&blame);
  rt::RealfeelTest::Params rp;
  rp.samples = 2000;
  rp.affinity = hw::CpuMask::single(1);
  rt::RealfeelTest test(p->kernel(), p->rtc_driver(), rp);
  p->boot();
  p->shield().dedicate_cpu(1, test.task(), p->rtc_device().irq());
  test.start();
  p->run_for(5_s);
  ASSERT_TRUE(test.done());

  const std::vector<sim::LatencyChain> worst = blame.worst_chains();
  ASSERT_FALSE(worst.empty());
  const sim::LatencyChain& c = worst.front();
  // Each banked sample closed one chain, and the collector saw every one.
  EXPECT_EQ(blame.samples_seen(), test.collected());
  expect_well_formed(c);
  // The chain starts at the device raise and ends at the reader's return:
  // exactly the worst wake-latency sample.
  EXPECT_EQ(c.origin.substr(0, 3), "irq");
  EXPECT_EQ(c.segments.front().kind, sim::SegmentKind::kIrqRaise);
  EXPECT_EQ(c.total(), test.wake_latencies().max());
  // The wakeup must have crossed the scheduler.
  EXPECT_GT(c.total_for(sim::SegmentKind::kContextSwitch), 0u);
}

TEST(LatencyChain, RealfeelUnderStressStillPartitionsExactly) {
  auto p = vanilla_rig(302);
  workload::StressKernel{}.install(*p);
  p->engine().chain_tracer().enable();
  telemetry::BlameCollector blame({.worst_n = 1});
  p->kernel().set_blame_collector(&blame);
  rt::RealfeelTest::Params rp;
  rp.samples = 2000;
  rt::RealfeelTest test(p->kernel(), p->rtc_driver(), rp);
  p->boot();
  test.start();
  p->run_for(5_s);
  ASSERT_TRUE(test.done());

  const std::vector<sim::LatencyChain> worst = blame.worst_chains();
  ASSERT_FALSE(worst.empty());
  const sim::LatencyChain& c = worst.front();
  // Each banked sample closed one chain, and the collector saw every one.
  EXPECT_EQ(blame.samples_seen(), test.collected());
  expect_well_formed(c);
  EXPECT_EQ(c.segments.front().kind, sim::SegmentKind::kIrqRaise);
  // The chain measures from the raise that actually woke the reader. When
  // the contended kernel delays the reader past further RTC periods, the
  // wake_latencies metric resets to the *newest* fire while the chain keeps
  // the full wakeup-to-run story — so the chain can only be the longer of
  // the two.
  EXPECT_GE(c.total(), test.wake_latencies().min());
}

TEST(LatencyChain, RcimWorstSampleDecomposesWithoutBkl) {
  auto p = redhawk_rig(303);
  p->engine().chain_tracer().enable();
  telemetry::BlameCollector blame({.worst_n = 1});
  p->kernel().set_blame_collector(&blame);
  rt::RcimTest::Params rp;
  rp.samples = 2000;
  rp.affinity = hw::CpuMask::single(1);
  rt::RcimTest test(p->kernel(), p->rcim_driver(), rp);
  p->boot();
  p->shield().dedicate_cpu(1, test.task(), p->rcim_device().irq());
  test.start();
  p->run_for(5_s);
  ASSERT_TRUE(test.done());

  const std::vector<sim::LatencyChain> worst = blame.worst_chains();
  ASSERT_FALSE(worst.empty());
  const sim::LatencyChain& c = worst.front();
  // Each banked sample closed one chain, and the collector saw every one.
  EXPECT_EQ(blame.samples_seen(), test.collected());
  expect_well_formed(c);
  EXPECT_EQ(c.segments.front().kind, sim::SegmentKind::kIrqRaise);
  EXPECT_EQ(c.total(), test.true_latencies().max());
  // §6.3: the RCIM wait path sets the multithreaded-driver flag, so the
  // wakeup never spins on the BKL — the reason its worst case stays tens
  // of microseconds where /dev/rtc's reaches milliseconds.
  for (const sim::ChainSegment& s : c.segments) {
    EXPECT_NE(s.detail, "BKL");
  }
}

TEST(LatencyChain, CyclictestChainsOriginateAtTheKernelTimer) {
  auto p = redhawk_rig(304);
  p->engine().chain_tracer().enable();
  telemetry::BlameCollector blame({.worst_n = 1});
  p->kernel().set_blame_collector(&blame);
  rt::CyclicTest::Params cp;
  cp.period = 1_ms;
  cp.cycles = 2000;
  cp.affinity = hw::CpuMask::single(1);
  rt::CyclicTest test(p->kernel(), cp);
  p->boot();
  p->shield().shield_all(hw::CpuMask::single(1));
  test.start();
  p->run_for(5_s);
  ASSERT_TRUE(test.done());

  const std::vector<sim::LatencyChain> worst = blame.worst_chains();
  ASSERT_FALSE(worst.empty());
  const sim::LatencyChain& c = worst.front();
  // Each banked sample closed one chain, and the collector saw every one.
  EXPECT_EQ(blame.samples_seen(), test.collected());
  expect_well_formed(c);
  EXPECT_EQ(c.origin, "ktimer");
  // The 2.4 timer wheel's expiry and the wakeup share one event, so the
  // kTimerExpiry segment is zero-width and elided; the chain is pure
  // scheduling latency — no device interrupt appears anywhere in it.
  EXPECT_EQ(c.total_for(sim::SegmentKind::kIrqRaise), 0u);
  EXPECT_EQ(c.total_for(sim::SegmentKind::kIrqHandler), 0u);
  EXPECT_GT(c.total_for(sim::SegmentKind::kContextSwitch), 0u);
  EXPECT_LE(c.total(), test.latencies().max());
}

TEST(LatencyChain, ProcLatencyFilesExposePerCpuCounters) {
  auto p = vanilla_rig(305);
  workload::StressKernel{}.install(*p);
  p->boot();
  p->run_for(2_s);
  auto& fs = p->kernel().procfs();
  for (int cpu = 0; cpu < 2; ++cpu) {
    const auto text = fs.read("/proc/latency/cpu" + std::to_string(cpu));
    ASSERT_TRUE(text.has_value()) << "cpu" << cpu;
    EXPECT_NE(text->find("spin_wait_ns"), std::string::npos);
    EXPECT_NE(text->find("bkl_hold_ns"), std::string::npos);
    EXPECT_NE(text->find("irq_off_max_ns"), std::string::npos);
    EXPECT_NE(text->find("preempt_off_max_ns"), std::string::npos);
  }
  const auto locks = fs.read("/proc/latency/locks");
  ASSERT_TRUE(locks.has_value());
  EXPECT_NE(locks->find("lock"), std::string::npos);
  // The stress kernel's syscall soup takes the BKL within the first couple
  // of seconds, so the contended-lock table is not empty.
  EXPECT_NE(locks->find("BKL"), std::string::npos);
}
