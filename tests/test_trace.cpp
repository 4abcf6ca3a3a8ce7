// The kernel's scheduling records in the flight ring, and the latency-chain
// tracer's mechanics.
#include <gtest/gtest.h>

#include "kernel_test_util.h"
#include "sim/trace.h"
#include "telemetry/flight_recorder.h"

using namespace testutil;
using namespace sim::literals;

TEST(Trace, KernelEmitsSchedulingRecords) {
  auto p = vanilla_rig(171);
  p->engine().flight_recorder().enable(1 << 16);
  const kernel::Task& hog = spawn_hog(p->kernel(), "traced");
  p->boot();
  p->run_for(200_ms);
  bool saw_switch = false;
  for (const auto& e : p->engine().flight_recorder().entries()) {
    if (e.kind == telemetry::EventKind::kCtxSwitch && e.a == hog.pid) {
      saw_switch = true;
    }
  }
  EXPECT_TRUE(saw_switch);
}

// ---------------------------------------------------------------------------
// ChainTracer unit tests.
// ---------------------------------------------------------------------------

TEST(ChainTracer, DisabledOpenReturnsInvalidId) {
  sim::ChainTracer t;
  EXPECT_FALSE(t.enabled());
  const sim::ChainId id = t.open("irq8", 100);
  EXPECT_FALSE(id.valid());
  // Everything downstream of an invalid id is a no-op.
  t.mark(id, sim::SegmentKind::kIrqHandler, 0, 200);
  EXPECT_FALSE(t.close(id, sim::SegmentKind::kKernelExit, 0, 300).has_value());
  EXPECT_EQ(t.opened(), 0u);
}

TEST(ChainTracer, SegmentsPartitionTheChainExactly) {
  sim::ChainTracer t;
  t.enable();
  const sim::ChainId id = t.open("irq8", 1'000);
  t.mark(id, sim::SegmentKind::kIrqRaise, 1, 1'450);
  t.mark(id, sim::SegmentKind::kIrqHandler, 1, 3'000);
  t.mark(id, sim::SegmentKind::kSpinWait, 1, 9'000, "bkl");
  const auto chain = t.close(id, sim::SegmentKind::kKernelExit, 1, 12'345);
  ASSERT_TRUE(chain.has_value());
  EXPECT_EQ(chain->origin, "irq8");
  EXPECT_EQ(chain->total(), 11'345u);
  EXPECT_EQ(chain->segment_total(), chain->total());
  ASSERT_EQ(chain->segments.size(), 4u);
  EXPECT_EQ(chain->segments[0].kind, sim::SegmentKind::kIrqRaise);
  EXPECT_EQ(chain->segments[2].detail, "bkl");
  EXPECT_EQ(chain->total_for(sim::SegmentKind::kSpinWait), 6'000u);
  // Adjacent segments tile [start, end] with no gaps.
  for (std::size_t i = 1; i < chain->segments.size(); ++i) {
    EXPECT_EQ(chain->segments[i].begin, chain->segments[i - 1].end);
  }
  EXPECT_EQ(t.completed(), 1u);
}

TEST(ChainTracer, BackwardMarkIsClampedToKeepPartitionExact) {
  sim::ChainTracer t;
  t.enable();
  const sim::ChainId id = t.open("ktimer", 1'000);
  t.mark(id, sim::SegmentKind::kTimerExpiry, 0, 2'000);
  // A mark at or before the previous one must not produce a negative or
  // overlapping segment; it is dropped.
  t.mark(id, sim::SegmentKind::kRunqueueWait, 0, 1'500);
  t.mark(id, sim::SegmentKind::kRunqueueWait, 0, 2'000);
  const auto chain = t.close(id, sim::SegmentKind::kContextSwitch, 0, 5'000);
  ASSERT_TRUE(chain.has_value());
  ASSERT_EQ(chain->segments.size(), 2u);
  EXPECT_EQ(chain->segment_total(), chain->total());
}

TEST(ChainTracer, StaleIdsAreRejectedAfterSlotReuse) {
  sim::ChainTracer t;
  t.enable();
  const sim::ChainId first = t.open("irq1", 10);
  t.abandon(first);
  const sim::ChainId second = t.open("irq2", 20);  // reuses the slot
  EXPECT_FALSE(t.alive(first));
  EXPECT_TRUE(t.alive(second));
  t.mark(first, sim::SegmentKind::kIrqHandler, 0, 30);  // no-op
  EXPECT_FALSE(t.close(first, sim::SegmentKind::kKernelExit, 0, 40).has_value());
  const auto chain = t.close(second, sim::SegmentKind::kKernelExit, 0, 50);
  ASSERT_TRUE(chain.has_value());
  ASSERT_EQ(chain->segments.size(), 1u);
  EXPECT_EQ(chain->segments[0].begin, 20u);  // second's history, not first's
  EXPECT_EQ(t.abandoned(), 1u);
  EXPECT_EQ(t.completed(), 1u);
}

TEST(ChainTracer, LiveCapDropsExcessOpens) {
  sim::ChainTracer t;
  t.enable(/*max_live=*/2);
  const sim::ChainId a = t.open("a", 1);
  const sim::ChainId b = t.open("b", 2);
  const sim::ChainId c = t.open("c", 3);
  EXPECT_TRUE(a.valid());
  EXPECT_TRUE(b.valid());
  EXPECT_FALSE(c.valid());
  EXPECT_EQ(t.dropped(), 1u);
  t.abandon(a);
  EXPECT_TRUE(t.open("d", 4).valid());  // slot freed, under the cap again
}

TEST(ChainTracer, DisableAbandonsChainsInFlight) {
  sim::ChainTracer t;
  t.enable();
  const sim::ChainId a = t.open("a", 1);
  t.disable();
  EXPECT_FALSE(t.alive(a));
  EXPECT_EQ(t.abandoned(), 1u);
  EXPECT_EQ(t.live(), 0u);
  EXPECT_FALSE(t.open("late", 2).valid());
}
