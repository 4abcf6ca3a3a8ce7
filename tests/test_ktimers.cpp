// Kernel periodic timers and the POSIX-timers patch (§4): without it,
// expirations are quantized to the 10 ms jiffy grid; with it they are
// exact.
#include <gtest/gtest.h>

#include "kernel_test_util.h"

using namespace testutil;
using namespace sim::literals;

TEST(KTimers, PeriodicFiresAtRequestedRate) {
  auto p = redhawk_rig(151);  // posix timers: exact
  auto& k = p->kernel();
  const auto wq = k.create_wait_queue("tick");
  p->boot();
  const auto id = k.arm_periodic_timer(wq, 5_ms);
  p->run_for(1_s);
  EXPECT_EQ(k.timer_expirations(id), 200u);
}

TEST(KTimers, VanillaQuantizesToJiffies) {
  auto p = vanilla_rig(152);
  auto& k = p->kernel();
  const auto wq = k.create_wait_queue("tick");
  p->boot();
  // A 3 ms itimer on a HZ=100 kernel can only fire on 10 ms boundaries.
  const auto id = k.arm_periodic_timer(wq, 3_ms);
  p->run_for(1_s);
  // Each rearm rounds up: effective period = 10 ms → ~100 expirations.
  EXPECT_LE(k.timer_expirations(id), 101u);
  EXPECT_GE(k.timer_expirations(id), 99u);
}

TEST(KTimers, HighResFiresSubJiffy) {
  auto p = redhawk_rig(153);
  auto& k = p->kernel();
  const auto wq = k.create_wait_queue("tick");
  p->boot();
  const auto id = k.arm_periodic_timer(wq, 3_ms);
  p->run_for(1_s);
  EXPECT_GE(k.timer_expirations(id), 330u);
}

TEST(KTimers, WakesBlockedTask) {
  auto p = redhawk_rig(154);
  auto& k = p->kernel();
  const auto wq = k.create_wait_queue("tick");
  std::vector<sim::Time> marks;
  spawn_scripted(k, {.name = "waiter"},
                 {kernel::SyscallAction{
                     kernel::ProgramBuilder{}.block(wq).build()}},
                 &marks);
  p->boot();
  k.arm_periodic_timer(wq, 7_ms);
  p->run_for(1_s);
  ASSERT_EQ(marks.size(), 2u);
  EXPECT_GE(marks[1], 7_ms);
  EXPECT_LT(marks[1], 7_ms + 200_us);
}

TEST(KTimers, CancelStopsExpirations) {
  auto p = redhawk_rig(155);
  auto& k = p->kernel();
  const auto wq = k.create_wait_queue("tick");
  p->boot();
  const auto id = k.arm_periodic_timer(wq, 5_ms);
  p->run_for(100_ms);
  const auto n = k.timer_expirations(id);
  k.cancel_timer(id);
  k.cancel_timer(id);  // idempotent
  p->run_for(1_s);
  EXPECT_EQ(k.timer_expirations(id), n);
}

TEST(KTimers, MultipleIndependentTimers) {
  auto p = redhawk_rig(156);
  auto& k = p->kernel();
  const auto wq1 = k.create_wait_queue("t1");
  const auto wq2 = k.create_wait_queue("t2");
  p->boot();
  const auto fast = k.arm_periodic_timer(wq1, 2_ms);
  const auto slow = k.arm_periodic_timer(wq2, 20_ms);
  p->run_for(1_s);
  EXPECT_EQ(k.timer_expirations(fast), 500u);
  EXPECT_EQ(k.timer_expirations(slow), 50u);
}

TEST(KTimers, QuantizationDoesNotAccumulateDrift) {
  // 2.4-style quantization rounds each expiry up, but the 10 ms grid is a
  // multiple of nothing in a 7 ms timer — the effective rate settles at
  // one expiry per jiffy-rounded period, not slower and slower.
  auto p = vanilla_rig(157);
  auto& k = p->kernel();
  const auto wq = k.create_wait_queue("tick");
  p->boot();
  const auto id = k.arm_periodic_timer(wq, 7_ms);
  p->run_for(10_s);
  // ceil(7 ms) on a fresh grid each time → 10 ms effective → ~1000 fires.
  EXPECT_NEAR(static_cast<double>(k.timer_expirations(id)), 1000.0, 10.0);
}
