// Bottom-half semantics: in-irq-context draining (vanilla), the budget +
// ksoftirqd offload (RedHawk), restart limits, and the interaction with
// running tasks.
#include <gtest/gtest.h>

#include "kernel_test_util.h"

using namespace testutil;
using namespace sim::literals;

TEST(Softirq, PendingWorkAccounting) {
  kernel::SoftirqPending sp;
  EXPECT_FALSE(sp.any_pending());
  sp.raise(kernel::SoftirqType::kNetRx, 100_us);
  sp.raise(kernel::SoftirqType::kBlock, 50_us);
  EXPECT_EQ(sp.total_pending(), 150_us);
  EXPECT_EQ(sp.pending(kernel::SoftirqType::kNetRx), 100_us);
  EXPECT_EQ(sp.raise_count(kernel::SoftirqType::kNetRx), 1u);
}

TEST(Softirq, TakeRespectsBudget) {
  kernel::SoftirqPending sp;
  sp.raise(kernel::SoftirqType::kNetRx, 100_us);
  sp.raise(kernel::SoftirqType::kBlock, 100_us);
  EXPECT_EQ(sp.take(150_us), 150_us);
  EXPECT_EQ(sp.total_pending(), 50_us);
  EXPECT_EQ(sp.take(1_ms), 50_us);
  EXPECT_FALSE(sp.any_pending());
  EXPECT_EQ(sp.total_executed(), 200_us);
}

TEST(Softirq, VanillaDrainsInIrqContextStealingFromFifoTask) {
  // A FIFO hog owns CPU 0. A NIC interrupt routed there queues softirq
  // work; vanilla drains it all in interrupt context, dilating the hog's
  // wall time — exactly the §5 jitter mechanism.
  auto p = vanilla_rig(41);
  auto& k = p->kernel();
  p->interrupt_controller().set_affinity(p->nic_device().irq(),
                                         hw::CpuMask::single(0));
  std::vector<sim::Time> marks;
  kernel::Kernel::TaskParams tp;
  tp.name = "rt-hog";
  tp.policy = kernel::SchedPolicy::kFifo;
  tp.rt_priority = 80;
  tp.affinity = hw::CpuMask::single(0);
  spawn_scripted(k, std::move(tp), {kernel::ComputeAction{50_ms, 0.0}}, &marks);
  p->boot();
  // One 400 KB burst = one interrupt carrying ~10 ms of net-rx softirq
  // work (wire delay ~32 ms, so it lands ~37 ms into the compute window).
  p->engine().schedule(5_ms, [&] { p->nic_device().rx(400'000); });
  p->run_for(1_s);
  ASSERT_EQ(marks.size(), 2u);
  const sim::Duration took = marks[1] - marks[0];
  EXPECT_GT(took, 58_ms);  // work + ~10 ms of stolen softirq time
  EXPECT_GT(p->kernel().cpu(0).softirq_time, 9_ms);
}

TEST(Softirq, RedHawkBudgetCapsIrqContextDrain) {
  // Same scenario on RedHawk: only ~1 ms of budget runs per interrupt
  // exit; the bulk is deferred to ksoftirqd, which CANNOT preempt the FIFO
  // hog. The hog loses a few tick-exit budgets, not the whole 10 ms storm.
  auto p = redhawk_rig(41);
  auto& k = p->kernel();
  p->interrupt_controller().set_affinity(p->nic_device().irq(),
                                         hw::CpuMask::single(0));
  std::vector<sim::Time> marks;
  kernel::Kernel::TaskParams tp;
  tp.name = "rt-hog";
  tp.policy = kernel::SchedPolicy::kFifo;
  tp.rt_priority = 80;
  tp.affinity = hw::CpuMask::single(0);
  spawn_scripted(k, std::move(tp), {kernel::ComputeAction{50_ms, 0.0}}, &marks);
  p->boot();
  p->engine().schedule(5_ms, [&] { p->nic_device().rx(400'000); });
  p->run_for(1_s);
  ASSERT_EQ(marks.size(), 2u);
  const sim::Duration took = marks[1] - marks[0];
  EXPECT_LT(took, 56_ms);
}

TEST(Softirq, DeferredWorkRunsInKsoftirqdWhenCpuFree) {
  auto p = redhawk_rig(42);
  auto& k = p->kernel();
  p->interrupt_controller().set_affinity(p->nic_device().irq(),
                                         hw::CpuMask::single(0));
  p->boot();
  p->nic_device().rx(200'000);
  p->run_for(1_s);
  // All queued softirq work eventually executed (budget part in irq
  // context, remainder in ksoftirqd once the CPU idled).
  EXPECT_EQ(k.cpu(0).softirq.total_pending() +
                k.cpu(1).softirq.total_pending(),
            0u);
  auto* ksoftirqd = k.find_task("ksoftirqd/0");
  ASSERT_NE(ksoftirqd, nullptr);
  EXPECT_GT(ksoftirqd->stime, 3_ms);
}

TEST(Softirq, TaskContextRaiseGoesToKsoftirqd) {
  // Raising softirq work from task context (loopback traffic) must not run
  // inline; ksoftirqd picks it up.
  auto p = vanilla_rig(43);
  auto& k = p->kernel();
  kernel::ProgramBuilder b;
  b.effect([](kernel::Kernel& kk, kernel::Task& t) {
    kk.raise_softirq(t.cpu, kernel::SoftirqType::kNetRx, 2_ms);
  });
  spawn_scripted(k, {.name = "sender", .affinity = hw::CpuMask::single(0)},
                 {kernel::SyscallAction{std::move(b).build()}});
  p->boot();
  p->run_for(1_s);
  auto* ksoftirqd = k.find_task("ksoftirqd/0");
  ASSERT_NE(ksoftirqd, nullptr);
  EXPECT_GT(ksoftirqd->stime, 1_ms);
  EXPECT_EQ(k.cpu(0).softirq.total_pending(), 0u);
}

TEST(Softirq, TimerTickRaisesTimerSoftirq) {
  auto p = vanilla_rig(44);
  p->boot();
  p->run_for(2_s);
  const auto& cs = p->kernel().cpu(0);
  EXPECT_GT(cs.softirq.raise_count(kernel::SoftirqType::kTimer), 100u);
}
