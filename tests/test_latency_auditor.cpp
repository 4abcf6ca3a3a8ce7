// The preempt-off/irq-off latency auditor.
#include <gtest/gtest.h>

#include "kernel/syscalls.h"
#include "kernel_test_util.h"

using namespace testutil;
using namespace sim::literals;

TEST(LatencyAuditor, UnitTransitions) {
  kernel::LatencyAuditor a(2);
  a.irqs_masked(0, 100);
  a.irqs_unmasked(0, 350);
  EXPECT_EQ(a.irq_off(0).count(), 1u);
  EXPECT_EQ(a.irq_off(0).max(), 250u);
  EXPECT_EQ(a.irq_off(1).count(), 0u);
  EXPECT_EQ(a.worst_irq_off(), 250u);

  a.preempt_disabled(1, 1000);
  a.preempt_enabled(1, 6000);
  EXPECT_EQ(a.worst_preempt_off(), 5000u);
}

TEST(LatencyAuditor, SchedLatencySplitsRtFromOther) {
  kernel::LatencyAuditor a(1);
  a.task_scheduled_in(0, 10'000, /*rt=*/true);
  a.task_scheduled_in(0, 50'000, /*rt=*/false);
  EXPECT_EQ(a.rt_sched_latency().count(), 1u);
  EXPECT_EQ(a.rt_sched_latency().max(), 10'000u);
}

TEST(LatencyAuditor, KernelRecordsIrqOffForHandlers) {
  auto p = vanilla_rig(181);
  p->rtc_device().set_rate_hz(64);
  p->boot();
  p->rtc_device().start_periodic();
  p->run_for(1_s);
  // Local timer ticks + RTC handlers all masked interrupts.
  EXPECT_GT(p->kernel().auditor().irq_off(0).count(), 50u);
  // Handler stretches are microseconds, not milliseconds.
  EXPECT_LT(p->kernel().auditor().irq_off(0).percentile(0.5), 50_us);
}

TEST(LatencyAuditor, PreemptOffTracksSectionLengths) {
  auto p = vanilla_rig(182);
  kernel::ProgramBuilder b;
  b.section(kernel::LockId::kFs, 2_ms);
  spawn_scripted(p->kernel(), {.name = "holder"},
                 {kernel::SyscallAction{std::move(b).build()}});
  p->boot();
  p->run_for(1_s);
  // The 2 ms section shows up as the worst preempt-off interval.
  EXPECT_GE(p->kernel().auditor().worst_preempt_off(), 2_ms);
  EXPECT_LT(p->kernel().auditor().worst_preempt_off(), 4_ms);
}

TEST(LatencyAuditor, IrqSafeLockCountsAsIrqOff) {
  auto p = vanilla_rig(183);
  kernel::ProgramBuilder b;
  b.lock(kernel::LockId::kIoRequest).work(1500_us, 0.3).unlock(kernel::LockId::kIoRequest);
  spawn_scripted(p->kernel(), {.name = "holder"},
                 {kernel::SyscallAction{std::move(b).build()}});
  p->boot();
  p->run_for(1_s);
  EXPECT_GE(p->kernel().auditor().worst_irq_off(), 1500_us);
}

TEST(LatencyAuditor, RtSchedLatencyRecordedOnWakeup) {
  auto p = redhawk_rig(184);
  auto& k = p->kernel();
  const auto wq = k.create_wait_queue("w");
  kernel::Kernel::TaskParams tp;
  tp.name = "rt";
  tp.policy = kernel::SchedPolicy::kFifo;
  tp.rt_priority = 90;
  spawn_scripted(k, std::move(tp),
                 {kernel::SyscallAction{
                     kernel::ProgramBuilder{}.block(wq).build()}});
  p->boot();
  p->engine().schedule(50_ms, [&] { k.wake_up_one(wq); });
  p->run_for(1_s);
  EXPECT_GE(k.auditor().rt_sched_latency().count(), 1u);
  // Idle CPU: the wake→run latency is the pick+switch cost, microseconds.
  EXPECT_LT(k.auditor().rt_sched_latency().max(), 50_us);
}

TEST(LatencyAuditor, LowLatencyKernelHasShorterPreemptOffTail) {
  const auto worst_for = [](const config::KernelConfig& cfg,
                            std::uint64_t seed) {
    config::Platform p(config::MachineConfig::dual_p3_xeon_933(), cfg, seed);
    spawn_syscall_loop(p.kernel(), "fsloop", [](kernel::Kernel& kk) {
      return kernel::sys::fs_op(kk, 100_us);
    });
    p.boot();
    p.run_for(5_s);
    return p.kernel().auditor().worst_preempt_off();
  };
  const auto vanilla =
      worst_for(config::KernelConfig::vanilla_2_4_20(), 185);
  const auto redhawk = worst_for(config::KernelConfig::redhawk_1_4(), 185);
  EXPECT_GT(vanilla, redhawk * 2);  // the low-latency patches' entire point
}
