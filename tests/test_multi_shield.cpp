// "One or more shielded CPUs" (§2): multi-CPU shields on a quad machine.
#include <gtest/gtest.h>

#include "kernel_test_util.h"
#include "metrics/histogram.h"
#include "workload/stress_kernel.h"

using namespace testutil;
using namespace sim::literals;

namespace {

std::unique_ptr<config::Platform> quad_rig(std::uint64_t seed = 1) {
  return std::make_unique<config::Platform>(
      config::MachineConfig::quad_p4_xeon_2000_rcim(),
      config::KernelConfig::redhawk_1_4(), seed);
}

}  // namespace

TEST(MultiShield, QuadMachineHasFourCpus) {
  auto p = quad_rig();
  EXPECT_EQ(p->topology().logical_cpus(), 4);  // RedHawk: HT off
}

TEST(MultiShield, TwoCpusShieldedSimultaneously) {
  auto p = quad_rig(161);
  workload::StressKernel{}.install(*p);
  auto& rt2 = spawn_hog(p->kernel(), "rt2", hw::CpuMask::single(2),
                        kernel::SchedPolicy::kFifo, 90);
  auto& rt3 = spawn_hog(p->kernel(), "rt3", hw::CpuMask::single(3),
                        kernel::SchedPolicy::kFifo, 90);
  p->boot();
  p->shield().shield_all(hw::CpuMask(0b1100));
  p->run_for(2_s);
  EXPECT_EQ(rt2.cpu, 2);
  EXPECT_EQ(rt3.cpu, 3);
  // Background tasks confined to CPUs 0-1.
  for (const auto& t : p->kernel().tasks()) {
    if (t.get() == &rt2 || t.get() == &rt3) continue;
    if (t->name.starts_with("ksoftirqd")) continue;
    EXPECT_TRUE(t->effective_affinity.subset_of(hw::CpuMask(0b0011)))
        << t->name;
  }
  // No interrupts delivered to the shielded pair after shielding.
  EXPECT_EQ(p->kernel().cpu(2).hardirqs + p->kernel().cpu(3).hardirqs, 0u);
}

TEST(MultiShield, TaskSpanningBothShieldedCpusAllowed) {
  // Affinity {2,3} ⊆ shield {2,3}: the task may float between the two
  // shielded CPUs (§3's subset rule with a multi-CPU mask).
  auto p = quad_rig(162);
  auto& rt = spawn_hog(p->kernel(), "rt", hw::CpuMask(0b1100),
                       kernel::SchedPolicy::kFifo, 70);
  p->boot();
  p->shield().set_process_shield(hw::CpuMask(0b1100));
  p->run_for(500_ms);
  EXPECT_EQ(rt.effective_affinity, hw::CpuMask(0b1100));
  EXPECT_TRUE(rt.cpu == 2 || rt.cpu == 3);
}

TEST(MultiShield, PartialOverlapTaskLosesShieldedHalf) {
  // Affinity {1,2}, shield {2,3} → effective {1}.
  auto p = quad_rig(163);
  auto& t = spawn_hog(p->kernel(), "half", hw::CpuMask(0b0110));
  p->boot();
  p->shield().set_process_shield(hw::CpuMask(0b1100));
  p->run_for(200_ms);
  EXPECT_EQ(t.effective_affinity, hw::CpuMask(0b0010));
  EXPECT_EQ(t.cpu, 1);
}

TEST(MultiShield, IndependentRtTasksBothMeetLatency) {
  // Two independent RT consumers, each with its own dedicated CPU: the
  // RCIM timer drives one, an external RCIM line drives the other.
  auto p = quad_rig(164);
  workload::StressKernel{}.install(*p);
  auto& k = p->kernel();

  struct Stats {
    metrics::LatencyHistogram lat;
    std::uint64_t n = 0;
  };
  auto s2 = std::make_shared<Stats>();
  auto& rcim = p->rcim_device();
  auto& drv = p->rcim_driver();

  kernel::Kernel::TaskParams tp2;
  tp2.name = "rt-timer";
  tp2.policy = kernel::SchedPolicy::kFifo;
  tp2.rt_priority = 95;
  tp2.affinity = hw::CpuMask::single(2);
  tp2.mlocked = true;
  auto& rt_timer = workload::spawn(
      k, std::move(tp2),
      [s2, &rcim, &drv](kernel::Kernel&, kernel::Task&) -> kernel::Action {
        if (s2->n > 0) s2->lat.add(rcim.elapsed_in_cycle());
        if (s2->n >= 2000) return kernel::ExitAction{};
        s2->n++;
        return kernel::SyscallAction{drv.wait_ioctl_program()};
      });

  auto s3 = std::make_shared<Stats>();
  kernel::Kernel::TaskParams tp3;
  tp3.name = "rt-edge";
  tp3.policy = kernel::SchedPolicy::kFifo;
  tp3.rt_priority = 95;
  tp3.affinity = hw::CpuMask::single(3);
  tp3.mlocked = true;
  workload::spawn(
      k, std::move(tp3),
      [s3, &rcim, &drv](kernel::Kernel& kk, kernel::Task&) -> kernel::Action {
        if (s3->n > 0) s3->lat.add(kk.now() - rcim.last_external_edge(0));
        if (s3->n >= 500) return kernel::ExitAction{};
        s3->n++;
        return kernel::SyscallAction{drv.external_wait_ioctl_program(0)};
      });

  p->boot();
  // RCIM irq may fire on either shielded CPU.
  p->kernel().procfs().write("/proc/irq/5/smp_affinity", "c");  // CPUs 2,3
  (void)rt_timer;
  p->shield().shield_all(hw::CpuMask(0b1100));
  rcim.program_periodic(2'500);
  for (int i = 1; i <= 600; ++i) {
    p->engine().schedule(static_cast<sim::Duration>(i) * 4_ms,
                         [&rcim] { rcim.trigger_external(0); });
  }
  p->run_for(10_s);
  ASSERT_GT(s2->lat.count(), 1000u);
  ASSERT_GT(s3->lat.count(), 300u);
  EXPECT_LT(s2->lat.max(), 100_us);
  EXPECT_LT(s3->lat.max(), 100_us);
}
