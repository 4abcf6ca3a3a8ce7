// RCIM external edge-triggered interrupt inputs (§4).
#include <gtest/gtest.h>

#include "kernel_test_util.h"
#include "metrics/histogram.h"

using namespace testutil;
using namespace sim::literals;

TEST(RcimExternal, EdgeSetsStatusAndRaisesIrq) {
  auto p = redhawk_rig(131);
  p->boot();
  const auto irqs_before =
      p->interrupt_controller().raise_count(p->rcim_device().irq());
  p->rcim_device().trigger_external(2);
  p->run_for(1_ms);
  EXPECT_EQ(p->interrupt_controller().raise_count(p->rcim_device().irq()),
            irqs_before + 1);
  EXPECT_EQ(p->rcim_device().external_edge_count(2), 1u);
}

TEST(RcimExternal, StatusRegisterIsReadToClear) {
  auto p = redhawk_rig(132);
  p->boot();
  auto& dev = p->rcim_device();
  dev.trigger_external(0);
  dev.trigger_external(3);
  EXPECT_EQ(dev.read_and_clear_external_status(), 0b1001u);
  EXPECT_EQ(dev.read_and_clear_external_status(), 0u);
}

TEST(RcimExternal, WaiterWokenByItsLineOnly) {
  auto p = redhawk_rig(133);
  auto& k = p->kernel();
  std::vector<sim::Time> line0_marks, line1_marks;
  spawn_scripted(k, {.name = "wait0"},
                 {kernel::SyscallAction{
                     p->rcim_driver().external_wait_ioctl_program(0)}},
                 &line0_marks);
  spawn_scripted(k, {.name = "wait1"},
                 {kernel::SyscallAction{
                     p->rcim_driver().external_wait_ioctl_program(1)}},
                 &line1_marks);
  p->boot();
  p->engine().schedule(10_ms, [&] { p->rcim_device().trigger_external(0); });
  p->run_for(1_s);
  // Line 0's waiter completed; line 1's is still blocked.
  ASSERT_EQ(line0_marks.size(), 2u);
  EXPECT_GT(line0_marks[1], 10_ms);
  EXPECT_LT(line0_marks[1], 11_ms);
  EXPECT_EQ(line1_marks.size(), 1u);
}

TEST(RcimExternal, EdgeLatencyOnShieldedCpuIsTensOfMicroseconds) {
  // The paper's motivating use case: an external device interrupt wired
  // into the RCIM, serviced by a shielded CPU.
  auto p = redhawk_rig(134);
  auto& k = p->kernel();
  struct Stats {
    metrics::LatencyHistogram lat;
    int fired = 0;
  };
  auto stats = std::make_shared<Stats>();
  kernel::Kernel::TaskParams tp;
  tp.name = "edge-responder";
  tp.policy = kernel::SchedPolicy::kFifo;
  tp.rt_priority = 95;
  tp.affinity = hw::CpuMask::single(1);
  tp.mlocked = true;
  auto& rcim = p->rcim_device();
  auto& drv = p->rcim_driver();
  auto& rt = workload::spawn(
      k, std::move(tp),
      [stats, &rcim, &drv](kernel::Kernel& kk, kernel::Task&) -> kernel::Action {
        if (stats->fired > 0) {
          stats->lat.add(kk.now() - rcim.last_external_edge(0));
        }
        if (stats->fired >= 200) return kernel::ExitAction{};
        stats->fired++;
        return kernel::SyscallAction{drv.external_wait_ioctl_program(0)};
      });
  p->boot();
  p->shield().dedicate_cpu(1, rt, rcim.irq());
  // Edges every ~3 ms with deterministic spacing.
  for (int i = 1; i <= 250; ++i) {
    p->engine().schedule(static_cast<sim::Duration>(i) * 3_ms,
                         [&rcim] { rcim.trigger_external(0); });
  }
  p->run_for(2_s);
  ASSERT_GT(stats->lat.count(), 100u);
  EXPECT_LT(stats->lat.max(), 60_us);
  EXPECT_GT(stats->lat.min(), 3_us);
}

TEST(RcimExternal, InvalidLineDies) {
  auto p = redhawk_rig(135);
  p->boot();
  EXPECT_DEATH(p->rcim_device().trigger_external(4), "line");
  EXPECT_DEATH(p->rcim_device().trigger_external(-1), "line");
}
