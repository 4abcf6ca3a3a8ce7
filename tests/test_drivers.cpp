// Driver behaviour: RTC read path, RCIM ioctl path (and its BKL
// interaction), NIC softirq conversion, disk completion wakeups, GPU.
#include <gtest/gtest.h>

#include "kernel/syscalls.h"
#include "kernel_test_util.h"

using namespace testutil;
using namespace sim::literals;

TEST(RtcDriver, ReadBlocksUntilInterrupt) {
  auto p = vanilla_rig(71);
  auto& k = p->kernel();
  p->rtc_device().set_rate_hz(64);  // 15.625 ms period
  std::vector<sim::Time> marks;
  spawn_scripted(k, {.name = "reader"},
                 {kernel::SyscallAction{p->rtc_driver().read_program()}},
                 &marks);
  p->boot();
  p->rtc_device().start_periodic();
  p->run_for(1_s);
  ASSERT_EQ(marks.size(), 2u);
  // The read returned just after the first RTC interrupt (~15.6 ms).
  EXPECT_GE(marks[1], 15'625_us);
  EXPECT_LT(marks[1], 16_ms);
}

TEST(RtcDriver, WakesAllReaders) {
  auto p = vanilla_rig(72);
  auto& k = p->kernel();
  p->rtc_device().set_rate_hz(64);
  std::vector<sim::Time> m1, m2;
  spawn_scripted(k, {.name = "r1"},
                 {kernel::SyscallAction{p->rtc_driver().read_program()}},
                 &m1);
  spawn_scripted(k, {.name = "r2"},
                 {kernel::SyscallAction{p->rtc_driver().read_program()}},
                 &m2);
  p->boot();
  p->rtc_device().start_periodic();
  p->run_for(1_s);
  ASSERT_EQ(m1.size(), 2u);
  ASSERT_EQ(m2.size(), 2u);
  EXPECT_LT(m1[1], 17_ms);
  EXPECT_LT(m2[1], 17_ms);
}

TEST(RcimDriver, RequiresKernelWithDriver) {
  // Vanilla has no RCIM driver; constructing one must die loudly.
  config::Platform p(config::MachineConfig::dual_p4_xeon_2000_rcim(),
                     config::KernelConfig::vanilla_2_4_20(), 1);
  EXPECT_FALSE(p.has_rcim());  // device not even instantiated without driver
}

TEST(RcimDriver, IoctlWaitsForTimer) {
  auto p = redhawk_rig(73);
  auto& k = p->kernel();
  std::vector<sim::Time> marks;
  spawn_scripted(k, {.name = "waiter"},
                 {kernel::SyscallAction{p->rcim_driver().wait_ioctl_program()}},
                 &marks);
  p->boot();
  p->rcim_device().program_periodic(2500);  // 1 ms
  p->run_for(1_s);
  ASSERT_EQ(marks.size(), 2u);
  EXPECT_GE(marks[1], 1_ms);
  EXPECT_LT(marks[1], 1_ms + 100_us);
}

TEST(RcimDriver, SkipsBklWithFlagSupport) {
  // RedHawk honours the multithreaded-driver flag: the wait program must
  // not contain a BKL acquisition.
  auto p = redhawk_rig(74);
  const auto prog = p->rcim_driver().wait_ioctl_program();
  bool takes_bkl = false;
  for (const auto& op : prog) {
    if (const auto* l = std::get_if<kernel::OpLock>(&op)) {
      if (l->lock == kernel::LockId::kBkl) takes_bkl = true;
    }
  }
  EXPECT_FALSE(takes_bkl);
}

TEST(IoctlLayer, TakesBklWithoutFlagSupport) {
  auto p = vanilla_rig(75);
  const auto prog = kernel::sys::ioctl_op(
      p->kernel(), /*driver_multithreaded_flag=*/true,
      kernel::ProgramBuilder{}.work(1_us, 0.3).build());
  int bkl_locks = 0;
  for (const auto& op : prog) {
    if (const auto* l = std::get_if<kernel::OpLock>(&op)) {
      if (l->lock == kernel::LockId::kBkl) ++bkl_locks;
    }
  }
  // Vanilla has no per-driver flag: BKL wraps every ioctl.
  EXPECT_EQ(bkl_locks, 1);
}

TEST(IoctlLayer, TakesBklWhenDriverNotMultithreaded) {
  auto p = redhawk_rig(76);
  const auto prog = kernel::sys::ioctl_op(
      p->kernel(), /*driver_multithreaded_flag=*/false,
      kernel::ProgramBuilder{}.work(1_us, 0.3).build());
  int bkl_locks = 0;
  for (const auto& op : prog) {
    if (const auto* l = std::get_if<kernel::OpLock>(&op)) {
      if (l->lock == kernel::LockId::kBkl) ++bkl_locks;
    }
  }
  EXPECT_EQ(bkl_locks, 1);
}

TEST(NicDriver, ConvertsRxBytesToSoftirqWork) {
  auto p = vanilla_rig(77);
  p->interrupt_controller().set_affinity(p->nic_device().irq(),
                                         hw::CpuMask::single(0));
  p->boot();
  p->nic_device().rx(10'000);
  p->run_for(100_ms);
  const auto& cs = p->kernel().cpu(0);
  EXPECT_EQ(cs.softirq.raise_count(kernel::SoftirqType::kNetRx), 1u);
  EXPECT_GT(p->nic_driver().rx_interrupts(), 0u);
}

TEST(NicDriver, WakesBlockedReceiver) {
  auto p = vanilla_rig(78);
  auto& k = p->kernel();
  std::vector<sim::Time> marks;
  spawn_scripted(
      k, {.name = "recv"},
      {kernel::SyscallAction{
          kernel::sys::socket_recv(k, p->nic_driver().rx_wait_queue())}},
      &marks);
  p->boot();
  p->engine().schedule(20_ms, [&] { p->nic_device().rx(1500); });
  p->run_for(1_s);
  ASSERT_EQ(marks.size(), 2u);
  EXPECT_GT(marks[1], 20_ms);
  EXPECT_LT(marks[1], 25_ms);
}

TEST(DiskDriver, CompletionWakesSubmitter) {
  auto p = vanilla_rig(79);
  auto& k = p->kernel();
  auto& drv = p->disk_driver();
  const auto io_wq = k.create_wait_queue("io");
  std::vector<sim::Time> marks;
  spawn_scripted(k, {.name = "writer"},
                 {kernel::SyscallAction{
                     kernel::sys::fs_io(
                         k, 50_us,
                         [&drv, io_wq](kernel::Kernel&, kernel::Task&) {
                           drv.submit(8192, true, io_wq);
                         },
                         io_wq)}},
                 &marks);
  p->boot();
  p->run_for(1_s);
  ASSERT_EQ(marks.size(), 2u);
  EXPECT_GT(marks[1], 100_us);  // waited for mechanical latency
  EXPECT_LT(marks[1], 100_ms);
  EXPECT_EQ(drv.completions(), 1u);
}

TEST(DiskDriver, CompletionRaisesBlockSoftirq) {
  auto p = vanilla_rig(80);
  auto& k = p->kernel();
  p->interrupt_controller().set_affinity(p->disk_device().irq(),
                                         hw::CpuMask::single(0));
  const auto io_wq = k.create_wait_queue("io");
  p->boot();
  p->disk_driver().submit(4096, false, io_wq);
  p->run_for(200_ms);
  EXPECT_GE(k.cpu(0).softirq.raise_count(kernel::SoftirqType::kBlock), 1u);
}

TEST(GpuDriver, CompletionWakesSubmitter) {
  auto p = vanilla_rig(81);
  auto& k = p->kernel();
  auto& gpu = p->gpu_device();
  std::vector<sim::Time> marks;
  kernel::ProgramBuilder b;
  b.work(2_us, 0.4)
      .effect([&gpu](kernel::Kernel&, kernel::Task&) { gpu.submit_batch(50); })
      .block(p->gpu_driver().completion_queue());
  spawn_scripted(k, {.name = "X"},
                 {kernel::SyscallAction{std::move(b).build()}}, &marks);
  p->boot();
  p->run_for(1_s);
  ASSERT_EQ(marks.size(), 2u);
  EXPECT_GT(marks[1], 50_us);
  EXPECT_LT(marks[1], 10_ms);
}
