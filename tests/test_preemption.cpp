// The preemption taxonomy (§6): user code is always preemptible; on
// vanilla 2.4 a syscall runs to completion before a woken RT task can take
// the CPU; the preemption patch allows preemption except inside critical
// sections.
#include <gtest/gtest.h>

#include "kernel_test_util.h"

using namespace testutil;
using namespace sim::literals;

namespace {

/// Measure how long a top-priority task, woken at a chosen instant, waits
/// before it actually runs on a machine busy with `busy_program` loops on
/// both CPUs.
sim::Duration wake_latency(config::Platform& p,
                           std::function<kernel::KernelProgram(kernel::Kernel&)>
                               make_busy_program,
                           sim::Duration wake_after) {
  auto& k = p.kernel();
  spawn_syscall_loop(k, "busy0", make_busy_program, hw::CpuMask::single(0));
  spawn_syscall_loop(k, "busy1", make_busy_program, hw::CpuMask::single(1));

  // RT task: blocks on a wait queue, then stamps the time it runs.
  std::vector<sim::Time> marks;
  const auto wq = k.create_wait_queue("test");
  kernel::Kernel::TaskParams tp;
  tp.name = "rt";
  tp.policy = kernel::SchedPolicy::kFifo;
  tp.rt_priority = 90;
  spawn_scripted(k, std::move(tp),
                 {kernel::SyscallAction{
                     kernel::ProgramBuilder{}.block(wq).build()}},
                 &marks);

  p.boot();
  sim::Time woke_at = 0;
  p.engine().schedule(wake_after, [&] {
    woke_at = k.now();
    k.wake_up_one(wq);
  });
  p.run_for(wake_after + 5_s);

  // marks: [t0 start, t1 after wait syscall completed]
  if (marks.size() < 2 || woke_at == 0) return ~sim::Duration{0};
  return marks[1] - woke_at;
}

}  // namespace

TEST(Preemption, UserModeCurrentIsPreemptedImmediately) {
  auto p = vanilla_rig(21);
  auto& k = p->kernel();
  spawn_hog(k, "user0", hw::CpuMask::single(0));
  spawn_hog(k, "user1", hw::CpuMask::single(1));

  std::vector<sim::Time> marks;
  kernel::Kernel::TaskParams tp;
  tp.name = "rt";
  tp.policy = kernel::SchedPolicy::kFifo;
  tp.rt_priority = 90;
  const auto wq = k.create_wait_queue("test");
  spawn_scripted(k, std::move(tp),
                 {kernel::SyscallAction{
                     kernel::ProgramBuilder{}.block(wq).build()}},
                 &marks);
  p->boot();
  sim::Time woke_at = 0;
  p->engine().schedule(50_ms, [&] {
    woke_at = k.now();
    k.wake_up_one(wq);
  });
  p->run_for(1_s);
  ASSERT_EQ(marks.size(), 2u);
  // Preempting a user-mode hog costs only a context switch: microseconds.
  EXPECT_LT(marks[1] - woke_at, 30_us);
}

TEST(Preemption, VanillaWaitsForSyscallCompletion) {
  // Busy tasks run 5 ms non-preemptible syscalls back to back. On vanilla,
  // an RT wake must wait for the remainder — milliseconds.
  auto p = vanilla_rig(22);
  const auto lat = wake_latency(
      *p,
      [](kernel::Kernel&) {
        return kernel::ProgramBuilder{}.work(5_ms, 0.3).build();
      },
      53_ms + 137_us /* land mid-syscall */);
  EXPECT_GT(lat, 300_us);
  EXPECT_LT(lat, 7_ms);
}

TEST(Preemption, PreemptKernelInterruptsSyscallBody) {
  // Same busy pattern on a preemptible kernel: the body is interruptible,
  // so the RT task runs within tens of microseconds.
  auto p = std::make_unique<config::Platform>(
      config::MachineConfig::dual_p3_xeon_933(),
      config::KernelConfig::patched_preempt_lowlat(), 22);
  const auto lat = wake_latency(
      *p,
      [](kernel::Kernel&) {
        return kernel::ProgramBuilder{}.work(5_ms, 0.3).build();
      },
      53_ms + 137_us);
  EXPECT_LT(lat, 50_us);
}

namespace {

/// Deterministic single-CPU scenario: one busy task pinned to CPU 0 runs a
/// single long syscall built by `make_program`; the RT task (also pinned to
/// CPU 0) is woken `wake_at` into the run. Returns (rt_ran_at - woke_at)
/// and the busy task's syscall window via out-params.
sim::Duration pinned_wake_latency(config::Platform& p,
                                  kernel::KernelProgram program,
                                  sim::Duration wake_at,
                                  sim::Time* busy_start = nullptr,
                                  sim::Time* busy_end = nullptr) {
  auto& k = p.kernel();
  std::vector<sim::Time> busy_marks;
  spawn_scripted(k, {.name = "busy", .affinity = hw::CpuMask::single(0)},
                 {kernel::SyscallAction{std::move(program)}},
                 &busy_marks);
  std::vector<sim::Time> rt_marks;
  kernel::Kernel::TaskParams tp;
  tp.name = "rt";
  tp.policy = kernel::SchedPolicy::kFifo;
  tp.rt_priority = 90;
  tp.affinity = hw::CpuMask::single(0);
  const auto wq = k.create_wait_queue("test");
  spawn_scripted(k, std::move(tp),
                 {kernel::SyscallAction{
                     kernel::ProgramBuilder{}.block(wq).build()}},
                 &rt_marks);
  p.boot();
  sim::Time woke_at = 0;
  p.engine().schedule(wake_at, [&] {
    woke_at = k.now();
    k.wake_up_one(wq);
  });
  p.run_for(5_s);
  if (busy_marks.size() >= 2) {
    if (busy_start != nullptr) *busy_start = busy_marks[0];
    if (busy_end != nullptr) *busy_end = busy_marks[1];
  }
  if (rt_marks.size() < 2 || woke_at == 0) return ~sim::Duration{0};
  return rt_marks[1] - woke_at;
}

}  // namespace

TEST(Preemption, CriticalSectionDefersPreemptionUntilItsEnd) {
  // Preempt kernel; the busy task holds a lock from ~0 to ~20 ms and then
  // does 20 ms of preemptible work. The wake at 5 ms must wait for the
  // section end (~15 ms more) but NOT for the whole syscall.
  auto p = std::make_unique<config::Platform>(
      config::MachineConfig::dual_p3_xeon_933(),
      config::KernelConfig::patched_preempt_lowlat(), 23);
  const auto lat = pinned_wake_latency(
      *p,
      kernel::ProgramBuilder{}
          .section(kernel::LockId::kFs, 20_ms)
          .work(20_ms, 0.3)
          .build(),
      5_ms);
  EXPECT_GT(lat, 10_ms);  // waited for the section
  EXPECT_LT(lat, 17_ms);  // but not for the trailing 20 ms of body
}

TEST(Preemption, ExplicitPreemptDisableAlsoDefers) {
  auto p = std::make_unique<config::Platform>(
      config::MachineConfig::dual_p3_xeon_933(),
      config::KernelConfig::patched_preempt_lowlat(), 24);
  const auto lat = pinned_wake_latency(
      *p,
      kernel::ProgramBuilder{}.preempt_off(20_ms).work(20_ms, 0.3).build(),
      5_ms);
  EXPECT_GT(lat, 10_ms);
  EXPECT_LT(lat, 17_ms);
}

TEST(Preemption, NeedReschedHandledAtSyscallExit) {
  // Vanilla: RT woken mid-syscall runs exactly when the syscall finishes.
  auto p = vanilla_rig(25);
  auto& k = p->kernel();
  // One busy task pinned to CPU 0 doing a single long syscall.
  std::vector<sim::Time> busy_marks;
  kernel::ProgramBuilder b;
  b.work(20_ms, 0.0);
  spawn_scripted(k, {.name = "busy", .affinity = hw::CpuMask::single(0)},
                 {kernel::SyscallAction{std::move(b).build()}},
                 &busy_marks);
  // RT task pinned to the same CPU, woken 5 ms into the syscall.
  std::vector<sim::Time> rt_marks;
  kernel::Kernel::TaskParams tp;
  tp.name = "rt";
  tp.policy = kernel::SchedPolicy::kFifo;
  tp.rt_priority = 90;
  tp.affinity = hw::CpuMask::single(0);
  const auto wq = k.create_wait_queue("test");
  spawn_scripted(k, std::move(tp),
                 {kernel::SyscallAction{
                     kernel::ProgramBuilder{}.block(wq).build()}},
                 &rt_marks);
  p->boot();
  p->engine().schedule(5_ms, [&] { k.wake_up_one(wq); });
  p->run_for(1_s);
  ASSERT_EQ(rt_marks.size(), 2u);
  ASSERT_EQ(busy_marks.size(), 2u);
  // The RT task ran only after the busy syscall finished (~20 ms mark),
  // i.e. it waited ~15 ms even though it was top priority.
  EXPECT_GT(rt_marks[1], busy_marks[0] + 20_ms);
  EXPECT_LT(rt_marks[1], busy_marks[1] + 1_ms);
}

TEST(Preemption, TimesliceExpiryRotatesEqualPriorityOther) {
  auto p = vanilla_rig(26);
  auto& k = p->kernel();
  const auto one = hw::CpuMask::single(0);
  auto& a = spawn_hog(k, "a", one);
  auto& b = spawn_hog(k, "b", one);
  p->boot();
  p->run_for(3_s);
  const double ratio = static_cast<double>(a.utime) /
                       static_cast<double>(b.utime == 0 ? 1 : b.utime);
  EXPECT_GT(ratio, 0.5);
  EXPECT_LT(ratio, 2.0);
}
