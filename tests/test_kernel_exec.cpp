// Core execution semantics: tasks, syscalls, sleeping, accounting, and the
// preemption rules that define the paper's latency taxonomy.
#include <gtest/gtest.h>

#include "kernel_test_util.h"

using namespace testutil;
using namespace sim::literals;

TEST(KernelExec, ComputeActionTakesAboutItsWork) {
  auto p = vanilla_rig();
  std::vector<sim::Time> marks;
  spawn_scripted(p->kernel(), {.name = "t"},
                 {kernel::ComputeAction{10_ms, 0.0}}, &marks);
  p->boot();
  p->run_for(1_s);
  ASSERT_EQ(marks.size(), 2u);  // start + end-of-compute
  const sim::Duration took = marks[1] - marks[0];
  EXPECT_GE(took, 10_ms);
  EXPECT_LT(took, 13_ms);  // small dilation + tick interference only
}

TEST(KernelExec, TaskExitsAndCpuGoesIdle) {
  auto p = vanilla_rig();
  auto& t = spawn_scripted(p->kernel(), {.name = "t"},
                           {kernel::ComputeAction{1_ms, 0.0}});
  p->boot();
  p->run_for(1_s);
  EXPECT_EQ(t.state, kernel::TaskState::kExited);
  EXPECT_TRUE(p->kernel().cpu_idle(0) || p->kernel().cpu_idle(1));
}

TEST(KernelExec, SyscallProgramRunsToCompletion) {
  auto p = vanilla_rig();
  bool effect_ran = false;
  kernel::ProgramBuilder b;
  b.work(5_us, 0.3)
      .section(kernel::LockId::kFs, 2_us)
      .effect([&](kernel::Kernel&, kernel::Task&) { effect_ran = true; });
  std::vector<sim::Time> marks;
  auto& t = spawn_scripted(
      p->kernel(), {.name = "t"},
      {kernel::SyscallAction{std::move(b).build()}}, &marks);
  p->boot();
  p->run_for(1_s);
  EXPECT_TRUE(effect_ran);
  EXPECT_EQ(t.syscalls, 1u);
  EXPECT_EQ(t.state, kernel::TaskState::kExited);
}

TEST(KernelExec, SleepRoundsUpToTickWithoutPosixTimers) {
  auto p = vanilla_rig();
  ASSERT_FALSE(p->kernel_config().posix_timers);
  std::vector<sim::Time> marks;
  spawn_scripted(p->kernel(), {.name = "t"}, {kernel::SleepAction{3_ms}},
                 &marks);
  p->boot();
  p->run_for(1_s);
  ASSERT_EQ(marks.size(), 2u);
  // 3 ms rounds up to the 10 ms tick quantum.
  EXPECT_GE(marks[1] - marks[0], 10_ms);
  EXPECT_LT(marks[1] - marks[0], 12_ms);
}

TEST(KernelExec, SleepIsPreciseWithPosixTimers) {
  auto p = redhawk_rig();
  ASSERT_TRUE(p->kernel_config().posix_timers);
  std::vector<sim::Time> marks;
  spawn_scripted(p->kernel(), {.name = "t"}, {kernel::SleepAction{3_ms}},
                 &marks);
  p->boot();
  p->run_for(1_s);
  ASSERT_EQ(marks.size(), 2u);
  EXPECT_GE(marks[1] - marks[0], 3_ms);
  EXPECT_LT(marks[1] - marks[0], 3_ms + 200_us);
}

TEST(KernelExec, UtimeStimeAccounting) {
  auto p = vanilla_rig();
  kernel::ProgramBuilder b;
  b.work(5_ms, 0.3);
  auto& t = spawn_scripted(p->kernel(), {.name = "t"},
                           {kernel::ComputeAction{20_ms, 0.0},
                            kernel::SyscallAction{std::move(b).build()}});
  p->boot();
  p->run_for(1_s);
  EXPECT_GE(t.utime, 20_ms);
  EXPECT_LT(t.utime, 25_ms);
  EXPECT_GE(t.stime, 5_ms);
  EXPECT_LT(t.stime, 8_ms);
}

TEST(KernelExec, TimerTicksInterruptComputation) {
  // A 100 ms compute stretch on a ticking CPU is hit by ~10 local timer
  // interrupts; wall time must exceed pure work by the tick costs.
  auto p = vanilla_rig();
  std::vector<sim::Time> marks;
  spawn_scripted(p->kernel(), {.name = "t", .affinity = hw::CpuMask::single(0)},
                 {kernel::ComputeAction{100_ms, 0.0}}, &marks);
  p->boot();
  p->run_for(1_s);
  ASSERT_EQ(marks.size(), 2u);
  EXPECT_GT(marks[1] - marks[0], 100_ms + 10_us);
  EXPECT_GT(p->kernel().cpu(0).hardirqs, 5u);
}

TEST(KernelExec, TwoTasksShareOneCpuViaTimeslices) {
  auto p = vanilla_rig();
  const auto one = hw::CpuMask::single(0);
  auto& a = spawn_hog(p->kernel(), "a", one);
  auto& b = spawn_hog(p->kernel(), "b", one);
  p->boot();
  p->run_for(2_s);
  // Both made progress — rotation happened.
  EXPECT_GT(a.utime, 400_ms);
  EXPECT_GT(b.utime, 400_ms);
  EXPECT_GT(a.ctx_switches, 2u);
}

TEST(KernelExec, FifoBeatsOtherOnSameCpu) {
  auto p = vanilla_rig();
  const auto one = hw::CpuMask::single(0);
  auto& rt = spawn_hog(p->kernel(), "rt", one, kernel::SchedPolicy::kFifo, 50);
  auto& other = spawn_hog(p->kernel(), "other", one);
  p->boot();
  p->run_for(1_s);
  EXPECT_GT(rt.utime, 900_ms);
  EXPECT_LT(other.utime, 10_ms);
}

TEST(KernelExec, HigherFifoPriorityWins) {
  auto p = vanilla_rig();
  const auto one = hw::CpuMask::single(0);
  auto& hi = spawn_hog(p->kernel(), "hi", one, kernel::SchedPolicy::kFifo, 90);
  auto& lo = spawn_hog(p->kernel(), "lo", one, kernel::SchedPolicy::kFifo, 10);
  p->boot();
  p->run_for(1_s);
  EXPECT_GT(hi.utime, 900_ms);
  EXPECT_EQ(lo.utime, 0u);
}

TEST(KernelExec, AffinityConfinesTask) {
  auto p = vanilla_rig();
  auto& t = spawn_hog(p->kernel(), "pinned", hw::CpuMask::single(1));
  p->boot();
  p->run_for(500_ms);
  EXPECT_EQ(t.cpu, 1);
  EXPECT_EQ(t.migrations, 0u);
}

TEST(KernelExec, SchedSetaffinityMovesRunningTask) {
  auto p = vanilla_rig();
  auto& t = spawn_hog(p->kernel(), "mover", hw::CpuMask::single(0));
  p->boot();
  p->run_for(100_ms);
  EXPECT_EQ(t.cpu, 0);
  EXPECT_TRUE(p->kernel().sched_setaffinity(t, hw::CpuMask::single(1)));
  p->run_for(100_ms);
  EXPECT_EQ(t.cpu, 1);
}

TEST(KernelExec, SchedSetaffinityRejectsEmptyMask) {
  auto p = vanilla_rig();
  auto& t = spawn_hog(p->kernel(), "t");
  p->boot();
  EXPECT_FALSE(p->kernel().sched_setaffinity(t, hw::CpuMask::none()));
  EXPECT_FALSE(p->kernel().sched_setaffinity(t, hw::CpuMask(0b100)));  // no CPU 2
}

TEST(KernelExec, SetPolicyPromotesTask) {
  auto p = vanilla_rig();
  const auto one = hw::CpuMask::single(0);
  auto& a = spawn_hog(p->kernel(), "a", one);
  auto& b = spawn_hog(p->kernel(), "b", one);
  p->boot();
  p->run_for(200_ms);
  p->kernel().set_policy(b, kernel::SchedPolicy::kFifo, 50);
  const auto a_before = a.utime;
  p->run_for(500_ms);
  // b now monopolises the CPU.
  EXPECT_LT(a.utime - a_before, 20_ms);
}

TEST(KernelExec, KsoftirqdSpawnedPerCpu) {
  auto p = vanilla_rig();
  p->boot();
  EXPECT_NE(p->kernel().find_task("ksoftirqd/0"), nullptr);
  EXPECT_NE(p->kernel().find_task("ksoftirqd/1"), nullptr);
  EXPECT_EQ(p->kernel().find_task("ksoftirqd/2"), nullptr);
}

TEST(KernelExec, TasksCreatedAfterBootRun) {
  auto p = vanilla_rig();
  p->boot();
  p->run_for(10_ms);
  std::vector<sim::Time> marks;
  spawn_scripted(p->kernel(), {.name = "late"},
                 {kernel::ComputeAction{1_ms, 0.0}}, &marks);
  p->run_for(100_ms);
  ASSERT_EQ(marks.size(), 2u);
  EXPECT_GE(marks[0], 10_ms);
}

TEST(KernelExec, FindTaskByPidAndName) {
  auto p = vanilla_rig();
  auto& t = spawn_hog(p->kernel(), "needle");
  EXPECT_EQ(p->kernel().find_task("needle"), &t);
  EXPECT_EQ(p->kernel().find_task(t.pid), &t);
  EXPECT_EQ(p->kernel().find_task("missing"), nullptr);
  EXPECT_EQ(p->kernel().find_task(9999), nullptr);
}
