// Edge cases and contract checks across the stack.
#include <gtest/gtest.h>

#include "kernel/syscalls.h"
#include "kernel_test_util.h"

using namespace testutil;
using namespace sim::literals;

TEST(EdgeCases, SchedulingIntoThePastDies) {
  sim::Engine e;
  e.schedule(100_ns, [] {});
  e.run_until(1_us);
  EXPECT_DEATH(e.schedule_at(10, [] {}), "past");
}

TEST(EdgeCases, ZeroWorkOpsAreSkipped) {
  auto p = vanilla_rig(211);
  std::vector<sim::Time> marks;
  kernel::ProgramBuilder b;
  b.work(0, 0.3).work(0, 0.3).work(1_us, 0.3).work(0, 0.3);
  spawn_scripted(p->kernel(), {.name = "t"},
                 {kernel::SyscallAction{std::move(b).build()}},
                 &marks);
  p->boot();
  p->run_for(100_ms);
  ASSERT_EQ(marks.size(), 2u);
  EXPECT_LT(marks[1] - marks[0], 20_us);
}

TEST(EdgeCases, EmptySyscallProgramCompletes) {
  auto p = vanilla_rig(212);
  std::vector<sim::Time> marks;
  spawn_scripted(p->kernel(), {.name = "t"},
                 {kernel::SyscallAction{kernel::KernelProgram{}}},
                 &marks);
  p->boot();
  p->run_for(100_ms);
  ASSERT_EQ(marks.size(), 2u);  // entry+exit costs only
}

TEST(EdgeCases, UnlockByNonHolderDies) {
  auto p = vanilla_rig(213);
  kernel::ProgramBuilder b;
  b.unlock(kernel::LockId::kFs);
  spawn_scripted(p->kernel(), {.name = "bad"},
                 {kernel::SyscallAction{std::move(b).build()}});
  p->boot();
  EXPECT_DEATH(p->run_for(100_ms), "non-holder");
}

TEST(EdgeCases, SyscallExitHoldingLockDies) {
  auto p = vanilla_rig(214);
  kernel::ProgramBuilder b;
  b.lock(kernel::LockId::kFs);  // never unlocked
  spawn_scripted(p->kernel(), {.name = "leaker"},
                 {kernel::SyscallAction{std::move(b).build()}});
  p->boot();
  EXPECT_DEATH(p->run_for(100_ms), "holding");
}

TEST(EdgeCases, WakeOnEmptyQueueIsLost) {
  auto p = vanilla_rig(215);
  auto& k = p->kernel();
  const auto wq = k.create_wait_queue("lonely");
  p->boot();
  k.wake_up_one(wq);  // nobody waiting: must be a harmless no-op
  k.wake_up_all(wq);
  p->run_for(10_ms);
  EXPECT_TRUE(k.wait_queue(wq).empty());
}

TEST(EdgeCases, WakeUpAllWakesEveryWaiter) {
  auto p = vanilla_rig(216);
  auto& k = p->kernel();
  const auto wq = k.create_wait_queue("herd");
  std::vector<sim::Time> m1, m2, m3;
  for (auto* m : {&m1, &m2, &m3}) {
    spawn_scripted(k, {.name = "w"},
                   {kernel::SyscallAction{
                       kernel::ProgramBuilder{}.block(wq).build()}},
                   m);
  }
  p->boot();
  p->engine().schedule(20_ms, [&] { k.wake_up_all(wq); });
  p->run_for(1_s);
  EXPECT_EQ(m1.size(), 2u);
  EXPECT_EQ(m2.size(), 2u);
  EXPECT_EQ(m3.size(), 2u);
}

TEST(EdgeCases, RtcPathSurvivesBackToBackReads) {
  // Reads faster than the interrupt rate just block longer; nothing leaks.
  auto p = vanilla_rig(217);
  auto& k = p->kernel();
  p->rtc_device().set_rate_hz(8192);  // max hardware rate
  auto count = std::make_shared<int>(0);
  workload::spawn(k, {.name = "fastreader"},
                  [count, &p](kernel::Kernel&, kernel::Task&) -> kernel::Action {
                    if (++*count > 3000) return kernel::ExitAction{};
                    return kernel::SyscallAction{
                        p->rtc_driver().read_program()};
                  });
  p->boot();
  p->rtc_device().start_periodic();
  p->run_for(2_s);
  EXPECT_GT(*count, 3000);
}

TEST(EdgeCases, ShieldMaskClippedToMachine) {
  auto p = redhawk_rig(218);
  p->boot();
  // Writing a mask with nonexistent CPUs clips to the machine.
  p->shield().set_process_shield(hw::CpuMask(0xFF));
  EXPECT_EQ(p->shield().process_shield(), p->topology().all_cpus());
  p->shield().unshield_all();
}

TEST(EdgeCases, FullMachineShieldKeepsPinnedTasksRunnable) {
  // Shielding EVERY CPU: ordinary tasks' affinity (all CPUs) is a subset of
  // the shield, so by §3 they keep their mask — nothing is stranded.
  auto p = redhawk_rig(219);
  auto& t = spawn_hog(p->kernel(), "bg");
  p->boot();
  p->shield().set_process_shield(p->topology().all_cpus());
  p->run_for(100_ms);
  EXPECT_FALSE(t.effective_affinity.empty());
  EXPECT_GT(t.utime, 0u);
}

TEST(EdgeCases, TimesliceSurvivesManyShortSleeps) {
  // Rapid sleep/wake cycling must not corrupt scheduler state.
  auto p = redhawk_rig(220);
  auto count = std::make_shared<int>(0);
  workload::spawn(p->kernel(), {.name = "napper"},
                  [count](kernel::Kernel&, kernel::Task&) -> kernel::Action {
                    if (++*count > 2000) return kernel::ExitAction{};
                    return kernel::SleepAction{500_us};
                  });
  p->boot();
  p->run_for(5_s);
  EXPECT_GT(*count, 2000);
}
