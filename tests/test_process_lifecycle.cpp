// fork/exec/exit/wait churn and zombie reaping.
#include <gtest/gtest.h>

#include "kernel/syscalls.h"
#include "kernel_test_util.h"
#include "workload/nfs_compile.h"

using namespace testutil;
using namespace sim::literals;

TEST(ProcessLifecycle, ForkExecCreatesChildInKernelContext) {
  auto p = vanilla_rig(191);
  auto& k = p->kernel();
  kernel::Task* child = nullptr;
  spawn_scripted(
      k, {.name = "parent"},
      {kernel::SyscallAction{kernel::sys::fork_exec(
          k, [&child](kernel::Kernel& k2, kernel::Task&) {
            kernel::Kernel::TaskParams tp;
            tp.name = "child";
            child = &workload::spawn(
                k2, std::move(tp),
                [](kernel::Kernel&, kernel::Task&) -> kernel::Action {
                  return kernel::ExitAction{};
                });
          })}});
  p->boot();
  p->run_for(1_s);
  ASSERT_NE(child, nullptr);
  EXPECT_EQ(child->state, kernel::TaskState::kExited);
  EXPECT_NE(k.find_task("child"), nullptr);  // zombie still listed
}

TEST(ProcessLifecycle, ReapRemovesZombiesAndTheirProcFiles) {
  auto p = vanilla_rig(192);
  auto& k = p->kernel();
  auto& t = spawn_scripted(k, {.name = "shortlived"}, {});  // exits at once
  const std::string stat_path = "/proc/" + std::to_string(t.pid) + "/stat";
  p->boot();
  p->run_for(100_ms);
  ASSERT_EQ(t.state, kernel::TaskState::kExited);
  ASSERT_TRUE(k.procfs().exists(stat_path));
  EXPECT_EQ(k.reap_exited(), 1u);
  EXPECT_FALSE(k.procfs().exists(stat_path));
  EXPECT_EQ(k.find_task("shortlived"), nullptr);
  EXPECT_EQ(k.reap_exited(), 0u);  // idempotent
}

TEST(ProcessLifecycle, ReapSparesLiveTasks) {
  auto p = vanilla_rig(193);
  auto& k = p->kernel();
  spawn_hog(k, "immortal");
  spawn_scripted(k, {.name = "mortal"}, {});
  p->boot();
  p->run_for(100_ms);
  EXPECT_EQ(k.reap_exited(), 1u);
  EXPECT_NE(k.find_task("immortal"), nullptr);
  EXPECT_NE(k.find_task("ksoftirqd/0"), nullptr);
}

TEST(ProcessLifecycle, NfsCompileChurnsProcesses) {
  auto p = vanilla_rig(194);
  workload::NfsCompile{}.install(*p);
  p->boot();
  p->run_for(10_s);
  auto* cc1 = p->kernel().find_task("cc1");
  ASSERT_NE(cc1, nullptr);
  // Steady-state: forked, waited, compiled, repeated. The task list stays
  // bounded because cc1 reaps — far fewer live tasks than total forks.
  auto& probe = spawn_hog(p->kernel(), "probe");
  EXPECT_GT(probe.pid, 30);  // dozens of pids were consumed by gcc children
  EXPECT_LT(p->kernel().tasks().size(), 40u);  // but zombies got reaped
}

TEST(ProcessLifecycle, ChurnIsDeterministic) {
  const auto run = [](std::uint64_t seed) {
    auto p = vanilla_rig(seed);
    workload::NfsCompile{}.install(*p);
    p->boot();
    p->run_for(5_s);
    return p->engine().events_executed();
  };
  EXPECT_EQ(run(195), run(195));
}
