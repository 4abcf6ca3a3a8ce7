// Cross-configuration semantics matrix: the same mixed scenario runs under
// every (kernel preset × shield state) combination, and the execution
// invariants must hold in all of them. Complements the fuzz tests with a
// deterministic, structured scenario.
#include <gtest/gtest.h>

#include <tuple>

#include "kernel/syscalls.h"
#include "kernel_test_util.h"
#include "workload/disk_noise.h"
#include "workload/ttcp.h"

using namespace testutil;
using namespace sim::literals;

namespace {

enum class KernelKind { kVanilla, kPreemptLowlat, kRedHawk };
enum class ShieldKind { kNone, kFull };

struct MatrixParams {
  KernelKind kernel;
  ShieldKind shield;
};

config::KernelConfig config_for(KernelKind k) {
  switch (k) {
    case KernelKind::kVanilla: return config::KernelConfig::vanilla_2_4_20();
    case KernelKind::kPreemptLowlat:
      return config::KernelConfig::patched_preempt_lowlat();
    case KernelKind::kRedHawk: return config::KernelConfig::redhawk_1_4();
  }
  return config::KernelConfig::vanilla_2_4_20();
}

class SemanticsMatrix : public ::testing::TestWithParam<MatrixParams> {};

}  // namespace

TEST_P(SemanticsMatrix, ScenarioRunsCleanlyEverywhere) {
  const auto [kind, shield_kind] = GetParam();
  auto kcfg = config_for(kind);
  const bool can_shield = kcfg.shield_support;
  if (shield_kind == ShieldKind::kFull && !can_shield) {
    GTEST_SKIP() << "kernel has no shield support";
  }

  config::Platform p(config::MachineConfig::dual_p3_xeon_933(), kcfg, 777);
  workload::DiskNoise{}.install(p);
  workload::TtcpLoopback{}.install(p);

  // An RT consumer fed by the RTC at 256 Hz.
  auto& k = p.kernel();
  p.rtc_device().set_rate_hz(256);
  auto consumed = std::make_shared<int>(0);
  kernel::Kernel::TaskParams tp;
  tp.name = "consumer";
  tp.policy = kernel::SchedPolicy::kFifo;
  tp.rt_priority = 88;
  tp.mlocked = true;
  if (shield_kind == ShieldKind::kFull) tp.affinity = hw::CpuMask::single(1);
  auto& rt = workload::spawn(
      k, std::move(tp),
      [consumed, &p](kernel::Kernel&, kernel::Task&) -> kernel::Action {
        (*consumed)++;
        return kernel::SyscallAction{p.rtc_driver().read_program()};
      });

  p.boot();
  if (shield_kind == ShieldKind::kFull) {
    p.shield().dedicate_cpu(1, rt, p.rtc_device().irq());
  }
  p.rtc_device().start_periodic();
  p.run_for(5_s);

  // 1. The RT consumer kept pace with the interrupt source.
  EXPECT_GT(*consumed, 1200);  // ~1280 expected at 256 Hz
  // 2. Background progressed too (no starvation of the whole system).
  auto* dn = k.find_task("disknoise");
  ASSERT_NE(dn, nullptr);
  EXPECT_GT(dn->syscalls, 50u);
  // 3. Lock discipline held.
  for (const auto& t : k.tasks()) {
    if (!t->in_syscall) {
      EXPECT_EQ(t->preempt_count, 0) << t->name;
      EXPECT_EQ(t->bkl_depth, 0) << t->name;
    }
  }
  // 4. Shielded runs kept the RT task home and interrupt-free CPUs clean.
  if (shield_kind == ShieldKind::kFull) {
    EXPECT_EQ(rt.cpu, 1);
    EXPECT_EQ(rt.migrations, 0u);
  }
  // 5. mlocked RT task never faulted.
  EXPECT_EQ(rt.minor_faults, 0u);
  // 6. Sane accounting everywhere.
  for (const auto& t : k.tasks()) {
    EXPECT_LE(t->utime + t->stime, p.engine().now() + 1_ms) << t->name;
  }
}

TEST_P(SemanticsMatrix, DeterministicAcrossReruns) {
  const auto [kind, shield_kind] = GetParam();
  auto kcfg = config_for(kind);
  if (shield_kind == ShieldKind::kFull && !kcfg.shield_support) {
    GTEST_SKIP();
  }
  const auto run = [&] {
    config::Platform p(config::MachineConfig::dual_p3_xeon_933(), kcfg, 888);
    workload::DiskNoise{}.install(p);
    p.boot();
    if (shield_kind == ShieldKind::kFull) {
      p.shield().shield_all(hw::CpuMask::single(1));
    }
    p.run_for(2_s);
    return p.engine().events_executed();
  };
  EXPECT_EQ(run(), run());
}

INSTANTIATE_TEST_SUITE_P(
    AllConfigs, SemanticsMatrix,
    ::testing::Values(MatrixParams{KernelKind::kVanilla, ShieldKind::kNone},
                      MatrixParams{KernelKind::kPreemptLowlat, ShieldKind::kNone},
                      MatrixParams{KernelKind::kRedHawk, ShieldKind::kNone},
                      MatrixParams{KernelKind::kVanilla, ShieldKind::kFull},
                      MatrixParams{KernelKind::kPreemptLowlat, ShieldKind::kFull},
                      MatrixParams{KernelKind::kRedHawk, ShieldKind::kFull}));
