// Kernel/machine configuration presets and platform assembly.
#include <gtest/gtest.h>

#include <cstdint>

#include "config/option_value.h"
#include "config/scenario.h"
#include "kernel_test_util.h"

using namespace testutil;
using namespace sim::literals;

TEST(KernelConfig, VanillaMatchesPaperDescription) {
  const auto c = config::KernelConfig::vanilla_2_4_20();
  EXPECT_FALSE(c.preempt_kernel);
  EXPECT_FALSE(c.low_latency);
  EXPECT_FALSE(c.shield_support);
  EXPECT_FALSE(c.rcim_driver);
  EXPECT_FALSE(c.bkl_ioctl_flag);
  EXPECT_TRUE(c.default_hyperthreading);  // §5.2
  EXPECT_EQ(c.scheduler, config::SchedulerKind::kGoodness24);
  EXPECT_EQ(c.local_timer_period, 10_ms);  // HZ=100
  // Long critical sections are vanilla's signature.
  EXPECT_GT(c.section_max, 10_ms);
}

TEST(KernelConfig, RedHawkMatchesPaperDescription) {
  const auto c = config::KernelConfig::redhawk_1_4();
  EXPECT_TRUE(c.preempt_kernel);
  EXPECT_TRUE(c.low_latency);
  EXPECT_TRUE(c.shield_support);
  EXPECT_TRUE(c.rcim_driver);
  EXPECT_TRUE(c.bkl_ioctl_flag);
  EXPECT_TRUE(c.posix_timers);
  EXPECT_FALSE(c.default_hyperthreading);
  EXPECT_EQ(c.scheduler, config::SchedulerKind::kO1);
  // Low-latency patched sections stay sub-millisecond.
  EXPECT_LT(c.section_max, 2_ms);
}

TEST(KernelConfig, PatchedPreemptLowlat) {
  const auto c = config::KernelConfig::patched_preempt_lowlat();
  EXPECT_TRUE(c.preempt_kernel);
  EXPECT_TRUE(c.low_latency);
  EXPECT_FALSE(c.shield_support);
  // The configuration the 1.2 ms worst-case claim [5] was made on.
  EXPECT_LE(c.section_max, 1200_us);
}

TEST(MachineConfig, Presets) {
  const auto m1 = config::MachineConfig::dual_p4_xeon_1400();
  EXPECT_EQ(m1.physical_cores, 2);
  EXPECT_TRUE(m1.hyperthreading_capable);
  EXPECT_FALSE(m1.has_rcim);

  const auto m2 = config::MachineConfig::dual_p3_xeon_933();
  EXPECT_FALSE(m2.hyperthreading_capable);  // P3 has no HT

  const auto m3 = config::MachineConfig::dual_p4_xeon_2000_rcim();
  EXPECT_TRUE(m3.has_rcim);
}

TEST(Platform, HyperthreadingFollowsKernelDefault) {
  config::Platform vanilla(config::MachineConfig::dual_p4_xeon_1400(),
                           config::KernelConfig::vanilla_2_4_20(), 1);
  EXPECT_EQ(vanilla.topology().logical_cpus(), 4);  // HT on by default

  config::Platform redhawk(config::MachineConfig::dual_p4_xeon_1400(),
                           config::KernelConfig::redhawk_1_4(), 1);
  EXPECT_EQ(redhawk.topology().logical_cpus(), 2);  // HT off by default
}

TEST(Platform, HyperthreadingOverride) {
  // §5.2: vanilla "with hyperthreading disabled via the GRUB prompt".
  config::Platform p(config::MachineConfig::dual_p4_xeon_1400(),
                     config::KernelConfig::vanilla_2_4_20(), 1,
                     /*ht_override=*/false);
  EXPECT_EQ(p.topology().logical_cpus(), 2);
}

TEST(Platform, HtIncapableMachineIgnoresKernelDefault) {
  config::Platform p(config::MachineConfig::dual_p3_xeon_933(),
                     config::KernelConfig::vanilla_2_4_20(), 1);
  EXPECT_EQ(p.topology().logical_cpus(), 2);
}

TEST(Platform, RcimNeedsBothCardAndDriver) {
  config::Platform no_card(config::MachineConfig::dual_p3_xeon_933(),
                           config::KernelConfig::redhawk_1_4(), 1);
  EXPECT_FALSE(no_card.has_rcim());
  config::Platform no_driver(config::MachineConfig::dual_p4_xeon_2000_rcim(),
                             config::KernelConfig::vanilla_2_4_20(), 1);
  EXPECT_FALSE(no_driver.has_rcim());
  config::Platform both(config::MachineConfig::dual_p4_xeon_2000_rcim(),
                        config::KernelConfig::redhawk_1_4(), 1);
  EXPECT_TRUE(both.has_rcim());
  EXPECT_DEATH(no_card.rcim_device(), "RCIM");
}

TEST(Platform, ShieldOnlyWithSupport) {
  auto v = vanilla_rig();
  EXPECT_FALSE(v->has_shield());
  EXPECT_DEATH(v->shield(), "shield");
  auto r = redhawk_rig();
  EXPECT_TRUE(r->has_shield());
}

TEST(Platform, RunForAdvancesTime) {
  auto p = vanilla_rig();
  p->boot();
  p->run_for(123_ms);
  EXPECT_EQ(p->engine().now(), 123_ms);
  p->run_until(200_ms);
  EXPECT_EQ(p->engine().now(), 200_ms);
}

// ---- scenario preset lookups ------------------------------------------------

TEST(ScenarioPresets, MachineTokensResolve) {
  for (const auto& name : config::machine_preset_names()) {
    EXPECT_TRUE(config::find_machine(name).has_value()) << name;
  }
  EXPECT_FALSE(config::find_machine("pdp-11").has_value());
  const auto m = config::find_machine("dual-p4-2000-rcim");
  ASSERT_TRUE(m.has_value());
  EXPECT_TRUE(m->has_rcim);
}

TEST(ScenarioPresets, KernelTokensResolve) {
  for (const auto& name : config::kernel_preset_names()) {
    EXPECT_TRUE(config::find_kernel(name).has_value()) << name;
  }
  EXPECT_FALSE(config::find_kernel("linux-6.0").has_value());
  EXPECT_TRUE(config::find_kernel("redhawk-1.4")->shield_support);
  EXPECT_FALSE(config::find_kernel("vanilla-2.4.20")->shield_support);
}

TEST(ScenarioPresets, KernelOverridesApplyAndReject) {
  auto cfg = *config::find_kernel("vanilla-2.4.20");
  auto ov = config::json::Value::object();
  ov.set("preempt_kernel", true);
  ov.set("section_max_ns", 1'200'000);
  ov.set("section_alpha", 1.3);
  config::apply_kernel_overrides(cfg, ov);
  EXPECT_TRUE(cfg.preempt_kernel);
  EXPECT_EQ(cfg.section_max, 1'200'000);
  EXPECT_DOUBLE_EQ(cfg.section_alpha, 1.3);

  auto bad = config::json::Value::object();
  bad.set("warp_factor", 9);
  EXPECT_THROW(config::apply_kernel_overrides(cfg, bad), std::runtime_error);
}

// Numeric option values count only when the whole string is a number of
// the option's kind: a typo exits 2 instead of running with 0 or a wrapped
// count.
TEST(OptionValue, AcceptsOnlyAWholeNumberOfTheRightKind) {
  EXPECT_EQ(config::parse_count("2003"), 2003u);
  EXPECT_EQ(config::parse_count("18446744073709551615"), UINT64_MAX);
  EXPECT_EQ(config::parse_count("4", 4), 4u);
  EXPECT_FALSE(config::parse_count("5", 4));
  for (const char* bad : {"", "abc", "-1", "+1", " 1", "1 ", "1x", "0x10",
                          "1.0", "18446744073709551616"}) {
    EXPECT_FALSE(config::parse_count(bad)) << bad;
  }
  EXPECT_EQ(config::parse_real("0.01", true), 0.01);
  EXPECT_EQ(config::parse_real("1e-3", true), 1e-3);
  EXPECT_EQ(config::parse_real("0", false), 0.0);
  EXPECT_FALSE(config::parse_real("0", true));
  for (const char* bad : {"", "abc", "1x", " 1", "+1", "-0.5", "inf", "nan",
                          "1e999"}) {
    EXPECT_FALSE(config::parse_real(bad, true)) << bad;
    EXPECT_FALSE(config::parse_real(bad, false)) << bad;
  }
}
