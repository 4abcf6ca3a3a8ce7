// The fault layer: plan JSON round-trips and validation, injector
// determinism and stats accounting, the empty-plan-is-free contract, and the
// headline robustness claim — a shielded CPU's max latency stays bounded
// under hostile-device fault injection while the unshielded max blows up.
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>

#include "config/experiment.h"
#include "config/json.h"
#include "config/platform.h"
#include "config/scenario.h"
#include "config/scenario_runner.h"
#include "fault/fault_plan.h"
#include "fault/injector.h"
#include "hw/interrupt_controller.h"
#include "kernel/kernel.h"
#include "sim/time.h"

using namespace sim::literals;

namespace {

fault::FaultSpec make(fault::FaultKind kind) {
  fault::FaultSpec f;
  f.kind = kind;
  return f;
}

config::ScenarioSpec spec_of(const char* name) {
  const auto* s = config::ScenarioRegistry::builtin().find(name);
  EXPECT_NE(s, nullptr) << name;
  return *s;
}

/// A plan exercising every FaultKind with every optional field off-default.
fault::FaultPlan kitchen_sink_plan() {
  fault::FaultPlan plan;
  auto storm = make(fault::FaultKind::kIrqStorm);
  storm.irq = hw::kIrqNic;
  storm.rate_hz = 1000.0;
  storm.start = 1 * sim::kMillisecond;
  storm.duration = 5 * sim::kMillisecond;
  plan.faults.push_back(storm);
  auto spurious = make(fault::FaultKind::kSpuriousIrq);
  spurious.irq = hw::kIrqDisk;
  spurious.rate_hz = 50.0;
  plan.faults.push_back(spurious);
  auto lost = make(fault::FaultKind::kLostIrq);
  lost.irq = hw::kIrqDisk;
  lost.probability = 0.5;
  plan.faults.push_back(lost);
  auto dup = make(fault::FaultKind::kDuplicateIrq);
  dup.irq = hw::kIrqNic;
  dup.probability = 0.25;
  plan.faults.push_back(dup);
  auto stall = make(fault::FaultKind::kCpuStall);
  stall.rate_hz = 10.0;
  stall.min_ns = 10'000;
  stall.max_ns = 50'000;
  stall.cpu = 1;
  plan.faults.push_back(stall);
  auto drift = make(fault::FaultKind::kClockDrift);
  drift.drift = 0.001;
  plan.faults.push_back(drift);
  auto delay = make(fault::FaultKind::kDeviceDelay);
  delay.device = "disk";
  delay.probability = 0.3;
  delay.min_ns = 1'000'000;
  delay.max_ns = 4'000'000;
  plan.faults.push_back(delay);
  auto flood = make(fault::FaultKind::kSoftirqFlood);
  flood.rate_hz = 200.0;
  flood.work_ns = 20'000;
  flood.cpu = 0;
  plan.faults.push_back(flood);
  auto holder = make(fault::FaultKind::kLockHolderDelay);
  holder.lock = "dcache";
  holder.rate_hz = 20.0;
  holder.min_ns = 100'000;
  holder.max_ns = 400'000;
  plan.faults.push_back(holder);
  return plan;
}

}  // namespace

// ---- plan serialization -----------------------------------------------------

TEST(FaultPlan, JsonRoundTripIsIdentityForEveryKind) {
  const auto plan = kitchen_sink_plan();
  const auto dumped = plan.to_json().dump();
  const auto back =
      fault::FaultPlan::from_json(config::json::Value::parse(dumped));
  EXPECT_EQ(back.to_json().dump(), dumped);
  ASSERT_EQ(back.faults.size(), plan.faults.size());
  EXPECT_NO_THROW(back.validate("round-trip"));
}

TEST(FaultPlan, KindTokensRoundTrip) {
  for (auto kind :
       {fault::FaultKind::kIrqStorm, fault::FaultKind::kSpuriousIrq,
        fault::FaultKind::kLostIrq, fault::FaultKind::kDuplicateIrq,
        fault::FaultKind::kCpuStall, fault::FaultKind::kClockDrift,
        fault::FaultKind::kDeviceDelay, fault::FaultKind::kSoftirqFlood,
        fault::FaultKind::kLockHolderDelay}) {
    EXPECT_EQ(fault::fault_kind_from(fault::to_string(kind)), kind);
  }
  EXPECT_THROW((void)fault::fault_kind_from("meteor-strike"),
               std::runtime_error);
}

TEST(FaultPlan, FromJsonRejectsUnknownKeysAndMissingKind) {
  auto v = make(fault::FaultKind::kIrqStorm).to_json();
  v.set("not_a_field", 1);
  EXPECT_THROW((void)fault::FaultSpec::from_json(v), std::runtime_error);
  EXPECT_THROW(
      (void)fault::FaultSpec::from_json(config::json::Value::object()),
      std::runtime_error);
}

TEST(FaultPlan, ValidateEnforcesPerKindRequirements) {
  const auto expect_invalid = [](fault::FaultSpec f, const char* what) {
    fault::FaultPlan plan;
    plan.faults.push_back(std::move(f));
    EXPECT_THROW(plan.validate("t"), std::runtime_error) << what;
  };
  expect_invalid(make(fault::FaultKind::kIrqStorm), "storm without irq/rate");
  auto bad_irq = make(fault::FaultKind::kIrqStorm);
  bad_irq.irq = hw::kMaxIrq;
  bad_irq.rate_hz = 10.0;
  expect_invalid(bad_irq, "irq out of range");
  auto p0 = make(fault::FaultKind::kLostIrq);
  p0.irq = hw::kIrqDisk;
  expect_invalid(p0, "probability 0");
  auto inverted = make(fault::FaultKind::kCpuStall);
  inverted.rate_hz = 1.0;
  inverted.min_ns = 100;
  inverted.max_ns = 50;
  expect_invalid(inverted, "min > max");
  auto bad_dev = make(fault::FaultKind::kDeviceDelay);
  bad_dev.device = "teletype";
  bad_dev.probability = 0.5;
  bad_dev.min_ns = 1;
  bad_dev.max_ns = 2;
  expect_invalid(bad_dev, "unknown device");
  auto bad_lock = make(fault::FaultKind::kLockHolderDelay);
  bad_lock.lock = "no-such-lock";
  bad_lock.rate_hz = 1.0;
  bad_lock.min_ns = 1;
  bad_lock.max_ns = 2;
  expect_invalid(bad_lock, "unknown lock");
  auto bad_drift = make(fault::FaultKind::kClockDrift);
  bad_drift.drift = -1.5;
  expect_invalid(bad_drift, "drift <= -1");
}

TEST(FaultPlan, ValidateNamesTheScenarioAndFault) {
  fault::FaultPlan plan;
  plan.faults.push_back(make(fault::FaultKind::kSoftirqFlood));
  try {
    plan.validate("my-scenario");
    FAIL() << "expected validate to throw";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("my-scenario"), std::string::npos) << msg;
    EXPECT_NE(msg.find("softirq-flood"), std::string::npos) << msg;
  }
}

TEST(FaultPlan, RidesOnScenarioSpecJsonAndDigest) {
  auto s = spec_of("fig6");
  const auto base_digest = s.digest();
  s.faults = kitchen_sink_plan();
  const auto dumped = s.to_json().dump();
  const auto back =
      config::ScenarioSpec::from_json(config::json::Value::parse(dumped));
  EXPECT_EQ(back.to_json().dump(), dumped);
  EXPECT_NE(s.digest(), base_digest);  // a plan is part of the spec identity
  // An empty plan is NOT part of the identity: digests (and thus journal
  // keys) of every pre-fault spec are unchanged.
  s.faults = fault::FaultPlan{};
  EXPECT_EQ(s.digest(), base_digest);
}

// ---- injector ---------------------------------------------------------------

namespace {

/// Boot a small loaded platform, arm `plan` over `horizon`, run, and return
/// the injector's stats.
fault::Injector::Stats run_plan(const fault::FaultPlan& plan,
                                sim::Duration horizon, std::uint64_t seed) {
  config::Platform p(config::MachineConfig::dual_p3_xeon_933(),
                     config::KernelConfig::redhawk_1_4(), seed);
  p.boot();
  fault::Injector injector(p, plan, seed);
  injector.arm(p.engine().now() + horizon);
  EXPECT_TRUE(injector.armed());
  p.run_for(horizon);
  return injector.stats();
}

}  // namespace

TEST(Injector, StormAndSpuriousRaiseRegisteredLines) {
  fault::FaultPlan plan;
  auto storm = make(fault::FaultKind::kIrqStorm);
  storm.irq = hw::kIrqNic;
  storm.rate_hz = 5000.0;
  plan.faults.push_back(storm);
  auto spurious = make(fault::FaultKind::kSpuriousIrq);
  spurious.irq = hw::kIrqDisk;
  spurious.rate_hz = 2000.0;
  plan.faults.push_back(spurious);
  const auto stats = run_plan(plan, 100 * sim::kMillisecond, 7);
  EXPECT_GT(stats.storm_raises, 100u);
  EXPECT_GT(stats.spurious_raises, 50u);
  EXPECT_EQ(stats.skipped_specs, 0u);
}

TEST(Injector, StormOnUnregisteredLineIsSkippedNotFatal) {
  fault::FaultPlan plan;
  auto storm = make(fault::FaultKind::kIrqStorm);
  storm.irq = 3;  // nothing claims line 3 on this machine
  storm.rate_hz = 1000.0;
  plan.faults.push_back(storm);
  const auto stats = run_plan(plan, 10 * sim::kMillisecond, 7);
  EXPECT_EQ(stats.storm_raises, 0u);
  EXPECT_EQ(stats.skipped_specs, 1u);
}

TEST(Injector, CpuStallsAreCountedByTheKernel) {
  fault::FaultPlan plan;
  auto stall = make(fault::FaultKind::kCpuStall);
  stall.rate_hz = 1000.0;
  stall.min_ns = 10'000;
  stall.max_ns = 20'000;
  plan.faults.push_back(stall);

  config::Platform p(config::MachineConfig::dual_p3_xeon_933(),
                     config::KernelConfig::redhawk_1_4(), 7);
  p.boot();
  fault::Injector injector(p, plan, 7);
  injector.arm(p.engine().now() + 50 * sim::kMillisecond);
  p.run_for(50 * sim::kMillisecond);
  EXPECT_GT(injector.stats().cpu_stalls, 10u);
  const auto taken =
      p.kernel().cpu(0).smi_stalls + p.kernel().cpu(1).smi_stalls;
  EXPECT_GT(taken, 0u);
  EXPECT_LE(taken, injector.stats().cpu_stalls);
}

TEST(Injector, ClockDriftIsWindowedAndRestored) {
  fault::FaultPlan plan;
  auto drift = make(fault::FaultKind::kClockDrift);
  drift.drift = 0.05;
  drift.start = 10 * sim::kMillisecond;
  drift.duration = 20 * sim::kMillisecond;
  plan.faults.push_back(drift);

  config::Platform p(config::MachineConfig::dual_p3_xeon_933(),
                     config::KernelConfig::redhawk_1_4(), 7);
  p.boot();
  fault::Injector injector(p, plan, 7);
  injector.arm(p.engine().now() + 100 * sim::kMillisecond);
  auto& timer = p.kernel().local_timer();
  p.run_for(15 * sim::kMillisecond);
  EXPECT_DOUBLE_EQ(timer.drift(), 0.05);  // inside the window
  p.run_for(30 * sim::kMillisecond);
  EXPECT_DOUBLE_EQ(timer.drift(), 0.0);  // restored at window end
}

TEST(Injector, LostAndDuplicateEdgesAreAccounted) {
  fault::FaultPlan plan;
  auto storm = make(fault::FaultKind::kIrqStorm);  // traffic to filter
  storm.irq = hw::kIrqNic;
  storm.rate_hz = 5000.0;
  plan.faults.push_back(storm);
  auto lost = make(fault::FaultKind::kLostIrq);
  lost.irq = hw::kIrqNic;
  lost.probability = 0.5;
  plan.faults.push_back(lost);
  const auto stats = run_plan(plan, 100 * sim::kMillisecond, 7);
  EXPECT_GT(stats.lost_irqs, 50u);

  plan.faults[1].kind = fault::FaultKind::kDuplicateIrq;
  const auto stats2 = run_plan(plan, 100 * sim::kMillisecond, 7);
  EXPECT_GT(stats2.duplicated_irqs, 50u);
  EXPECT_EQ(stats2.lost_irqs, 0u);
}

TEST(Injector, StatsSerializeToJson) {
  fault::FaultPlan plan;
  auto flood = make(fault::FaultKind::kSoftirqFlood);
  flood.rate_hz = 1000.0;
  flood.work_ns = 5'000;
  plan.faults.push_back(flood);
  const auto stats = run_plan(plan, 50 * sim::kMillisecond, 7);
  EXPECT_GT(stats.softirq_raises, 10u);
  const auto v = stats.to_json();
  EXPECT_EQ(v.find("softirq_raises")->as_u64(), stats.softirq_raises);
  EXPECT_EQ(v.find("skipped_specs")->as_u64(), 0u);
}

// ---- determinism and the empty-plan contract --------------------------------

TEST(Injector, SameSeedSamePlanIsBitIdentical) {
  auto spec = spec_of("faults-storm-shielded");
  config::ScenarioRunner::Options ro;
  ro.scale = 0.005;
  config::ScenarioRunner runner(ro);
  const auto a = runner.run(spec, 42);
  const auto b = runner.run(spec, 42);
  EXPECT_EQ(a.to_json().dump(), b.to_json().dump());
}

TEST(Injector, EmptyPlanDoesNotPerturbTheRun) {
  // A spec with an empty FaultPlan must produce the bit-identical result of
  // the same spec without one: no injector, no hooks, no RNG draws.
  auto base = spec_of("fig6");
  auto with_empty = base;
  with_empty.faults = fault::FaultPlan{};
  config::ScenarioRunner::Options ro;
  ro.scale = 0.005;
  config::ScenarioRunner runner(ro);
  EXPECT_EQ(runner.run(base, 9).to_json().dump(),
            runner.run(with_empty, 9).to_json().dump());
}

// ---- the robustness claim ---------------------------------------------------

TEST(PaperClaims, ShieldedMaxStaysBoundedUnderHostileDevices) {
  // The fault-family mirror of Figure 5 vs 6: under a NIC interrupt storm,
  // a softirq flood and disk timeouts, the shielded CPU's response stays
  // sub-millisecond (graceful degradation: disk timeouts still reach it
  // through the shared fs/BKL paths) while the unshielded distribution
  // collapses — its miss fraction above 100us blows up by >= 10x.
  config::ScenarioRunner::Options ro;
  ro.scale = 0.02;
  config::ScenarioRunner runner(ro);
  const auto shielded = runner.run(spec_of("faults-storm-shielded"), 2003);
  const auto unshielded = runner.run(spec_of("faults-storm-unshielded"), 2003);
  const auto& sh = shielded.probe.primary;
  const auto& un = unshielded.probe.primary;
  EXPECT_LT(sh.max(), sim::kMillisecond)
      << "shielded max should degrade gracefully (stay sub-millisecond)";
  const double sh_miss = 1.0 - sh.fraction_below(100 * sim::kMicrosecond);
  const double un_miss = 1.0 - un.fraction_below(100 * sim::kMicrosecond);
  EXPECT_GE(un_miss, 10.0 * std::max(sh_miss, 1e-4))
      << "miss fraction >100us: shielded " << sh_miss << " vs unshielded "
      << un_miss << " (max " << sh.max() << "ns vs " << un.max() << "ns)";
}

TEST(PaperClaims, SmiStallsPunchThroughButStayBounded) {
  // SMIs are unmaskable: the shield cannot stop them, so the max degrades —
  // but only to (stall ceiling + base latency), never unbounded.
  config::ScenarioRunner::Options ro;
  ro.scale = 0.02;
  config::ScenarioRunner runner(ro);
  const auto spec = spec_of("faults-smi-shielded");
  sim::Duration ceiling = 0;
  for (const auto& f : spec.faults.faults) {
    if (f.kind == fault::FaultKind::kCpuStall) ceiling = f.max_ns;
  }
  ASSERT_GT(ceiling, 0);
  const auto r = runner.run(spec, 2003);
  const auto baseline = runner.run(spec_of("faults-lost-dup-shielded"), 2003);
  EXPECT_GT(r.probe.primary.max(), baseline.probe.primary.max())
      << "stalls should be visible on the shielded CPU";
  EXPECT_LT(r.probe.primary.max(), ceiling + 100 * sim::kMicrosecond)
      << "and bounded by the stall ceiling";
}
