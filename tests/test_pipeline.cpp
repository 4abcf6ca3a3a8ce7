// The interrupt-delivery mechanism layer: mechanism-neutrality of the
// `mechanism` spec field for in-band runs (digest, journal adoption and
// result bytes), and the out-of-band stage's headline claim — sub-microsecond
// response on a stock kernel under loads where the shielded in-band
// kernels sit at tens of microseconds.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "config/experiment.h"
#include "config/journal.h"
#include "config/scenario_runner.h"
#include "kernel/irq_pipeline.h"
#include "kernel_test_util.h"
#include "rt/cyclictest.h"
#include "rt/rcim_test.h"
#include "rt/realfeel_test.h"
#include "workload/stress_kernel.h"

using namespace testutil;
using namespace sim::literals;

namespace {

config::ScenarioSpec spec_of(const char* name) {
  const auto* s = config::ScenarioRegistry::builtin().find(name);
  EXPECT_NE(s, nullptr) << name;
  return *s;
}

config::ScenarioRunner::Options smoke_options() {
  config::ScenarioRunner::Options opt;
  opt.scale = 0.01;
  return opt;
}

}  // namespace

// ---- mechanism neutrality (in-band) -----------------------------------------

// Writing `"mechanism": "inband"` explicitly must be indistinguishable
// from omitting the field: same parsed spec, same serialized bytes, same
// digest — so every pre-existing spec's digest (and its journaled results)
// survives the pipeline refactor untouched.
TEST(MechanismNeutrality, ExplicitInbandSpecIsByteIdenticalToOmitted) {
  for (const auto& s : config::ScenarioRegistry::builtin().all()) {
    if (s.mechanism != "inband") continue;
    config::json::Value v = s.to_json();
    EXPECT_EQ(v.find("mechanism"), nullptr) << s.name;
    v.set("mechanism", "inband");
    const config::ScenarioSpec e = config::ScenarioSpec::from_json(v);
    EXPECT_EQ(e.digest(), s.digest()) << s.name;
    EXPECT_EQ(e.to_json().dump(), s.to_json().dump()) << s.name;
  }
}

// Same digest must mean the same stored answer: a resume of the
// explicit-inband spec adopts the done record its omitted-field twin wrote,
// and that record holds the explicit spec's own bytes.
TEST(MechanismNeutrality, ExplicitInbandAdoptsTheSameJournalRecord) {
  const auto opt = smoke_options();
  config::ScenarioRunner runner(opt);
  const config::ScenarioSpec base = spec_of("fig2");
  config::json::Value v = base.to_json();
  v.set("mechanism", "inband");
  const config::ScenarioSpec explicit_spec =
      config::ScenarioSpec::from_json(v);

  const std::uint64_t root = 77;
  const std::uint64_t seed = config::batch_seed(root, base);
  const std::string dir = temp_dir("mechanism_journal_test");
  {
    config::CampaignJournal j(dir);
    j.write_campaign(root, opt.scale, 1);
    j.write_done(base.name, base.digest(), seed, runner.run_outcome(base, seed));
  }
  const auto adoption = config::CampaignJournal::adopt(
      config::CampaignJournal::replay(dir), {root, opt.scale, 1, ""},
      {explicit_spec});
  std::filesystem::remove_all(dir);
  ASSERT_EQ(adoption.adopted, 1u);
  ASSERT_TRUE(adoption.outcomes[0].has_value());
  EXPECT_EQ(adoption.outcomes[0]->to_full_json().dump(),
            runner.run_outcome(explicit_spec, seed).to_full_json().dump());
}

// Whole-registry smoke: every in-band spec re-parsed through an explicit
// "mechanism": "inband" field produces byte-identical results (probe JSON,
// latency-derived stats, telemetry timeline) to the original.
TEST(MechanismNeutrality, WholeRegistrySmokeRunsByteIdentically) {
  std::vector<config::ScenarioSpec> omitted;
  std::vector<config::ScenarioSpec> explicit_specs;
  for (const auto& s : config::ScenarioRegistry::builtin().all()) {
    if (s.mechanism != "inband") continue;
    omitted.push_back(s);
    config::json::Value v = s.to_json();
    v.set("mechanism", "inband");
    explicit_specs.push_back(config::ScenarioSpec::from_json(v));
  }
  ASSERT_FALSE(omitted.empty());

  config::ScenarioRunner runner(smoke_options());
  const auto a = runner.run_batch_report(omitted, 99);
  const auto b = runner.run_batch_report(explicit_specs, 99);
  ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
  for (std::size_t i = 0; i < a.outcomes.size(); ++i) {
    EXPECT_EQ(a.outcomes[i].to_json().dump(), b.outcomes[i].to_json().dump())
        << omitted[i].name;
  }
}

// ---- the out-of-band stage --------------------------------------------------

// An adopted RCIM reader on a *vanilla* kernel under the full stress-kernel
// load: the oob stage preempts the whole in-band kernel, so its response
// stays at single-microsecond scale (vanilla's slower read path rides the
// adopted task) where the paper's unshielded vanilla numbers reach
// milliseconds — and the stage's stolen cycles are visible as in-band
// stall accounting, not silently free.
TEST(OobPipeline, RcimUnderStressStaysMicrosecondScaleOnVanilla) {
  config::KernelConfig kc = config::KernelConfig::vanilla_2_4_20();
  kc.rcim_driver = true;  // vanilla ships without it; load just the driver
  auto p = std::make_unique<config::Platform>(
      config::MachineConfig::dual_p4_xeon_2000_rcim(), kc, 401);
  workload::StressKernel{}.install(*p);
  rt::RcimTest::Params rp;
  rp.samples = 3000;
  rp.affinity = hw::CpuMask::single(1);
  rt::RcimTest test(p->kernel(), p->rcim_driver(), rp);

  kernel::Kernel& k = p->kernel();
  k.set_mechanism(kernel::MechanismKind::kOob);
  ASSERT_EQ(k.mechanism(), kernel::MechanismKind::kOob);
  auto& oob = static_cast<kernel::OobPipeline&>(k.pipeline());
  oob.adopt_task(test.task());
  oob.adopt_irq(p->rcim_device().irq());

  p->boot();
  test.start();
  p->run_for(10_s);
  ASSERT_TRUE(test.done());

  EXPECT_LT(test.true_latencies().max(), 2_us);
  EXPECT_GT(oob.dispatches(), 0u);
  EXPECT_GT(oob.switches(), 0u);
  EXPECT_GT(oob.stall_ns(), 0u);
  EXPECT_GT(k.cpu(1).oob_preemptions, 0u);
}

// The captured-timer fast path: an adopted cyclictest fires on the oob
// stage at exactly dispatch + switch cost every cycle — no tick
// quantization, no scheduler, no jitter at all.
TEST(OobPipeline, CyclictestTimerFastPathIsExact) {
  auto p = redhawk_rig(402);
  workload::StressKernel{}.install(*p);
  rt::CyclicTest::Params cp;
  cp.period = 1_ms;
  cp.cycles = 2000;
  cp.affinity = hw::CpuMask::single(1);
  rt::CyclicTest test(p->kernel(), cp);

  kernel::Kernel& k = p->kernel();
  k.set_mechanism(kernel::MechanismKind::kOob);
  auto& oob = static_cast<kernel::OobPipeline&>(k.pipeline());
  oob.adopt_task(test.task());

  p->boot();
  test.start();
  p->run_for(4_s);
  ASSERT_TRUE(test.done());

  const sim::Duration expected = p->kernel().config().oob_dispatch_cost +
                                 p->kernel().config().oob_switch_cost;
  EXPECT_EQ(test.latencies().min(), expected);
  EXPECT_EQ(test.latencies().max(), expected);
  EXPECT_GT(oob.timer_fires(), 0u);
}

// Selecting the current mechanism is a documented no-op.
TEST(OobPipeline, ReselectingTheCurrentMechanismIsANoOp) {
  auto p = redhawk_rig(403);
  kernel::Kernel& k = p->kernel();
  k.set_mechanism(kernel::MechanismKind::kOob);
  kernel::IrqPipeline* before = &k.pipeline();
  k.set_mechanism(kernel::MechanismKind::kOob);
  EXPECT_EQ(&k.pipeline(), before);
  EXPECT_EQ(std::string(kernel::to_string(k.mechanism())), "oob");
}

// ---- mech-* registry family: oob versus shielding ---------------------------

// The head-to-head the mech-* family exists for, at smoke scale: the oob
// stage holds sub-microsecond (rcim) / exactly-constant (cyclictest)
// response and shrugs off the interrupt storm and SMI plans that push the
// *shielded* in-band kernel to tens of microseconds and beyond.
TEST(MechanismComparison, OobBeatsShieldingUnderStormAndSmi) {
  const std::vector<std::string> names = {
      "mech-rcim-shielded", "mech-rcim-oob", "mech-cyclic-oob",
      "mech-smi-shielded",  "mech-smi-oob",
  };
  std::vector<config::ScenarioSpec> specs;
  for (const auto& n : names) specs.push_back(spec_of(n.c_str()));

  config::ScenarioRunner runner(smoke_options());
  const auto report = runner.run_batch_report(specs, 42);
  ASSERT_TRUE(report.all_ok());

  std::map<std::string, const config::RunOutcome*> by_name;
  for (const auto& o : report.outcomes) by_name[o.name] = &o;
  auto max_of = [&](const std::string& n) {
    return by_name.at(n)->result->probe.primary.max();
  };

  // Sub-microsecond oob response on the interrupt-driven probes.
  EXPECT_LT(max_of("mech-rcim-oob"), 1_us);
  const auto& cyclic = by_name.at("mech-cyclic-oob")->result->probe.primary;
  EXPECT_EQ(cyclic.min(), cyclic.max());  // exactly constant, every cycle
  EXPECT_LT(cyclic.max(), 1_us);

  // Shielding floors in the paper's 11–27 µs band on rcim; the oob stage
  // is an order of magnitude under it.
  EXPECT_GT(max_of("mech-rcim-shielded"), 5_us);
  EXPECT_GT(max_of("mech-rcim-shielded"), 10 * max_of("mech-rcim-oob"));

  // Firmware stalls pierce shielding (they hit the shielded CPU directly)
  // but not the oob stage.
  EXPECT_LT(max_of("mech-smi-oob"), 4_us);
  EXPECT_GT(max_of("mech-smi-shielded"), 10_us);
  EXPECT_GT(max_of("mech-smi-shielded"), 10 * max_of("mech-smi-oob"));

  // Outcomes carry their mechanism and the mixed batch reports the
  // per-mechanism breakdown.
  EXPECT_EQ(by_name.at("mech-rcim-oob")->mechanism, "oob");
  EXPECT_EQ(by_name.at("mech-rcim-shielded")->mechanism, "inband");
  EXPECT_NE(report.to_json().dump().find("by_mechanism"), std::string::npos);

  // A storm on the shielded CPU's own line pierces shielding at some seeds
  // only, so its pair runs over a fixed seed set: over root seeds 1-8 the
  // shielded max spans 9.4-864 us and the oob max 1.35-1.67 us. Every seed
  // keeps the oob stage under 4 us and shielding at least 5x above it, and
  // some seed drives the shielded max past 100 us, ten times the storm-free
  // shielded floor.
  const std::vector<config::ScenarioSpec> storm = {
      spec_of("mech-storm-shielded"), spec_of("mech-storm-oob")};
  sim::Duration worst_shielded = 0;
  for (std::uint64_t root = 1; root <= 8; ++root) {
    const auto pair = runner.run_batch_report(storm, root);
    ASSERT_TRUE(pair.all_ok()) << "root seed " << root;
    const auto shielded = pair.outcomes[0].result->probe.primary.max();
    const auto oob = pair.outcomes[1].result->probe.primary.max();
    EXPECT_LT(oob, 4_us) << "root seed " << root;
    EXPECT_GE(shielded, 5 * oob) << "root seed " << root;
    worst_shielded = std::max(worst_shielded, shielded);
  }
  EXPECT_GT(worst_shielded, 100_us) << "the storm pierced shielding nowhere";
}
