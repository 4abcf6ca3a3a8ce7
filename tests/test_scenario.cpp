// The declarative scenario layer: spec JSON round-trips, validation,
// registry completeness, the parallel runner, result serialization and seed
// derivation.
#include <gtest/gtest.h>

#include <chrono>
#include <set>
#include <stdexcept>

#include "config/experiment.h"
#include "config/json.h"
#include "config/scenario.h"
#include "config/scenario_runner.h"
#include "rt/probe.h"
#include "sim/rng.h"
#include "sim/time.h"
#include "workload/registry.h"

namespace {

config::ScenarioSpec spec_of(const char* name) {
  const auto* s = config::ScenarioRegistry::builtin().find(name);
  EXPECT_NE(s, nullptr) << name;
  return *s;
}

}  // namespace

// ---- spec serialization -----------------------------------------------------

TEST(ScenarioSpec, JsonRoundTripIsIdentityForEveryBuiltin) {
  for (const auto& spec : config::ScenarioRegistry::builtin().all()) {
    const auto dumped = spec.to_json().dump();
    const auto back =
        config::ScenarioSpec::from_json(config::json::Value::parse(dumped));
    EXPECT_EQ(back.to_json().dump(), dumped) << spec.name;
    EXPECT_EQ(back.digest(), spec.digest()) << spec.name;
  }
}

TEST(ScenarioSpec, DigestChangesWithContent) {
  auto a = spec_of("fig6");
  auto b = a;
  b.probe_params.set("samples", 12345);
  EXPECT_NE(a.digest(), b.digest());
  // Presentation-only fields are digest-neutral: retitling a spec must not
  // invalidate journaled outcomes whose simulated content is unchanged.
  auto c = a;
  c.title += " (edited)";
  c.description += " (edited)";
  c.group = "elsewhere";
  c.paper_ref = "reworded";
  EXPECT_EQ(a.digest(), c.digest());
  // `transient` only governs the runner's retry policy, never the
  // simulation a fixed (spec, seed) attempt performs.
  auto t = a;
  t.transient = !t.transient;
  EXPECT_EQ(a.digest(), t.digest());
}

TEST(ScenarioSpec, DigestCoversExactlyTheBehaviorAffectingFields) {
  // The adoption-soundness contract, field by field: any mutation that can
  // change what a run produces must change the digest; any mutation that
  // cannot must leave it alone. A behavior field missing from the digest
  // means a resumed journal adopts stale outcomes; a presentation field
  // included means retitling invalidates good ones.
  const auto base = spec_of("fig6");
  const auto mutated_digest = [&](auto&& mutate) {
    auto s = base;
    mutate(s);
    return s.digest();
  };

  using Spec = config::ScenarioSpec;
  // name appears in the serialized result, so it is (correctly) content.
  EXPECT_NE(base.digest(),
            mutated_digest([](Spec& s) { s.name += "-renamed"; }));
  EXPECT_NE(base.digest(),
            mutated_digest([](Spec& s) { s.machine = "dual-p4-1400"; }));
  EXPECT_NE(base.digest(),
            mutated_digest([](Spec& s) { s.kernel = "vanilla-2.4.20"; }));
  EXPECT_NE(base.digest(), mutated_digest([](Spec& s) {
              s.kernel_overrides.set("preempt_kernel", true);
            }));
  EXPECT_NE(base.digest(),
            mutated_digest([](Spec& s) { s.ht_override = false; }));
  EXPECT_NE(base.digest(),
            mutated_digest([](Spec& s) { s.workloads.pop_back(); }));
  EXPECT_NE(base.digest(),
            mutated_digest([](Spec& s) { s.probe = "cyclictest"; }));
  EXPECT_NE(base.digest(), mutated_digest([](Spec& s) {
              s.probe_params.set("samples", 999);
            }));
  EXPECT_NE(base.digest(),
            mutated_digest([](Spec& s) { s.shield = config::ShieldPlan{}; }));
  EXPECT_NE(base.digest(), mutated_digest([](Spec& s) {
              s.duration.fixed_ns = 123456789;
            }));
  EXPECT_NE(base.digest(), mutated_digest([](Spec& s) {
              fault::FaultSpec f;
              f.kind = fault::FaultKind::kIrqStorm;
              f.rate_hz = 100.0;
              s.faults.faults.push_back(f);
            }));
  EXPECT_NE(base.digest(), mutated_digest([](Spec& s) {
              s.telemetry.sampler = true;
            }));

  // Presentation and policy-only fields: digest-neutral.
  EXPECT_EQ(base.digest(),
            mutated_digest([](Spec& s) { s.title = "reworded"; }));
  EXPECT_EQ(base.digest(),
            mutated_digest([](Spec& s) { s.description = "reworded"; }));
  EXPECT_EQ(base.digest(), mutated_digest([](Spec& s) { s.group = "other"; }));
  EXPECT_EQ(base.digest(),
            mutated_digest([](Spec& s) { s.paper_ref = "reworded"; }));
  EXPECT_EQ(base.digest(),
            mutated_digest([](Spec& s) { s.transient = !s.transient; }));
}

TEST(ScenarioSpec, FromJsonRejectsUnknownKeys) {
  auto v = spec_of("fig6").to_json();
  v.set("not_a_field", 1);
  EXPECT_THROW(config::ScenarioSpec::from_json(v), std::runtime_error);
}

// ---- validation -------------------------------------------------------------

TEST(ScenarioSpec, ValidateRejectsUnknownWorkloadName) {
  auto s = spec_of("fig6");
  s.workloads.push_back(config::WorkloadRef{"no-such-workload",
                                            config::json::Value::object()});
  EXPECT_THROW(s.validate(), std::runtime_error);
}

TEST(ScenarioSpec, ValidateRejectsUnknownProbeName) {
  auto s = spec_of("fig6");
  s.probe = "no-such-probe";
  EXPECT_THROW(s.validate(), std::runtime_error);
}

TEST(ScenarioSpec, ValidateRejectsUnknownPresetsAndOverrides) {
  auto s = spec_of("fig6");
  s.machine = "quad-cray-1";
  EXPECT_THROW(s.validate(), std::runtime_error);

  s = spec_of("fig6");
  s.kernel = "hurd-0.9";
  EXPECT_THROW(s.validate(), std::runtime_error);

  s = spec_of("fig6");
  s.kernel_overrides.set("not_a_kernel_field", 1);
  EXPECT_THROW(s.validate(), std::runtime_error);
}

TEST(ScenarioSpec, ValidateRejectsBadWorkloadParams) {
  auto s = spec_of("fig6");
  auto params = config::json::Value::object();
  params.set("bogus_param", 3);
  s.workloads.push_back(config::WorkloadRef{"sibling-hog", params});
  EXPECT_THROW(s.validate(), std::runtime_error);
}

TEST(ScenarioSpec, DurationBoundProbesRequireFixedHorizon) {
  auto s = spec_of("timer-gap-10ms-jiffy");
  ASSERT_TRUE(rt::probe_duration_bound(s.probe));
  s.duration.fixed_ns = 0;
  EXPECT_THROW(s.validate(), std::runtime_error);
}

// ---- registries -------------------------------------------------------------

TEST(ScenarioRegistry, NamesAreUniqueAndSpecsValidate) {
  const auto& reg = config::ScenarioRegistry::builtin();
  std::set<std::string> seen;
  for (const auto& s : reg.all()) {
    EXPECT_TRUE(seen.insert(s.name).second) << "duplicate: " << s.name;
    EXPECT_NO_THROW(s.validate()) << s.name;
    EXPECT_FALSE(s.group.empty()) << s.name;
  }
  EXPECT_GE(reg.all().size(), 50u);
}

TEST(ScenarioRegistry, EveryBenchScenarioIsPresent) {
  const auto& reg = config::ScenarioRegistry::builtin();
  for (const char* name :
       {"fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7",
        "preempt-lowlat", "abl-shield-none", "abl-shield-full",
        "abl-kernel-vanilla", "abl-kernel-redhawk-shielded", "abl-bkl-locked",
        "abl-bkl-flagged", "abl-ht-duty0-sibling", "abl-ht-duty100-core",
        "abl-mlock-locked-idle", "abl-mlock-pageable-loaded",
        "cyclic-vanilla", "cyclic-redhawk-shielded", "freq-250", "freq-10000",
        "timer-gap-3ms-jiffy", "timer-gap-25ms-hires", "holdoff-vanilla",
        "holdoff-redhawk"}) {
    EXPECT_NE(reg.find(name), nullptr) << name;
  }
}

TEST(ScenarioRegistry, AddRejectsDuplicates) {
  config::ScenarioRegistry reg;
  reg.add(spec_of("fig6"));
  EXPECT_THROW(reg.add(spec_of("fig6")), std::runtime_error);
}

TEST(WorkloadRegistry, NamesResolveAndUnknownsThrow) {
  EXPECT_TRUE(workload::registry_contains("stress-kernel"));
  EXPECT_TRUE(workload::registry_contains("sibling-hog"));
  EXPECT_FALSE(workload::registry_contains("fork-bomb"));
  EXPECT_THROW(
      workload::make_workload("fork-bomb", config::json::Value::object()),
      std::runtime_error);
  EXPECT_GE(workload::registry_names().size(), 14u);
}

TEST(ProbeRegistry, NamesResolveAndUnknownsThrow) {
  for (const char* name : {"determinism", "realfeel", "rcim", "cyclictest",
                           "timer-gap", "holdoff"}) {
    EXPECT_TRUE(rt::probe_contains(name)) << name;
  }
  EXPECT_FALSE(rt::probe_contains("lmbench"));
}

// ---- the runner -------------------------------------------------------------

TEST(ScenarioRunner, WholeRegistrySmokesInParallel) {
  // Every registry scenario must actually execute: tiny scale, parallel
  // batch, results in spec order with matching digests.
  const auto& specs = config::ScenarioRegistry::builtin().all();
  config::ScenarioRunner::Options ro;
  ro.scale = 0.002;
  config::ScenarioRunner runner(ro);
  const auto results = runner.run_batch(specs, 7);
  ASSERT_EQ(results.size(), specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    EXPECT_EQ(results[i].name, specs[i].name);
    EXPECT_EQ(results[i].digest, specs[i].digest());
    EXPECT_GT(results[i].events, 0u) << specs[i].name;
  }
}

TEST(ScenarioRunner, BatchSeedsAreOrderIndependent) {
  // Seeds derive from the scenario *name*, so a reordered batch reproduces
  // the same per-scenario numbers.
  config::ScenarioRunner::Options ro;
  ro.scale = 0.005;
  config::ScenarioRunner runner(ro);
  const std::vector<config::ScenarioSpec> ab{spec_of("fig6"), spec_of("fig7")};
  const std::vector<config::ScenarioSpec> ba{spec_of("fig7"), spec_of("fig6")};
  const auto r1 = runner.run_batch(ab, 2003);
  const auto r2 = runner.run_batch(ba, 2003);
  EXPECT_EQ(r1[0].to_json().dump(), r2[1].to_json().dump());
  EXPECT_EQ(r1[1].to_json().dump(), r2[0].to_json().dump());
}

TEST(ScenarioRunner, SampleBoundRunsStopOnceTheProbeBanksItsBudget) {
  // DurationPolicy pads a sample-bound probe's nominal duration with
  // factor + margin slack so abnormal runs still finish; the probe itself
  // freezes and exits the moment its budget lands. The runner therefore
  // treats the horizon as an upper bound: the run stops at the first
  // done-check boundary past completion instead of simulating the slack.
  const auto spec = spec_of("abl-shield-full");
  config::ScenarioRunner::Options ro;
  ro.scale = 0.005;
  config::ScenarioRunner early(ro);

  const auto a = early.run(spec, 2003);
  // Fixed-duration runs never stop early, so a fixed-duration copy whose
  // horizon ends well after the early stop simulates the slack in full.
  // The probe banked its full budget and its figures are identical to the
  // copy's — the slack contributed nothing...
  auto fixed = spec;
  fixed.duration.fixed_ns = static_cast<sim::Duration>(
      2.0 * static_cast<double>(a.duration_ns) / ro.scale);
  const auto b = early.run(fixed, 2003);
  EXPECT_TRUE(a.probe.complete);
  EXPECT_EQ(a.probe.collected, a.probe.expected);
  EXPECT_EQ(a.to_json().find("probe")->dump(),
            b.to_json().find("probe")->dump());
  // ...but the early-stopped run simulated strictly less of it.
  EXPECT_LT(a.duration_ns, b.duration_ns);
  EXPECT_LT(a.events, b.events);

  // The stop time derives from the probe's nominal duration, not the
  // horizon, so duration-policy slack cannot shift it: padding the margin
  // changes the digest but not one simulated byte of the run.
  auto padded = spec;
  padded.duration.margin_ns *= 3;
  const auto c = early.run(padded, 2003);
  EXPECT_EQ(c.events, a.events);
  EXPECT_EQ(c.duration_ns, a.duration_ns);
  EXPECT_EQ(c.to_json().find("probe")->dump(),
            a.to_json().find("probe")->dump());
}

TEST(ScenarioRunner, FixedDurationRunsAlwaysCoverTheFullSpan) {
  // Duration-bound specs (timeline probes, cyclictest figures) keep their
  // exact pre-early-stop behavior: the scaled fixed horizon is simulated
  // in full, and walking it in watchdog slices is byte-identical to the
  // single unsliced run the default path takes.
  const auto spec = spec_of("timer-gap-10ms-jiffy");
  ASSERT_GT(spec.duration.fixed_ns, 0);
  config::ScenarioRunner::Options ro;
  ro.scale = 0.01;
  config::ScenarioRunner plain(ro);
  auto wo = ro;
  wo.max_events = std::uint64_t{1} << 40;  // arms the sliced walk, never fires
  config::ScenarioRunner sliced(wo);

  const auto a = plain.run(spec, 2003);
  const auto b = sliced.run(spec, 2003);
  EXPECT_EQ(a.to_json().dump(), b.to_json().dump());
  EXPECT_EQ(a.duration_ns,
            static_cast<std::uint64_t>(
                static_cast<double>(spec.duration.fixed_ns) * ro.scale));

  // A fixed-duration copy of a sample-bound spec whose horizon ends after
  // the early stop covers that whole horizon even though its probe banked
  // the budget long before.
  const auto bound = spec_of("abl-shield-full");
  ro.scale = 0.005;
  config::ScenarioRunner runner(ro);
  const auto early = runner.run(bound, 2003);
  auto fixed = bound;
  fixed.duration.fixed_ns = static_cast<sim::Duration>(
      2.0 * static_cast<double>(early.duration_ns) / ro.scale);
  const auto full = runner.run(fixed, 2003);
  EXPECT_TRUE(full.probe.complete);
  EXPECT_EQ(full.duration_ns,
            static_cast<std::uint64_t>(
                static_cast<double>(fixed.duration.fixed_ns) * ro.scale));
  EXPECT_GT(full.duration_ns, early.duration_ns);
}

TEST(ScenarioRunner, ResultJsonRoundTripPreservesHistograms) {
  config::ScenarioRunner::Options ro;
  ro.scale = 0.01;
  config::ScenarioRunner runner(ro);
  const auto r = runner.run(spec_of("fig5"), 2003);
  const auto back = config::ScenarioResult::from_json(
      config::json::Value::parse(r.to_json().dump(2)));
  EXPECT_EQ(back.to_json().dump(), r.to_json().dump());
  EXPECT_EQ(back.probe.primary.count(), r.probe.primary.count());
  EXPECT_EQ(back.probe.primary.max(), r.probe.primary.max());
  EXPECT_EQ(back.probe.primary.percentile(0.999),
            r.probe.primary.percentile(0.999));
  EXPECT_EQ(back.probe.primary.mean(), r.probe.primary.mean());
}

TEST(ScenarioRunner, RunSeedsFansOut) {
  config::ScenarioRunner::Options ro;
  ro.scale = 0.002;
  config::ScenarioRunner runner(ro);
  const auto rs = runner.run_seeds(spec_of("fig6"), 2003, 3);
  ASSERT_EQ(rs.size(), 3u);
  EXPECT_NE(rs[0].seed, rs[1].seed);
  EXPECT_NE(rs[1].seed, rs[2].seed);
}

// ---- kernel-override key validation -----------------------------------------

TEST(ScenarioSpec, OverrideTypoIsRejectedAtParseTimeWithSuggestion) {
  auto v = spec_of("fig6").to_json();
  auto overrides = config::json::Value::object();
  overrides.set("fault_mean_interval_nss", 123);  // note the typo
  v.set("kernel_overrides", std::move(overrides));
  try {
    (void)config::ScenarioSpec::from_json(v);
    FAIL() << "expected the typo to be rejected";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("fault_mean_interval_nss"), std::string::npos) << msg;
    EXPECT_NE(msg.find("did you mean 'fault_mean_interval_ns'"),
              std::string::npos)
        << msg;
  }
}

TEST(ScenarioSpec, EveryAdvertisedOverrideKeyParses) {
  // kernel_override_keys() is the contract surface: each listed key must be
  // accepted by from_json's parse-time check.
  const auto keys = config::kernel_override_keys();
  EXPECT_GE(keys.size(), 30u);
  for (const auto& key : keys) {
    auto v = spec_of("fig6").to_json();
    auto overrides = config::json::Value::object();
    overrides.set(key, 1);
    v.set("kernel_overrides", std::move(overrides));
    EXPECT_NO_THROW((void)config::ScenarioSpec::from_json(v)) << key;
  }
}

// ---- hardened execution -----------------------------------------------------

TEST(ScenarioRunner, ProbeFailureIsAStructuredOutcomeNotAnAbort) {
  auto s = spec_of("fig6");
  s.probe = "no-such-probe";
  config::ScenarioRunner runner;
  const auto out = runner.run_outcome(s, 1);
  EXPECT_EQ(out.status, config::RunStatus::kFailed);
  EXPECT_EQ(out.attempts, 1);
  EXPECT_FALSE(out.ok());
  EXPECT_FALSE(out.result.has_value());
  EXPECT_NE(out.error.find("probe"), std::string::npos) << out.error;
}

TEST(ScenarioRunner, ZeroHorizonIsAStructuredError) {
  auto s = spec_of("fig6");
  s.duration.fixed_ns = 100;  // scaled to zero below
  config::ScenarioRunner::Options ro;
  ro.scale = 0.001;
  config::ScenarioRunner runner(ro);
  try {
    (void)runner.run(s, 1);
    FAIL() << "expected a zero-horizon error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("horizon is zero"),
              std::string::npos)
        << e.what();
  }
  const auto out = runner.run_outcome(s, 1);
  EXPECT_EQ(out.status, config::RunStatus::kFailed);
}

TEST(ScenarioRunner, EventWatchdogTimesOutAsTimedOut) {
  config::ScenarioRunner::Options ro;
  ro.scale = 0.005;
  ro.max_events = 100;  // far below any real run
  config::ScenarioRunner runner(ro);
  EXPECT_THROW((void)runner.run(spec_of("fig6"), 1), config::ScenarioTimeout);
  const auto out = runner.run_outcome(spec_of("fig6"), 1);
  EXPECT_EQ(out.status, config::RunStatus::kTimedOut);
  EXPECT_EQ(out.attempts, 1);  // not transient: no retry
}

TEST(ScenarioRunner, TransientSpecRetriesWithDerivedSeedAndCanRecover) {
  // Deterministic "flaky" setup on the event watchdog alone: a budget that
  // the base seed's run overshoots and its retry#1 seed's run fits. Both
  // costs come from uncapped runs. The base seed is the smallest in 1..8
  // whose run executes more events than the run at its retry#1 seed.
  auto s = spec_of("fig6");
  s.transient = true;
  const auto retry_of = [](std::uint64_t seed) {
    return sim::derive_seed(seed, sim::SeedDomain::kRetry, "retry#1");
  };
  config::ScenarioRunner::Options ro;
  ro.scale = 0.005;
  config::ScenarioRunner uncapped(ro);
  std::uint64_t seed = 0;
  config::ScenarioResult retry_run;
  for (std::uint64_t candidate = 1; candidate <= 8 && seed == 0; ++candidate) {
    const auto base_run = uncapped.run(s, candidate);
    retry_run = uncapped.run(s, retry_of(candidate));
    if (base_run.events > retry_run.events) seed = candidate;
  }
  ASSERT_NE(seed, 0u) << "no seed in 1..8 costs more events than its retry";

  // The watchdog counts the events a result reports: one event under the
  // retry run's cost times that run out, and its exact cost does not.
  ro.max_events = retry_run.events - 1;
  EXPECT_THROW((void)config::ScenarioRunner(ro).run(s, retry_of(seed)),
               config::ScenarioTimeout);
  ro.max_events = retry_run.events;
  config::ScenarioRunner runner(ro);
  const auto out = runner.run_outcome(s, seed);
  EXPECT_EQ(out.status, config::RunStatus::kRetried);
  EXPECT_EQ(out.attempts, 2);
  EXPECT_TRUE(out.ok());
  ASSERT_EQ(out.retry_seeds.size(), 1u);
  EXPECT_EQ(out.retry_seeds[0], retry_of(seed));
  ASSERT_TRUE(out.result.has_value());
  EXPECT_EQ(out.result->to_json().dump(), retry_run.to_json().dump());
}

TEST(ScenarioRunner, TimeoutDumpHoldsOnlyItsOwnRunsEvents) {
  // Two runs in a row on one runner, in this process, with the same
  // machine, kernel and workloads: one with fault injection that completes,
  // then one without faults that trips the event watchdog. The timeout's
  // post-mortem dump must be the second run's own recording — if the
  // runner leaked the first run's ring into the second, fault-arm/fault-fire
  // events would surface in a run that has no faults.
  config::ScenarioRunner::Options opt;
  opt.scale = 0.005;
  opt.max_events = 1'000'000;  // ~600k for the faulted run: comfortable
  config::ScenarioRunner runner(opt);

  const auto faulted = spec_of("faults-storm-shielded");
  auto doomed = spec_of("abl-shield-full");  // same (machine,kernel,workloads)
  doomed.probe_params.set("samples", 16'000'000);  // far past the watchdog

  const auto first = runner.run_outcome(faulted, 5);
  EXPECT_TRUE(first.ok()) << first.error;

  const auto second = runner.run_outcome(doomed, 5);
  EXPECT_EQ(second.status, config::RunStatus::kTimedOut);

  const auto& flight = second.flight_recording;
  ASSERT_FALSE(flight.is_null());
  EXPECT_GT(flight.find("recorded")->as_u64(), 0u);
  const auto* events = flight.find("events");
  ASSERT_NE(events, nullptr);
  ASSERT_GT(events->items().size(), 0u);
  for (const auto& ev : events->items()) {
    const auto& kind = ev.find("kind")->as_string();
    EXPECT_NE(kind.substr(0, 6), "fault-")
        << "the first run's fault event leaked into the second run's dump";
  }
}

TEST(ScenarioRunner, BatchReportRecordsEveryOutcome) {
  auto bad = spec_of("fig7");
  bad.name = "fig7-broken";
  bad.probe = "no-such-probe";
  const std::vector<config::ScenarioSpec> specs{spec_of("fig6"), bad};
  config::ScenarioRunner::Options ro;
  ro.scale = 0.005;
  config::ScenarioRunner runner(ro);
  const auto report = runner.run_batch_report(specs, 2003);
  ASSERT_EQ(report.outcomes.size(), 2u);
  EXPECT_FALSE(report.all_ok());
  EXPECT_EQ(report.count(config::RunStatus::kOk), 1u);
  EXPECT_EQ(report.count(config::RunStatus::kFailed), 1u);
  EXPECT_EQ(report.outcomes[0].name, "fig6");
  EXPECT_TRUE(report.outcomes[0].ok());
  EXPECT_EQ(report.outcomes[1].name, "fig7-broken");
  EXPECT_FALSE(report.outcomes[1].error.empty());

  const auto v = report.to_json();
  EXPECT_EQ(v.find("schema")->as_string(), "degraded-run-report-v2");
  EXPECT_EQ(v.find("total")->as_u64(), 2u);
  EXPECT_EQ(v.find("ok")->as_u64(), 1u);
  EXPECT_EQ(v.find("failed")->as_u64(), 1u);
  EXPECT_EQ(v.find("outcomes")->items().size(), 2u);
}

// ---- seed derivation --------------------------------------------------------

TEST(DeriveSeed, StableDistinctAndRootSensitive) {
  const auto a = sim::derive_seed(2003, "fig6");
  EXPECT_EQ(a, sim::derive_seed(2003, "fig6"));  // deterministic
  EXPECT_NE(a, sim::derive_seed(2003, "fig7"));  // label-sensitive
  EXPECT_NE(a, sim::derive_seed(2004, "fig6"));  // root-sensitive
  EXPECT_NE(sim::derive_seed(0, "a"), sim::derive_seed(0, "b"));
}

// ---- crash-isolated execution satellites ------------------------------------

TEST(ScenarioRunner, RetryExhaustionRecordsEveryReseedAndStaysNotOk) {
  // A transient spec whose every attempt trips the event watchdog: all
  // retries are consumed, the final status is the last failure, and every
  // reseeded attempt's seed is on the record so any single attempt can be
  // replayed in isolation.
  auto s = spec_of("fig6");
  s.transient = true;
  config::ScenarioRunner::Options ro;
  ro.scale = 0.005;
  ro.max_events = 100;  // every attempt times out
  ro.max_attempts = 3;
  config::ScenarioRunner runner(ro);
  const std::uint64_t seed = 41;
  const auto out = runner.run_outcome(s, seed);
  EXPECT_EQ(out.status, config::RunStatus::kTimedOut);
  EXPECT_FALSE(out.ok());
  EXPECT_EQ(out.attempts, 3);
  ASSERT_EQ(out.retry_seeds.size(), 2u);
  EXPECT_EQ(out.retry_seeds[0],
            sim::derive_seed(seed, sim::SeedDomain::kRetry, "retry#1"));
  EXPECT_EQ(out.retry_seeds[1],
            sim::derive_seed(seed, sim::SeedDomain::kRetry, "retry#2"));
  // Retry streams never collide with the respawn namespace, even for
  // identical labels.
  for (const std::uint64_t rs : out.retry_seeds) {
    EXPECT_NE(rs,
              sim::derive_seed(seed, sim::SeedDomain::kRespawn, "retry#1"));
  }
  // The record round-trips through the wire form.
  const auto back = config::RunOutcome::from_json(out.to_full_json());
  EXPECT_EQ(back.retry_seeds, out.retry_seeds);
  EXPECT_EQ(back.attempts, out.attempts);
}

TEST(ScenarioRunner, WallClockWatchdogFiresMidRunNotOnlyAtPollBoundaries) {
  // Regression: the wall limit used to be consulted only at event-boundary
  // polls in the runner's slice loop, so a single long run_until stretch could
  // stall far past its budget. The engine-level wall guard now checks a
  // host timer every few thousand callbacks; a deliberately enormous run
  // must be cut off promptly mid-stretch.
  auto s = spec_of("fig6");
  s.probe_params.set("samples", 50'000'000);  // hours of simulated probing
  config::ScenarioRunner::Options ro;
  ro.wall_limit_s = 0.2;
  config::ScenarioRunner runner(ro);
  const auto t0 = std::chrono::steady_clock::now();
  const auto out = runner.run_outcome(s, 7);
  const double took =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_EQ(out.status, config::RunStatus::kTimedOut);
  EXPECT_NE(out.error.find("wall"), std::string::npos) << out.error;
  EXPECT_LT(took, 5.0) << "watchdog did not fire until a poll boundary";
}

TEST(ScenarioRunner, UnderCollectedProbeClassifiesIncomplete) {
  // A fixed horizon far too short for the probe's sample budget: the run
  // ends normally but the probe under-collects. That is registry rot, not
  // transient noise — no retry, non-ok status, result still attached.
  auto s = spec_of("fig6");
  s.transient = true;  // must NOT trigger retries for incompleteness
  s.duration.fixed_ns = 50 * sim::kMillisecond;
  config::ScenarioRunner::Options ro;
  config::ScenarioRunner runner(ro);
  const auto out = runner.run_outcome(s, 3);
  EXPECT_EQ(out.status, config::RunStatus::kIncomplete);
  EXPECT_FALSE(out.ok());
  EXPECT_EQ(out.attempts, 1);
  ASSERT_TRUE(out.result.has_value());
  EXPECT_FALSE(out.result->probe.complete);
  EXPECT_NE(out.error.find("samples within the horizon"), std::string::npos)
      << out.error;
}
