// The telemetry subsystem: registry semantics (counters, pull gauges,
// idempotent registration, reset), Prometheus export shape, flight-recorder
// ring behavior, sampler timelines, and the integration contracts — procfs
// and the kernel's latency counters agree field-for-field, telemetry leaves the
// simulation bit-identical, and a watchdog timeout yields a post-mortem
// flight dump in the degraded-run report.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <sstream>
#include <set>
#include <string>
#include <vector>

#include "config/experiment.h"
#include "config/journal.h"
#include "config/json.h"
#include "config/platform.h"
#include "config/scenario.h"
#include "config/scenario_runner.h"
#include "config/telemetry_export.h"
#include "kernel/kernel.h"
#include "kernel_test_util.h"
#include "sim/engine.h"
#include "sim/time.h"
#include "telemetry/flight_recorder.h"
#include "telemetry/registry.h"
#include "telemetry/sampler.h"
#include "workload/registry.h"

using namespace sim::literals;

namespace {

config::ScenarioSpec spec_of(const char* name) {
  const auto* s = config::ScenarioRegistry::builtin().find(name);
  EXPECT_NE(s, nullptr) << name;
  return *s;
}

// ---- registry ---------------------------------------------------------------

TEST(Registry, CounterCellsAccumulateIndependently) {
  telemetry::Registry reg;
  auto c = reg.counter("test.ops", "ops", 2);
  c.inc(0);
  c.add(1, 41);
  c.inc(1);
  EXPECT_EQ(reg.value("test.ops", 0), 1u);
  EXPECT_EQ(reg.value("test.ops", 1), 42u);
  EXPECT_EQ(c.value(0), 1u);
}

TEST(Registry, SeriesNamesCarryTheCellLabel) {
  telemetry::Registry reg;
  reg.counter("test.sharded", "h", 2, "cpu");
  reg.counter("test.scalar", "h", 1, "");
  reg.counter("test.named", "h", 2, "lock", {"BKL", "fs_lock"});
  const auto names = reg.series_names();
  EXPECT_NE(std::find(names.begin(), names.end(), "test.sharded[cpu/0]"),
            names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "test.scalar"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "test.named[lock/fs_lock]"),
            names.end());
}

TEST(Registry, RegistrationIsIdempotentAndCellsOnlyGrow) {
  telemetry::Registry reg;
  auto a = reg.counter("test.c", "h", 2);
  a.add(1, 7);
  auto b = reg.counter("test.c", "h", 4);  // same metric, more cells
  EXPECT_EQ(reg.metric_count(), 1u);
  EXPECT_EQ(b.value(1), 7u);  // existing cells kept their values
  b.add(3, 5);
  EXPECT_EQ(reg.value("test.c", 3), 5u);
  reg.counter("test.c", "h", 2);  // fewer cells: no shrink
  EXPECT_EQ(reg.value("test.c", 3), 5u);
}

TEST(Registry, GaugeReregistrationRebindsTheCallback) {
  // The reused-engine contract: a second component instance re-registers
  // its gauges and must replace the dead closure, not keep the stale one.
  telemetry::Registry reg;
  std::uint64_t source = 5;
  reg.gauge("test.g", "h", 1, "", [&](int) { return source; });
  EXPECT_EQ(reg.value("test.g"), 5u);
  std::uint64_t other = 9;
  reg.gauge("test.g", "h", 1, "", [&](int) { return other; });
  EXPECT_EQ(reg.metric_count(), 1u);
  EXPECT_EQ(reg.value("test.g"), 9u);
}

TEST(Registry, ValueOfUnknownMetricReadsAsZero) {
  telemetry::Registry reg;
  EXPECT_EQ(reg.value("no.such.metric", 3), 0u);
  EXPECT_FALSE(reg.contains("no.such.metric"));
}

TEST(Registry, SnapshotOrderIsRegistrationOrder) {
  telemetry::Registry reg;
  reg.counter("z.last", "h", 1, "");
  reg.counter("a.first", "h", 1, "");
  const auto names = reg.series_names();
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "z.last");
  EXPECT_EQ(names[1], "a.first");
  EXPECT_EQ(reg.series_count(), 2u);
}

TEST(Registry, ResetZeroesCountersAndHistogramsButNotGauges) {
  telemetry::Registry reg;
  auto c = reg.counter("test.c", "h", 1, "");
  c.add(0, 10);
  auto h = reg.histogram("test.h", "h", 1, "");
  h.add(0, 100);
  std::uint64_t live = 3;
  reg.gauge("test.g", "h", 1, "", [&](int) { return live; });
  reg.reset();
  EXPECT_EQ(reg.value("test.c"), 0u);
  EXPECT_EQ(reg.value("test.h"), 0u);  // histogram value = sample count
  EXPECT_EQ(reg.value("test.g"), 3u);  // gauges read live component state
}

// ---- histogram edge cases through the registry path (satellite) -------------

TEST(Registry, HistogramSingleSamplePercentilesAndCountBelow) {
  telemetry::Registry reg;
  auto h = reg.histogram("test.lat", "h", 1, "");
  h.add(0, 7);
  const metrics::LatencyHistogram* cell = h.cell(0);
  ASSERT_NE(cell, nullptr);
  EXPECT_EQ(cell->count(), 1u);
  EXPECT_EQ(cell->summary().count(), 1u);
  EXPECT_DOUBLE_EQ(cell->summary().min(), 7.0);
  EXPECT_DOUBLE_EQ(cell->summary().max(), 7.0);
  // Every percentile of a one-sample distribution is that sample.
  EXPECT_EQ(cell->percentile(0.0), 7);
  EXPECT_EQ(cell->percentile(0.5), 7);
  EXPECT_EQ(cell->percentile(1.0), 7);
  EXPECT_EQ(cell->count_below(7), 0u);   // strictly-below semantics
  EXPECT_EQ(cell->count_below(8), 1u);
}

TEST(Registry, HistogramAllEqualSamples) {
  telemetry::Registry reg;
  auto h = reg.histogram("test.lat", "h", 1, "");
  for (int i = 0; i < 100; ++i) h.add(0, 12);
  const metrics::LatencyHistogram* cell = h.cell(0);
  ASSERT_NE(cell, nullptr);
  EXPECT_EQ(cell->count(), 100u);
  EXPECT_EQ(cell->percentile(0.01), 12);
  EXPECT_EQ(cell->percentile(0.5), 12);
  EXPECT_EQ(cell->percentile(0.99), 12);
  EXPECT_EQ(cell->count_below(12), 0u);
  EXPECT_EQ(cell->count_below(13), 100u);
  EXPECT_DOUBLE_EQ(cell->fraction_below(13), 1.0);
}

// ---- prometheus export ------------------------------------------------------

TEST(Registry, PrometheusTextShape) {
  telemetry::Registry reg;
  auto c = reg.counter("kernel.test_ops", "operations issued", 2, "cpu");
  c.add(0, 3);
  c.add(1, 4);
  std::uint64_t v = 11;
  reg.gauge("test.depth", "queue depth", 1, "", [&](int) { return v; });
  auto h = reg.histogram("test.lat", "latency", 1, "");
  h.add(0, 10);
  h.add(0, 30);

  const std::string text = reg.prometheus_text();
  EXPECT_NE(text.find("# HELP shieldsim_kernel_test_ops operations issued"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE shieldsim_kernel_test_ops counter"),
            std::string::npos);
  EXPECT_NE(text.find("shieldsim_kernel_test_ops{cpu=\"0\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("shieldsim_kernel_test_ops{cpu=\"1\"} 4"),
            std::string::npos);
  EXPECT_NE(text.find("shieldsim_test_depth 11"), std::string::npos);
  EXPECT_NE(text.find("shieldsim_test_lat_count 2"), std::string::npos);
  EXPECT_NE(text.find("shieldsim_test_lat_sum_ns 40"), std::string::npos);
  EXPECT_NE(text.find("shieldsim_test_lat_max_ns 30"), std::string::npos);
  // Every non-comment line is "name[{labels}] value": a minimal parse of
  // the whole exposition, so one malformed series cannot hide.
  std::istringstream is(text);
  std::string line;
  while (std::getline(is, line)) {
    if (line.empty() || line[0] == '#') continue;
    const auto space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    EXPECT_EQ(line.compare(0, 10, "shieldsim_"), 0) << line;
    EXPECT_NO_THROW((void)std::stoull(line.substr(space + 1))) << line;
  }
}

// ---- flight recorder --------------------------------------------------------

TEST(FlightRecorder, DisabledByDefaultAndRecordsNothing) {
  telemetry::FlightRecorder fr;
  EXPECT_FALSE(fr.enabled());
  fr.record(10, telemetry::EventKind::kIrqRaise, 0, 5);
  EXPECT_EQ(fr.total_recorded(), 0u);
  EXPECT_TRUE(fr.entries().empty());
}

TEST(FlightRecorder, RingWrapsKeepingTheNewestEntriesOldestFirst) {
  telemetry::FlightRecorder fr;
  fr.enable(4);
  for (int i = 0; i < 6; ++i) {
    fr.record(static_cast<sim::Time>(i * 10), telemetry::EventKind::kCtxSwitch,
              0, i);
  }
  EXPECT_EQ(fr.total_recorded(), 6u);
  EXPECT_EQ(fr.dropped(), 2u);
  const auto entries = fr.entries();
  ASSERT_EQ(entries.size(), 4u);
  EXPECT_EQ(entries.front().a, 2);  // the two oldest fell off
  EXPECT_EQ(entries.back().a, 5);
  for (std::size_t i = 1; i < entries.size(); ++i) {
    EXPECT_LE(entries[i - 1].at, entries[i].at);
  }
}

TEST(FlightRecorder, ReenableWithNewCapacityClearsTheRing) {
  telemetry::FlightRecorder fr;
  fr.enable(4);
  fr.record(1, telemetry::EventKind::kIrqRaise, 0);
  fr.enable(8);
  EXPECT_EQ(fr.total_recorded(), 0u);
  EXPECT_EQ(fr.capacity(), 8u);
}

TEST(FlightRecorder, FreshSessionAtSameCapacityStartsEmpty) {
  // Regression: disable() + enable(same capacity) used to keep the old
  // session's ring and count, so the next dump resurfaced stale events.
  telemetry::FlightRecorder fr;
  fr.enable(4);
  fr.record(1, telemetry::EventKind::kIrqRaise, 0, 11);
  fr.record(2, telemetry::EventKind::kCtxSwitch, 0, 12);
  fr.disable();
  fr.enable(4);
  EXPECT_EQ(fr.total_recorded(), 0u);
  EXPECT_TRUE(fr.entries().empty());
  fr.record(3, telemetry::EventKind::kLockContend, 1, 13);
  const auto entries = fr.entries();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].a, 13);
  // A redundant enable() mid-session keeps the recording.
  fr.enable(4);
  EXPECT_EQ(fr.total_recorded(), 1u);
}

TEST(FlightRecorder, WrapBoundariesDropNothingValidAndEmitNothingStale) {
  // The edges the dump path has to get exactly right: a ring filled to
  // capacity (head back at 0, not yet wrapped past anything), one past it,
  // and one short of a second full lap.
  constexpr std::size_t kCap = 8;
  const auto fill = [](std::size_t n) {
    telemetry::FlightRecorder fr;
    fr.enable(kCap);
    for (std::size_t i = 0; i < n; ++i) {
      fr.record(static_cast<sim::Time>(i), telemetry::EventKind::kCtxSwitch, 0,
                static_cast<std::int32_t>(i));
    }
    return fr;
  };
  for (const std::size_t n : {kCap, kCap + 1, 2 * kCap - 1}) {
    const auto fr = fill(n);
    const auto entries = fr.entries();
    ASSERT_EQ(entries.size(), kCap) << n;
    EXPECT_EQ(fr.dropped(), n - kCap) << n;
    // Oldest surviving entry first, newest last, no uninitialized slots
    // and no gaps.
    for (std::size_t i = 0; i < kCap; ++i) {
      EXPECT_EQ(entries[i].a, static_cast<std::int32_t>(n - kCap + i)) << n;
    }
  }
}

TEST(FlightRecorder, EventKindNamesAreStable) {
  // The dump schema exposes these strings; renaming one breaks consumers.
  EXPECT_STREQ(to_string(telemetry::EventKind::kIrqRaise), "irq-raise");
  EXPECT_STREQ(to_string(telemetry::EventKind::kCtxSwitch), "ctx-switch");
  EXPECT_STREQ(to_string(telemetry::EventKind::kLockContend), "lock-contend");
  EXPECT_STREQ(to_string(telemetry::EventKind::kFaultFire), "fault-fire");
}

// ---- sampler ----------------------------------------------------------------

TEST(Sampler, StoresSparseDeltasPerTick) {
  sim::Engine e;
  telemetry::Registry reg;
  auto c = reg.counter("test.ops", "h", 1, "");
  reg.counter("test.quiet", "h", 1, "");
  telemetry::Sampler sampler(e, reg);
  sampler.start(10_us);
  e.schedule(5_us, [&] { c.add(0, 3); });
  e.schedule(15_us, [&] { c.add(0, 4); });
  e.run_until(30_us);
  sampler.stop();

  const auto& points = sampler.points();
  ASSERT_EQ(points.size(), 3u);
  EXPECT_EQ(points[0].at, 10'000);
  ASSERT_EQ(points[0].deltas.size(), 1u);  // the quiet series costs nothing
  EXPECT_EQ(points[0].deltas[0].second, 3u);
  ASSERT_EQ(points[1].deltas.size(), 1u);
  EXPECT_EQ(points[1].deltas[0].second, 4u);
  EXPECT_TRUE(points[2].deltas.empty());  // nothing moved in the last tick
}

TEST(Sampler, LateRegistrationGetsAZeroBaseline) {
  sim::Engine e;
  telemetry::Registry reg;
  reg.counter("test.early", "h", 1, "");
  telemetry::Sampler sampler(e, reg);
  sampler.start(10_us);
  telemetry::Registry::Counter late;
  e.schedule(12_us, [&] {
    late = reg.counter("test.late", "h", 1, "");
    late.add(0, 6);
  });
  e.run_until(20_us);
  sampler.stop();
  ASSERT_EQ(sampler.points().size(), 2u);
  const auto& deltas = sampler.points()[1].deltas;
  ASSERT_EQ(deltas.size(), 1u);
  EXPECT_EQ(deltas[0].first, 1u);  // flattened index of the new series
  EXPECT_EQ(deltas[0].second, 6u);
}

TEST(Sampler, StopCancelsAndARunDoesNotGrowPoints) {
  sim::Engine e;
  telemetry::Registry reg;
  telemetry::Sampler sampler(e, reg);
  sampler.start(10_us);
  e.run_until(20_us);
  sampler.stop();
  const auto n = sampler.points().size();
  e.run_until(100_us);
  EXPECT_EQ(sampler.points().size(), n);
}

// ---- procfs and the counters agree (satellite) ------------------------------

TEST(TelemetryIntegration, ProcfsAndJsonReportTheSameCounters) {
  // Run a scenario whose plan exercises the PR 4 counters (softirq flood,
  // lock-holder delay), then check every /proc/latency/cpuN field against
  // Kernel::latency_counter for the same series. Agreement is by
  // construction — procfs renders latency_counter_views() from the
  // registry — but this pins the contract.
  auto spec = spec_of("faults-storm-shielded");
  fault::FaultSpec holder;
  holder.kind = fault::FaultKind::kLockHolderDelay;
  holder.lock = "dcache";
  holder.rate_hz = 200.0;
  holder.min_ns = 20'000;
  holder.max_ns = 60'000;
  spec.faults.faults.push_back(holder);

  config::ScenarioRunner::Options ro;
  ro.scale = 0.005;
  config::ScenarioRunner runner(ro);
  bool checked = false;
  config::ScenarioRunner::Hooks hooks;
  hooks.finished = [&](config::Platform& p, rt::Probe&) {
    kernel::Kernel& k = p.kernel();
    std::uint64_t softirq_raised = 0, lock_hold = 0;
    for (int c = 0; c < k.ncpus(); ++c) {
      const auto text =
          k.procfs().read("/proc/latency/cpu" + std::to_string(c)).value();
      for (const auto& view : kernel::latency_counter_views()) {
        const std::uint64_t counter = k.latency_counter(view.series, c);
        // The procfs line for the same counter.
        const std::string needle = std::string(view.key) + " ";
        const auto pos = text.find(needle);
        ASSERT_NE(pos, std::string::npos) << view.key;
        const auto value = std::stoull(text.substr(pos + needle.size()));
        EXPECT_EQ(counter, value)
            << view.key << " on cpu" << c << " disagrees between "
            << "/proc/latency/cpu" << c << " and Kernel::latency_counter";
        if (std::string(view.key) == "softirq_raised") {
          softirq_raised += counter;
        }
        if (std::string(view.key) == "lock_hold_ns") {
          lock_hold += counter;
        }
      }
    }
    // The PR 4 fault counters must actually be live in both views.
    EXPECT_GT(softirq_raised, 0u);
    EXPECT_GT(lock_hold, 0u);
    checked = true;
  };
  (void)runner.run(spec, 2003, hooks);
  EXPECT_TRUE(checked);
}

// ---- reset (satellite) ------------------------------------------------------

TEST(TelemetryIntegration, ResetLatencyCountersStartsASecondRunFromZero) {
  config::Platform p(config::MachineConfig::dual_p3_xeon_933(),
                     config::KernelConfig::vanilla_2_4_20(), 7);
  workload::make_workload("stress-kernel", config::json::Value::object())
      ->install(p);
  p.boot();
  p.run_for(100_ms);
  kernel::Kernel& k = p.kernel();
  EXPECT_GT(k.latency_counter("sched.switches", 0), 0u);
  EXPECT_GT(k.latency_counter("kernel.irq_time_ns", 0), 0u);

  k.reset_latency_counters();
  for (int c = 0; c < k.ncpus(); ++c) {
    for (const auto& view : kernel::latency_counter_views()) {
      EXPECT_EQ(k.latency_counter(view.series, c), 0u)
          << view.series << " on cpu" << c << " survived reset";
    }
  }
  // The accounting rebuilds from zero on the same kernel: a second
  // measurement window is independent of the first.
  p.run_for(100_ms);
  EXPECT_GT(k.latency_counter("sched.switches", 0), 0u);
}

TEST(TelemetryIntegration, ResetLeavesNoResidueInAnyRegistrySeries) {
  // The engine-reuse audit: after a warmed-up platform resets its counters,
  // *every* series in the registry must read zero — counters, histograms
  // and gauges alike (gauges read through to component state, so a nonzero
  // gauge here means some component kept first-window residue). The
  // allowlist names series that are genuinely allowed to survive; today it
  // is empty, and additions need a written justification.
  const std::set<std::string> allowlist = {};

  config::Platform p(config::MachineConfig::dual_p3_xeon_933(),
                     config::KernelConfig::vanilla_2_4_20(), 7);
  workload::make_workload("stress-kernel", config::json::Value::object())
      ->install(p);
  p.boot();
  p.engine().chain_tracer().enable();
  p.engine().flight_recorder().enable(64);
  p.run_for(100_ms);

  // The first window actually exercised the residue carriers.
  EXPECT_GT(p.engine().chain_tracer().opened(), 0u);
  EXPECT_GT(p.engine().flight_recorder().total_recorded(), 0u);

  p.kernel().reset_latency_counters();

  const auto names = p.engine().telemetry().series_names();
  const auto values = p.engine().telemetry().snapshot_values();
  ASSERT_EQ(names.size(), values.size());
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (allowlist.count(names[i]) > 0) continue;
    EXPECT_EQ(values[i], 0u) << names[i] << " survived reset";
  }
  EXPECT_EQ(p.engine().chain_tracer().opened(), 0u);
  EXPECT_EQ(p.engine().chain_tracer().completed(), 0u);
  EXPECT_EQ(p.engine().chain_tracer().dropped(), 0u);
  EXPECT_EQ(p.engine().flight_recorder().total_recorded(), 0u);
  EXPECT_TRUE(p.engine().flight_recorder().entries().empty());
}

// ---- spec plumbing ----------------------------------------------------------

TEST(TelemetryPlan, DefaultPlanIsNotSerializedAndDigestsAreUnchanged) {
  const auto base = spec_of("fig6");
  EXPECT_EQ(base.to_json().find("telemetry"), nullptr);
  auto with_default = base;
  with_default.telemetry = config::TelemetryPlan{};
  EXPECT_EQ(base.digest(), with_default.digest());
}

TEST(TelemetryPlan, RoundTripsThroughJson) {
  auto spec = spec_of("fig6");
  spec.telemetry.sampler = true;
  spec.telemetry.sample_period_ns = 5_ms;
  spec.telemetry.flight_recorder = true;
  spec.telemetry.flight_capacity = 128;
  const auto back = config::ScenarioSpec::from_json(spec.to_json());
  EXPECT_TRUE(back.telemetry.sampler);
  EXPECT_EQ(back.telemetry.sample_period_ns, 5_ms);
  EXPECT_TRUE(back.telemetry.flight_recorder);
  EXPECT_EQ(back.telemetry.flight_capacity, 128);
  EXPECT_EQ(back.digest(), spec.digest());
}

TEST(TelemetryPlan, UnknownKeysAndBadValuesAreRejected) {
  auto spec = spec_of("fig6");
  auto v = spec.to_json();
  auto t = config::json::Value::object();
  t.set("samplre", true);  // typo'd key
  v.set("telemetry", t);
  EXPECT_THROW((void)config::ScenarioSpec::from_json(v), std::runtime_error);

  spec.telemetry.sampler = true;
  spec.telemetry.sample_period_ns = 0;
  EXPECT_THROW(spec.validate(), std::runtime_error);
  spec.telemetry.sample_period_ns = 1_ms;
  spec.telemetry.flight_recorder = true;
  spec.telemetry.flight_capacity = 0;
  EXPECT_THROW(spec.validate(), std::runtime_error);
}

// ---- runner integration -----------------------------------------------------

TEST(TelemetryIntegration, SamplerDoesNotPerturbTheSimulation) {
  // The hard neutrality claim: with the sampler on, the probe's histograms
  // are bit-identical to the plain run — telemetry observes, never steers.
  const auto base = spec_of("faults-storm-shielded");
  auto observed = base;
  observed.telemetry.sampler = true;
  config::ScenarioRunner::Options ro;
  ro.scale = 0.005;
  config::ScenarioRunner runner(ro);
  const auto plain = runner.run(base, 11);
  const auto with = runner.run(observed, 11);
  EXPECT_EQ(plain.to_json().find("probe")->dump(),
            with.to_json().find("probe")->dump());
  EXPECT_TRUE(plain.telemetry.is_null());
  ASSERT_FALSE(with.telemetry.is_null());
  EXPECT_EQ(with.telemetry.find("schema")->as_string(), "telemetry-v1");
  const auto& points = with.telemetry.find("timeline")->find("points")->items();
  EXPECT_FALSE(points.empty());
  // Each sampler tick is one calendar event and records one timeline point,
  // so the executed-event count grows by exactly the points: the sampler
  // schedules nothing else and the model schedules nothing differently.
  EXPECT_EQ(with.events, plain.events + points.size());
}

TEST(TelemetryIntegration, ResultTelemetryRoundTripsThroughTheJournal) {
  auto spec = spec_of("faults-smi-shielded");
  spec.telemetry.sampler = true;
  config::ScenarioRunner::Options ro;
  ro.scale = 0.005;
  config::ScenarioRunner runner(ro);
  const auto fresh = runner.run_outcome(spec, 3);
  ASSERT_TRUE(fresh.result.has_value());
  ASSERT_FALSE(fresh.result->telemetry.is_null());
  const std::string dir = testutil::temp_dir("telemetry_journal_test");
  {
    config::CampaignJournal j(dir);
    j.write_done(spec.name, spec.digest(), 3, fresh);
  }
  const auto replay = config::CampaignJournal::replay(dir);
  std::filesystem::remove_all(dir);
  ASSERT_EQ(replay.done.count(spec.name), 1u);
  const auto& back = replay.done.at(spec.name).outcome;
  ASSERT_TRUE(back.result.has_value());
  EXPECT_EQ(back.result->telemetry.dump(), fresh.result->telemetry.dump());
  EXPECT_EQ(back.to_full_json().dump(), fresh.to_full_json().dump());
}

TEST(TelemetryIntegration, WatchdogTimeoutCarriesAFlightDump) {
  const auto spec = spec_of("faults-storm-shielded");
  config::ScenarioRunner::Options ro;
  ro.scale = 0.02;
  ro.max_events = 20'000;  // fires long before the horizon
  config::ScenarioRunner runner(ro);
  const auto out = runner.run_outcome(spec, 2003);
  EXPECT_EQ(out.status, config::RunStatus::kTimedOut);
  ASSERT_FALSE(out.flight_recording.is_null());
  EXPECT_EQ(out.flight_recording.find("schema")->as_string(),
            "flight-recorder-v1");
  const auto* events = out.flight_recording.find("events");
  ASSERT_NE(events, nullptr);
  EXPECT_FALSE(events->items().empty());
  // And the batch report carries it to disk consumers.
  const auto report_json = config::BatchReport{{out}, 0}.to_json();
  const auto& outcome = report_json.find("outcomes")->items().at(0);
  EXPECT_NE(outcome.find("flight_recording"), nullptr);
}

TEST(TelemetryIntegration, FlightDumpJsonMatchesTheRing) {
  telemetry::FlightRecorder fr;
  fr.enable(8);
  fr.record(100, telemetry::EventKind::kIrqRaise, -1, 10);
  fr.record(200, telemetry::EventKind::kLockContend, 1, 3, 0);
  const auto v = config::flight_dump_json(fr);
  EXPECT_EQ(v.find("schema")->as_string(), "flight-recorder-v1");
  EXPECT_EQ(v.find("capacity")->as_u64(), 8u);
  EXPECT_EQ(v.find("dropped")->as_u64(), 0u);
  const auto& events = v.find("events")->items();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].find("t_ns")->as_u64(), 100u);
  EXPECT_EQ(events[0].find("kind")->as_string(), "irq-raise");
  EXPECT_EQ(events[1].find("cpu")->as_i64(), 1);
  EXPECT_EQ(events[1].find("a")->as_i64(), 3);
}

}  // namespace
