// The timeline/blame observability layer: EventKind name exhaustiveness,
// Chrome Trace export structure, the blame collector's partition invariant
// (synthetic chains and every builtin spec), campaign rollup arithmetic,
// flight dumps on successful runs, and the passivity contracts — enabling
// timeline/blame leaves run outputs bit-identical and survives mid-run
// snapshot/restore.
#include <gtest/gtest.h>

#include <cstdint>
#include <initializer_list>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "config/experiment.h"
#include "config/json.h"
#include "config/scenario.h"
#include "config/scenario_runner.h"
#include "config/telemetry_export.h"
#include "sim/trace.h"
#include "telemetry/flight_recorder.h"
#include "telemetry/timeline.h"

using namespace sim::literals;

namespace {

config::ScenarioSpec spec_of(const char* name) {
  const auto* s = config::ScenarioRegistry::builtin().find(name);
  EXPECT_NE(s, nullptr) << name;
  return *s;
}

/// A synthetic completed chain whose segments partition [start, start+sum)
/// in order — the same shape the tracer produces.
sim::LatencyChain make_chain(
    std::string origin, sim::Time start,
    std::initializer_list<std::pair<sim::SegmentKind, sim::Duration>> parts,
    std::string spin_detail = {}) {
  sim::LatencyChain c;
  c.origin = std::move(origin);
  c.start = start;
  sim::Time at = start;
  for (const auto& [kind, span] : parts) {
    sim::ChainSegment seg;
    seg.kind = kind;
    seg.cpu = 0;
    seg.begin = at;
    at += span;
    seg.end = at;
    if (kind == sim::SegmentKind::kSpinWait) seg.detail = spin_detail;
    c.segments.push_back(std::move(seg));
  }
  c.end = at;
  EXPECT_EQ(c.segment_total(), c.total());
  return c;
}

std::uint64_t causes_sum(
    const std::map<std::string, telemetry::BlameCollector::CauseTotal>& m) {
  std::uint64_t ns = 0;
  for (const auto& [key, total] : m) {
    (void)key;
    ns += total.ns;
  }
  return ns;
}

// ---- EventKind names --------------------------------------------------------

TEST(EventKindNames, ExhaustiveUniqueAndStable) {
  // The compile-time guard (static_assert on the name table) catches a
  // missing entry; this catches a duplicated or placeholder one, and pins
  // the names tools and dumps already depend on.
  std::set<std::string> seen;
  for (int k = 0; k < static_cast<int>(telemetry::EventKind::kCount); ++k) {
    const char* name =
        telemetry::to_string(static_cast<telemetry::EventKind>(k));
    ASSERT_NE(name, nullptr) << k;
    EXPECT_FALSE(std::string(name).empty()) << k;
    EXPECT_STRNE(name, "?") << k;
    EXPECT_TRUE(seen.insert(name).second) << "duplicate name: " << name;
  }
  EXPECT_STREQ(telemetry::to_string(telemetry::EventKind::kIrqRaise),
               "irq-raise");
  EXPECT_STREQ(telemetry::to_string(telemetry::EventKind::kOobStage),
               "oob-stage");
  EXPECT_STREQ(telemetry::to_string(telemetry::EventKind::kIrqOffSpan),
               "irq-off-span");
  // Out-of-range values render the placeholder instead of reading past the
  // table.
  EXPECT_STREQ(telemetry::to_string(telemetry::EventKind::kCount), "?");
}

// ---- Chrome Trace export ----------------------------------------------------

TEST(ChromeTrace, SyntheticRingRendersAValidDocument) {
  telemetry::FlightRecorder ring;
  ring.enable(64);
  ring.record(1'000, telemetry::EventKind::kIrqRaise, 0, 8);
  ring.record(2'000, telemetry::EventKind::kIrqDispatch, 0, 8);
  ring.record(9'000, telemetry::EventKind::kIrqSpan, 0, 8, 7'000);
  ring.record(12'000, telemetry::EventKind::kCtxSwitch, 0, 42, 1);
  ring.record(20'000, telemetry::EventKind::kSoftirqSpan, 1, 0, 5'000);
  ring.record(30'000, telemetry::EventKind::kLockRelease, 1, 3, 4'000);
  ring.record(31'000, telemetry::EventKind::kOobStage, 0, 2'500);
  ring.record(40'000, telemetry::EventKind::kIrqOffSpan, 1, 6'000);

  telemetry::TimelineOptions to;
  to.ncpus = 2;
  to.lock_name = [](int) { return std::string("mylock"); };
  const auto chains = std::vector<sim::LatencyChain>{
      make_chain("irq8", 1'000,
                 {{sim::SegmentKind::kIrqRaise, 1'000},
                  {sim::SegmentKind::kIrqHandler, 6'000},
                  {sim::SegmentKind::kRunqueueWait, 3'000},
                  {sim::SegmentKind::kContextSwitch, 1'000},
                  {sim::SegmentKind::kKernelExit, 1'000}})};
  const std::string text = telemetry::chrome_trace_json(ring, chains, to);

  const auto doc = config::json::Value::parse(text);
  EXPECT_EQ(doc.find("otherData")->find("schema")->as_string(),
            "trace-event-v1");
  const auto* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_FALSE(events->items().empty());
  bool saw_lock = false;
  bool saw_oob = false;
  for (const auto& ev : events->items()) {
    ASSERT_NE(ev.find("ph"), nullptr);
    ASSERT_NE(ev.find("name"), nullptr);
    const auto name = ev.find("name")->as_string();
    if (name.find("mylock") != std::string::npos) saw_lock = true;
    if (name.find("oob") != std::string::npos) saw_oob = true;
    if (ev.find("ph")->as_string() != "X") continue;
    // Every complete span carries the exact-nanosecond mirror the
    // microsecond ts/dur fields are derived from.
    const auto* args = ev.find("args");
    ASSERT_NE(args, nullptr) << name;
    ASSERT_NE(args->find("ns"), nullptr) << name;
    ASSERT_NE(args->find("dur_ns"), nullptr) << name;
  }
  EXPECT_TRUE(saw_lock) << "lock symbolizer unused";
  EXPECT_TRUE(saw_oob) << "oob stall missing from the timeline";
}

// ---- blame: partition invariant ---------------------------------------------

TEST(Blame, WorstSamplesPartitionExactly) {
  telemetry::BlameCollector::Options bo;
  bo.worst_n = 2;
  telemetry::BlameCollector blame(bo);
  blame.on_sample(make_chain("irq8", 0,
                             {{sim::SegmentKind::kIrqRaise, 100},
                              {sim::SegmentKind::kIrqHandler, 900}}));
  blame.on_sample(make_chain("irq8", 10'000,
                             {{sim::SegmentKind::kIrqRaise, 50},
                              {sim::SegmentKind::kSpinWait, 9'000},
                              {sim::SegmentKind::kKernelExit, 950}},
                             "dcache_lock"));
  blame.on_sample(make_chain("ktimer", 50'000,
                             {{sim::SegmentKind::kTimerExpiry, 200},
                              {sim::SegmentKind::kRunqueueWait, 300}}));

  const auto a = blame.attribution();
  EXPECT_EQ(a.samples_seen, 3u);
  EXPECT_EQ(a.samples_attributed, 2u);  // worst_n bounds the retained set
  ASSERT_EQ(a.worst.size(), 2u);
  // Largest first, and each worst sample's causes sum exactly to its total.
  EXPECT_EQ(a.worst[0].total_ns, 10'000u);
  EXPECT_EQ(a.worst[0].origin, "irq8");
  EXPECT_GE(a.worst[0].total_ns, a.worst[1].total_ns);
  for (const auto& sample : a.worst) {
    EXPECT_EQ(causes_sum(sample.causes), sample.total_ns) << sample.origin;
  }
  // The contended lock is split out as its own cause key.
  EXPECT_EQ(a.worst[0].causes.at("spin-wait/dcache_lock").ns, 9'000u);
  // Band totals account for every attributed sample.
  std::uint64_t banded = 0;
  for (const auto& band : a.bands) banded += band.samples;
  EXPECT_EQ(banded, a.samples_attributed);
  // The aggregate is the fold of the retained samples.
  EXPECT_EQ(causes_sum(a.causes), 10'000u + 1'000u);
}

TEST(Blame, ThresholdModeAttributesEveryQualifyingSample) {
  telemetry::BlameCollector::Options bo;
  bo.worst_n = 1;  // trees bounded, aggregate is not
  bo.threshold_ns = 1'000;
  telemetry::BlameCollector blame(bo);
  blame.on_sample(
      make_chain("irq8", 0, {{sim::SegmentKind::kIrqHandler, 500}}));
  blame.on_sample(
      make_chain("irq8", 1'000, {{sim::SegmentKind::kIrqHandler, 2'000}}));
  blame.on_sample(
      make_chain("irq8", 5'000, {{sim::SegmentKind::kRunqueueWait, 3'000}}));
  const auto a = blame.attribution();
  EXPECT_EQ(a.samples_seen, 3u);
  EXPECT_EQ(a.samples_attributed, 2u);  // the 500 ns sample is below the bar
  EXPECT_EQ(causes_sum(a.causes), 5'000u);
  EXPECT_EQ(a.worst.size(), 1u);
}

TEST(Blame, EveryBuiltinSpecPartitions) {
  // The acceptance invariant: for every builtin spec run with blame on,
  // every retained worst sample is *fully* explained — its cause
  // nanoseconds sum exactly to the sample total, never approximately.
  config::ScenarioRunner::Options opt;
  opt.scale = 0.01;  // smoke scale: full coverage, bounded runtime
  config::ScenarioRunner runner(opt);
  std::uint64_t attributed_total = 0;
  for (const auto& spec : config::ScenarioRegistry::builtin().all()) {
    auto with = spec;
    with.telemetry.blame = true;
    const auto r = runner.run(with, 2003);
    const auto* att = r.telemetry.find("attribution");
    ASSERT_NE(att, nullptr) << spec.name;
    EXPECT_EQ(att->find("schema")->as_string(), "attribution-v1");
    const auto* worst = att->find("worst");
    ASSERT_NE(worst, nullptr) << spec.name;
    for (const auto& sample : worst->items()) {
      std::uint64_t sum = 0;
      for (const auto& [key, cause] : sample.find("causes")->members()) {
        (void)key;
        sum += cause.find("ns")->as_u64();
      }
      EXPECT_EQ(sum, sample.find("total_ns")->as_u64())
          << spec.name << ": sample at t=" << sample.find("start_ns")->as_u64();
    }
    // Bands account for every attributed sample.
    std::uint64_t banded = 0;
    for (const auto& band : att->find("bands")->items()) {
      banded += band.find("samples")->as_u64();
    }
    EXPECT_EQ(banded, att->find("samples_attributed")->as_u64()) << spec.name;
    attributed_total += att->find("samples_attributed")->as_u64();
  }
  // The probes really exercised the collector across the registry.
  EXPECT_GT(attributed_total, 0u);
}

// ---- campaign rollup --------------------------------------------------------

TEST(Blame, RollupTotalsEqualTheSumOfScenarios) {
  telemetry::BlameCollector a;
  a.on_sample(make_chain("irq8", 0,
                         {{sim::SegmentKind::kIrqRaise, 100},
                          {sim::SegmentKind::kIrqHandler, 400}}));
  telemetry::BlameCollector b;
  b.on_sample(make_chain("irq8", 0,
                         {{sim::SegmentKind::kIrqRaise, 50},
                          {sim::SegmentKind::kRunqueueWait, 2'000}}));
  b.on_sample(make_chain("ktimer", 9'000,
                         {{sim::SegmentKind::kTimerExpiry, 700}}));
  const auto da = config::attribution_json(a.attribution());
  const auto db = config::attribution_json(b.attribution());
  const auto roll = config::attribution_rollup_json({&da, &db});
  EXPECT_EQ(roll.find("schema")->as_string(), "attribution-rollup-v1");
  EXPECT_EQ(roll.find("scenarios")->as_u64(), 2u);
  EXPECT_EQ(roll.find("samples_seen")->as_u64(), 3u);
  for (const auto& [key, total] : roll.find("causes")->members()) {
    std::uint64_t ns = 0;
    std::uint64_t count = 0;
    for (const auto* doc : {&da, &db}) {
      if (const auto* c = doc->find("causes")->find(key)) {
        ns += c->find("ns")->as_u64();
        count += c->find("count")->as_u64();
      }
    }
    EXPECT_EQ(total.find("ns")->as_u64(), ns) << key;
    EXPECT_EQ(total.find("count")->as_u64(), count) << key;
  }
  EXPECT_EQ(roll.find("causes")->find("irq-raise")->find("ns")->as_u64(),
            150u);
  // No documents → no rollup (reports keep their exact serialized form).
  EXPECT_TRUE(config::attribution_rollup_json({}).is_null());
}

// ---- flight dumps on success ------------------------------------------------

TEST(FlightDump, AttachesToSuccessfulRuns) {
  config::ScenarioRunner::Options opt;
  opt.scale = 0.01;
  opt.flight_dump = config::ScenarioRunner::Options::FlightDump::kFull;
  config::ScenarioRunner runner(opt);
  const auto r = runner.run(spec_of("fig2"), 2003);
  ASSERT_FALSE(r.flight_recording.is_null());
  EXPECT_EQ(r.flight_recording.find("schema")->as_string(),
            "flight-recorder-v1");
  EXPECT_EQ(r.flight_recording.find("trigger"), nullptr);
  const auto* events = r.flight_recording.find("events");
  ASSERT_NE(events, nullptr);
  EXPECT_FALSE(events->items().empty());
}

TEST(FlightDump, WorstWindowModeMarksItsTrigger) {
  config::ScenarioRunner::Options opt;
  opt.scale = 0.01;
  opt.flight_dump = config::ScenarioRunner::Options::FlightDump::kWorst;
  config::ScenarioRunner runner(opt);
  // fig6's realfeel probe rides the irq wakeup path, so its samples open
  // latency chains (fig2's in-kernel probe does not produce any).
  const auto r = runner.run(spec_of("fig6"), 2003);
  ASSERT_FALSE(r.flight_recording.is_null());
  const auto* trigger = r.flight_recording.find("trigger");
  ASSERT_NE(trigger, nullptr) << "window snapshot never triggered";
  EXPECT_EQ(trigger->as_string(), "worst-sample");
  EXPECT_FALSE(r.flight_recording.find("events")->items().empty());
}

// ---- passivity: bit identity and spec digests -------------------------------

TEST(Timeline, ObservabilityLeavesRunOutputsBitIdentical) {
  // The whole stack — ring, chain tracer, blame collector — is passive:
  // enabling it must not change one simulated byte of the figures.
  config::ScenarioRunner::Options opt;
  opt.scale = 0.01;
  config::ScenarioRunner runner(opt);
  for (const char* name :
       {"fig2", "fig6", "mech-rcim-oob", "faults-storm-unshielded"}) {
    const auto plain = spec_of(name);
    auto with = plain;
    with.telemetry.timeline = true;
    with.telemetry.blame = true;
    with.telemetry.flight_recorder = true;
    const auto a = runner.run(plain, 2003);
    const auto b = runner.run(with, 2003);
    EXPECT_EQ(a.to_json().find("probe")->dump(),
              b.to_json().find("probe")->dump())
        << name;
    EXPECT_EQ(a.events, b.events) << name;
    EXPECT_EQ(a.duration_ns, b.duration_ns) << name;
  }
}

TEST(Timeline, KnobDefaultsAreDigestNeutral) {
  // The new telemetry knobs serialize only when non-default, so specs that
  // never mention them keep their exact pre-timeline digests (and their
  // journaled outcomes). Tuning knobs under a disabled feature stays neutral
  // too: blame_worst is meaningless while blame is off.
  const auto spec = spec_of("fig2");
  auto copy = spec;
  copy.telemetry.blame_worst = 4;
  EXPECT_EQ(copy.digest(), spec.digest());
  EXPECT_EQ(copy.to_json().dump(), spec.to_json().dump());

  auto with = spec;
  with.telemetry.blame = true;
  with.telemetry.blame_worst = 4;
  with.telemetry.timeline = true;
  EXPECT_NE(with.digest(), spec.digest());
  // ...and the enabled form round-trips through JSON digest-exactly.
  const auto back = config::ScenarioSpec::from_json(
      config::json::Value::parse(with.to_json().dump()));
  EXPECT_EQ(back.digest(), with.digest());
  EXPECT_TRUE(back.telemetry.blame);
  EXPECT_EQ(back.telemetry.blame_worst, 4);
  EXPECT_TRUE(back.telemetry.timeline);
}

TEST(SnapshotBitIdentity, BlameEnabledSpecSurvivesMidRunRestore) {
  // The collector's worst-set and aggregates are run state: a mid-run
  // restore must rewind them with everything else, or the resumed leg's
  // attribution (and its exported JSON) would diverge.
  config::ScenarioRunner::Options opt;
  opt.scale = 0.01;
  config::ScenarioRunner runner(opt);
  for (const char* name : {"fig2", "mech-rcim-oob"}) {
    auto spec = spec_of(name);
    spec.telemetry.blame = true;
    spec.telemetry.timeline = true;
    const auto check = runner.snapshot_bit_identity(spec, 2003);
    EXPECT_TRUE(check.identical)
        << name << ": continued " << (check.baseline == check.continued)
        << ", resumed " << (check.baseline == check.resumed);
  }
}

}  // namespace
