// Crash-isolated campaign execution: the write-ahead campaign journal
// (checksummed JSONL, replay, merge identity) and the supervised
// multi-process executor (respawn with backoff, crash taxonomy, hang
// detection, quarantine).
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "config/experiment.h"
#include "config/journal.h"
#include "config/scenario_runner.h"
#include "config/supervisor.h"
#include "fault/fault_plan.h"
#include "kernel_test_util.h"
#include "sim/rng.h"
#include "sim/time.h"

namespace {

config::ScenarioSpec spec_of(const char* name) {
  const auto* s = config::ScenarioRegistry::builtin().find(name);
  EXPECT_NE(s, nullptr) << name;
  return *s;
}

/// A fast scenario whose hosting process dies (or wedges) 200 ms of
/// simulated time into the run — the same shape as the chaos fixtures in
/// tests/data/.
config::ScenarioSpec chaos_spec(fault::FaultKind kind) {
  auto s = spec_of("fig6");
  s.name = kind == fault::FaultKind::kHostCrash ? "chaos-host-crash"
                                                : "chaos-host-hang";
  s.probe_params.set("samples", 2000);  // ~1 s of simulated probe time
  fault::FaultSpec f;
  f.kind = kind;
  f.start = 200 * sim::kMillisecond;
  s.faults.faults.push_back(f);
  return s;
}

std::string read_text(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return {};
  std::string text;
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) text.append(buf, n);
  std::fclose(f);
  return text;
}

void append_text(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "ab");
  ASSERT_NE(f, nullptr);
  std::fwrite(text.data(), 1, text.size(), f);
  std::fclose(f);
}

}  // namespace

// ---- campaign journal -------------------------------------------------------

TEST(CampaignJournal, ReplayRoundTripsRecordsAndRetiresInFlight) {
  const std::string dir = testutil::temp_dir("journal_roundtrip_test");
  config::RunOutcome done_out;
  done_out.name = "a";
  done_out.status = config::RunStatus::kOk;
  {
    config::CampaignJournal j(dir);
    j.write_campaign(2003, 0.01, 3);
    j.write_start("a", "da", 11);
    j.write_start("b", "db", 22);
    j.write_done("a", "da", 11, done_out);
    auto inc = config::json::Value::object();
    inc.set("type", "worker-crash");
    j.write_incident(inc);
  }
  const auto replay = config::CampaignJournal::replay(dir);
  ASSERT_TRUE(replay.campaign.has_value());
  EXPECT_EQ(replay.campaign->root_seed, 2003u);
  EXPECT_EQ(replay.campaign->scale, 0.01);
  EXPECT_EQ(replay.campaign->spec_count, 3u);
  EXPECT_EQ(replay.records, 5u);
  EXPECT_EQ(replay.corrupt_lines, 0u);
  // "a" started and finished: adopted. "b" started and never finished:
  // in-flight, to be re-queued by a resume.
  ASSERT_EQ(replay.done.size(), 1u);
  EXPECT_EQ(replay.done.at("a").digest, "da");
  EXPECT_EQ(replay.done.at("a").seed, 11u);
  EXPECT_EQ(replay.done.at("a").outcome.status, config::RunStatus::kOk);
  EXPECT_EQ(replay.in_flight.size(), 1u);
  EXPECT_EQ(replay.in_flight.count("b"), 1u);
  ASSERT_EQ(replay.incidents.size(), 1u);
  EXPECT_EQ(replay.incidents[0].find("type")->as_string(), "worker-crash");
  std::filesystem::remove_all(dir);
}

TEST(CampaignJournal, MissingFileYieldsEmptyReplay) {
  const auto replay = config::CampaignJournal::replay("no_such_journal_dir");
  EXPECT_FALSE(replay.campaign.has_value());
  EXPECT_EQ(replay.records, 0u);
  EXPECT_TRUE(replay.done.empty());
  EXPECT_TRUE(replay.in_flight.empty());
}

TEST(CampaignJournal, CampaignRecordRoundTripsFlightDumpMode) {
  // A flight-dump run's done record carries its ring, so the campaign
  // record says which mode a journal holds. With no mode on the record has
  // no "flight_dump" key at all.
  const std::string dump_dir = testutil::temp_dir("journal_dump_test");
  const std::string plain_dir = testutil::temp_dir("journal_plain_test");
  {
    config::CampaignJournal dump(dump_dir);
    dump.write_campaign(2003, 0.01, 3, "worst");
    config::CampaignJournal plain(plain_dir);
    plain.write_campaign(2003, 0.01, 3);
  }
  const auto dump = config::CampaignJournal::replay(dump_dir);
  ASSERT_TRUE(dump.campaign.has_value());
  EXPECT_EQ(dump.campaign->flight_dump, "worst");
  EXPECT_EQ(dump.campaign->root_seed, 2003u);
  EXPECT_EQ(dump.campaign->spec_count, 3u);
  const auto plain = config::CampaignJournal::replay(plain_dir);
  ASSERT_TRUE(plain.campaign.has_value());
  EXPECT_EQ(plain.campaign->flight_dump, "");
  EXPECT_NE(read_text(dump_dir + "/journal.jsonl")
                .find("\"flight_dump\":\"worst\""),
            std::string::npos);
  EXPECT_EQ(read_text(plain_dir + "/journal.jsonl").find("flight_dump"),
            std::string::npos);
  std::filesystem::remove_all(plain_dir);

  // A checksum-valid campaign record with a mistyped key is corrupt as a
  // whole: it leaves no campaign identity behind.
  std::remove((dump_dir + "/journal.jsonl").c_str());
  append_text(dump_dir + "/journal.jsonl",
              config::json::seal(config::CampaignJournal::kFormat, "record",
                                 config::json::Value::parse(
                                     R"({"event":"campaign","root_seed":1,)"
                                     R"("scale":1,"specs":1,"flight_dump":1})"))
                      .dump() +
                  "\n");
  const auto mistyped = config::CampaignJournal::replay(dump_dir);
  EXPECT_FALSE(mistyped.campaign.has_value());
  EXPECT_EQ(mistyped.corrupt_lines, 1u);
  std::filesystem::remove_all(dump_dir);
}

TEST(CampaignJournal, CorruptAndTornLinesAreSkippedAndCounted) {
  const std::string dir = testutil::temp_dir("journal_corrupt_test");
  {
    config::CampaignJournal j(dir);
    j.write_campaign(7, 1.0, 1);
    config::RunOutcome out;
    out.name = "a";
    j.write_done("a", "da", 5, out);
  }
  const std::string path = dir + "/journal.jsonl";
  const std::string format = config::CampaignJournal::kFormat;
  const auto sealed = [&](const std::string& fmt,
                          const config::json::Value& rec) {
    append_text(path, config::json::seal(fmt, "record", rec).dump() + "\n");
  };
  // Corruption menu: plain garbage, a checksum-failing envelope, records
  // whose checksum is valid but which lack a required field, a valid done
  // record whose histogram summary claims one sample but carries none of
  // its moments (the parser must reject it, not dereference the missing
  // fields), and a torn tail line (a SIGKILLed writer's last breath — no
  // newline).
  append_text(path, "not json at all\n");
  append_text(path, "{\"format\":\"" + format +
                        "\",\"checksum\":\"beef\","
                        "\"record\":{\"event\":\"done\",\"name\":\"evil\"}}\n");
  for (const char* rec :
       {R"({"event":"start"})", R"({"name":"a","seed":5})",
        R"({"event":"done","name":"b"})",
        R"({"event":"done","name":"c","digest":"dc","seed":5})"}) {
    sealed(format, config::json::Value::parse(rec));
  }
  sealed(format, config::json::Value::parse(
                     R"({"event":"done","name":"hostile","digest":"dh",)"
                     R"("seed":5,"outcome":{"name":"hostile","status":"ok",)"
                     R"("result":{"probe":{"primary":{"summary":{"n":1}}}}}})"));
  // A complete done record sealed under the v1 format (its runs forked a
  // shared prefix) is not damage: it is counted apart and never adopted.
  config::RunOutcome v1_outcome;
  v1_outcome.name = "v1";
  auto v1_done = config::json::Value::parse(
      R"({"event":"done","name":"v1","digest":"dv1","seed":5})");
  v1_done.set("outcome", v1_outcome.to_full_json());
  sealed("campaign-journal-v1", v1_done);
  append_text(path, "{\"format\":\"" + format +
                        "\",\"checksum\":\"00\","
                        "\"record\":{\"event\":\"do");
  const auto replay = config::CampaignJournal::replay(dir);
  EXPECT_EQ(replay.records, 2u);
  EXPECT_EQ(replay.corrupt_lines, 8u);
  EXPECT_EQ(replay.other_format_lines, 1u);
  EXPECT_EQ(replay.other_format, "campaign-journal-v1");
  EXPECT_TRUE(replay.campaign.has_value());
  ASSERT_EQ(replay.done.size(), 1u);
  EXPECT_EQ(replay.done.count("a"), 1u);
  EXPECT_EQ(replay.done.count("evil"), 0u);     // bad checksum never trusted
  EXPECT_EQ(replay.done.count("hostile"), 0u);  // hostile payload rejected
  EXPECT_EQ(replay.done.count("v1"), 0u);       // old format never adopted
  EXPECT_TRUE(replay.in_flight.empty());        // nameless start never applied
  std::filesystem::remove_all(dir);
}

TEST(CampaignJournal, AdoptsOnlyTheRecordOfTheSameSpecAndSeed) {
  // The adoption rule: a done record answers a spec only under the spec's
  // name, digest and batch seed. A record with the wrong digest or the
  // wrong seed is recomputed; an in-flight spec is re-queued.
  using Campaign = config::CampaignJournal::Campaign;
  const auto fig2 = spec_of("fig2");
  const auto fig3 = spec_of("fig3");
  const auto fig6 = spec_of("fig6");
  const auto fig7 = spec_of("fig7");
  const std::uint64_t root = 2003;
  const Campaign campaign{root, 0.01, 4, ""};
  const std::string dir = testutil::temp_dir("journal_adopt_test");
  {
    config::CampaignJournal j(dir);
    j.write_campaign(root, 0.01, 4);
    j.write_done(fig2.name, fig2.digest(), config::batch_seed(root, fig2), {});
    j.write_done(fig3.name, fig6.digest(), config::batch_seed(root, fig3),
                 {});  // wrong digest
    j.write_done(fig6.name, fig6.digest(), config::batch_seed(root + 1, fig6),
                 {});  // wrong seed
    j.write_start(fig7.name, fig7.digest(), config::batch_seed(root, fig7));
  }
  const auto replay = config::CampaignJournal::replay(dir);
  std::filesystem::remove_all(dir);
  ASSERT_EQ(replay.done.size(), 3u);
  const auto adoption = config::CampaignJournal::adopt(
      replay, campaign, {fig2, fig3, fig6, fig7});
  ASSERT_EQ(adoption.outcomes.size(), 4u);
  EXPECT_TRUE(adoption.outcomes[0].has_value());
  EXPECT_FALSE(adoption.outcomes[1].has_value());
  EXPECT_FALSE(adoption.outcomes[2].has_value());
  EXPECT_FALSE(adoption.outcomes[3].has_value());
  EXPECT_EQ(adoption.adopted, 1u);
  EXPECT_EQ(adoption.requeued, 1u);

  // The journal as a whole: a resume under another campaign identity, of a
  // file with another format's lines, or of done records with no campaign
  // record to check them against is refused outright.
  for (const auto& other :
       {Campaign{root + 1, 0.01, 4, ""}, Campaign{root, 0.02, 4, ""},
        Campaign{root, 0.01, 5, ""}, Campaign{root, 0.01, 4, "full"}}) {
    EXPECT_THROW((void)config::CampaignJournal::adopt(replay, other, {}),
                 std::runtime_error);
  }
  auto older = replay;
  older.other_format_lines = 1;
  older.other_format = "campaign-journal-v1";
  EXPECT_THROW((void)config::CampaignJournal::adopt(older, campaign, {}),
               std::runtime_error);
  auto headless = replay;
  headless.campaign.reset();
  EXPECT_THROW((void)config::CampaignJournal::adopt(headless, campaign, {}),
               std::runtime_error);
  headless.done.clear();  // a torn first line: nothing to check, so resume
  EXPECT_NO_THROW((void)config::CampaignJournal::adopt(headless, campaign, {}));
}

TEST(CampaignJournal, MergedReportExcludesExecutionTaxonomy) {
  config::RunOutcome out;
  out.name = "x";
  out.status = config::RunStatus::kCrashed;
  out.error = "worker died with signal 11";
  auto ex = config::json::Value::object();
  ex.set("signal", 11);
  out.execution = ex;  // host-side, wall-clock-dependent
  const auto merged = config::CampaignJournal::merged_report({out});
  EXPECT_EQ(merged.find("schema")->as_string(), "campaign-report-v1");
  EXPECT_EQ(merged.find("total")->as_u64(), 1u);
  EXPECT_EQ(merged.find("ok")->as_u64(), 0u);
  const auto& entry = merged.find("outcomes")->items()[0];
  EXPECT_EQ(entry.find("status")->as_string(), "crashed");
  // The merge-identity contract: no execution taxonomy in merged output,
  // so an interrupted + resumed campaign merges byte-identically.
  EXPECT_EQ(entry.find("execution"), nullptr);
}

// ---- supervised execution ---------------------------------------------------

TEST(Supervisor, MatchesInProcessBatchResultsByteForByte) {
  const std::vector<config::ScenarioSpec> specs{spec_of("fig6"),
                                                spec_of("fig7")};
  config::ScenarioRunner::Options ro;
  ro.scale = 0.005;

  config::ScenarioRunner runner(ro);
  const auto in_process = runner.run_batch_report(specs, 2003);

  config::Supervisor::Options so;
  so.workers = 2;
  so.runner = ro;
  config::Supervisor sup(so);
  const auto supervised = sup.run(specs, 2003);

  ASSERT_EQ(supervised.outcomes.size(), in_process.outcomes.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    EXPECT_EQ(supervised.outcomes[i].to_full_json().dump(),
              in_process.outcomes[i].to_full_json().dump())
        << specs[i].name;
  }
  EXPECT_TRUE(supervised.all_ok());
  EXPECT_EQ(sup.stats().spawns, 2u);
  EXPECT_EQ(sup.stats().worker_crashes, 0u);
  EXPECT_EQ(sup.stats().respawns, 0u);
  EXPECT_FALSE(supervised.supervisor.is_null());
}

TEST(Supervisor, HostCrashIsRespawnedWithBackoffAndCompletes) {
  const auto spec = chaos_spec(fault::FaultKind::kHostCrash);
  config::Supervisor::Options so;
  so.workers = 1;
  so.max_respawns = 2;
  config::Supervisor sup(so);
  const auto report = sup.run({spec}, 2003);

  // The worker died once (SIGSEGV), was respawned after backoff, and the
  // rerun — on which the host fault declines to fire again — completed.
  ASSERT_EQ(report.outcomes.size(), 1u);
  EXPECT_TRUE(report.outcomes[0].ok()) << report.outcomes[0].error;
  EXPECT_EQ(sup.stats().worker_crashes, 1u);
  EXPECT_EQ(sup.stats().respawns, 1u);
  EXPECT_EQ(sup.stats().spawns, 2u);
  EXPECT_EQ(sup.stats().requeues, 1u);
  EXPECT_EQ(sup.stats().specs_quarantined, 0u);
  EXPECT_GT(sup.stats().backoff_total_s, 0.0);

  // The completed rerun is byte-identical to an in-process run of the same
  // spec (where the host fault is skipped for lack of a handler).
  config::ScenarioRunner runner;
  const auto in_process = runner.run_outcome(
      spec, sim::derive_seed(2003, sim::SeedDomain::kBatch, spec.name));
  EXPECT_EQ(report.outcomes[0].to_full_json().dump(),
            in_process.to_full_json().dump());
}

TEST(Supervisor, RepeatCrasherIsQuarantinedWithCrashTaxonomy) {
  auto spec = chaos_spec(fault::FaultKind::kHostCrash);
  spec.telemetry.flight_recorder = true;  // pre-death dump crosses the pipe
  config::Supervisor::Options so;
  so.workers = 1;
  so.max_respawns = 0;  // first death is terminal
  config::Supervisor sup(so);
  const auto report = sup.run({spec}, 2003);

  ASSERT_EQ(report.outcomes.size(), 1u);
  const auto& out = report.outcomes[0];
  EXPECT_EQ(out.status, config::RunStatus::kCrashed);
  EXPECT_FALSE(out.ok());
  EXPECT_EQ(out.attempts, 1);
  EXPECT_NE(out.error.find("signal 11"), std::string::npos) << out.error;
  ASSERT_FALSE(out.execution.is_null());
  EXPECT_EQ(out.execution.find("cause")->as_string(), "signal");
  EXPECT_EQ(out.execution.find("signal")->as_i64(), 11);
  EXPECT_EQ(out.execution.find("host_fault")->as_string(), "host-crash");
  // The worker streamed its flight-recorder dump before dying; the
  // quarantined outcome carries it as the post-mortem artifact.
  EXPECT_FALSE(out.flight_recording.is_null());
  EXPECT_GT(out.flight_recording.find("recorded")->as_u64(), 0u);
  EXPECT_EQ(sup.stats().specs_quarantined, 1u);
  EXPECT_EQ(sup.stats().worker_crashes, 1u);
  EXPECT_EQ(report.count(config::RunStatus::kCrashed), 1u);
  EXPECT_FALSE(report.all_ok());
}

TEST(Supervisor, SilentWorkerIsKilledAndClassifiedHung) {
  const auto spec = chaos_spec(fault::FaultKind::kHostHang);
  config::Supervisor::Options so;
  so.workers = 1;
  so.max_respawns = 0;
  so.hang_timeout_s = 0.5;
  config::Supervisor sup(so);
  const auto report = sup.run({spec}, 2003);

  ASSERT_EQ(report.outcomes.size(), 1u);
  const auto& out = report.outcomes[0];
  EXPECT_EQ(out.status, config::RunStatus::kHung);
  ASSERT_FALSE(out.execution.is_null());
  EXPECT_EQ(out.execution.find("cause")->as_string(), "hang");
  EXPECT_EQ(out.execution.find("host_fault")->as_string(), "host-hang");
  EXPECT_EQ(sup.stats().worker_hangs, 1u);
  EXPECT_EQ(sup.stats().worker_crashes, 0u);
}

TEST(Supervisor, JournalReplayReconstructsTheCampaignByteIdentically) {
  const std::string dir = testutil::temp_dir("supervisor_journal_test");
  const std::vector<config::ScenarioSpec> specs{spec_of("fig6"),
                                                spec_of("fig7")};
  config::Supervisor::Options so;
  so.workers = 2;
  so.runner.scale = 0.005;
  config::Supervisor sup(so);
  config::BatchReport report;
  {
    config::CampaignJournal j(dir);
    j.write_campaign(2003, 0.005, specs.size());
    report = sup.run(specs, 2003, &j);
  }
  // Everything the run produced can be rebuilt from the journal alone —
  // the property that makes SIGKILLed campaigns resumable.
  const auto replay = config::CampaignJournal::replay(dir);
  EXPECT_TRUE(replay.campaign.has_value());
  ASSERT_EQ(replay.done.size(), specs.size());
  std::vector<config::RunOutcome> rebuilt;
  for (const auto& s : specs) {
    const auto& adopted = replay.done.at(s.name);
    EXPECT_EQ(adopted.digest, s.digest());
    EXPECT_EQ(adopted.seed,
              sim::derive_seed(2003, sim::SeedDomain::kBatch, s.name));
    rebuilt.push_back(adopted.outcome);
  }
  EXPECT_EQ(config::CampaignJournal::merged_report(rebuilt).dump(),
            config::CampaignJournal::merged_report(report.outcomes).dump());
  // The supervisor also exported its gauges next to the journal.
  const auto prom = read_text(dir + "/supervisor.prom");
  EXPECT_NE(prom.find("shieldsim_supervisor_workers_alive"),
            std::string::npos);
  std::filesystem::remove_all(dir);
}

// ---- one answer per (spec, seed) ---------------------------------------------

TEST(OneAnswer, EveryExecutionPathGivesTheSameBytes) {
  // The whole registry at smoke scale must serialize to the same outcome
  // bytes, and merge to the same campaign report, whichever path computed
  // it: a cold in-process batch, supervised workers, and a journal-resumed
  // campaign.
  const auto all = config::ScenarioRegistry::builtin().all();
  const std::uint64_t root = 2003;
  config::ScenarioRunner::Options cold;
  cold.scale = 0.01;
  cold.jobs = 2;

  config::ScenarioRunner cold_runner(cold);
  const auto reference = cold_runner.run_batch_report(all, root);
  ASSERT_EQ(reference.outcomes.size(), all.size());
  for (const auto& o : reference.outcomes) {
    EXPECT_TRUE(o.ok()) << o.name << ": " << o.error;
  }
  const std::string merged =
      config::CampaignJournal::merged_report(reference.outcomes).dump(2);
  const auto same = [&](const char* path,
                        const std::vector<config::RunOutcome>& outcomes) {
    ASSERT_EQ(outcomes.size(), all.size()) << path;
    for (std::size_t i = 0; i < all.size(); ++i) {
      EXPECT_EQ(outcomes[i].to_full_json().dump(),
                reference.outcomes[i].to_full_json().dump())
          << path << ": " << all[i].name;
    }
    // Compared as one bool: a failing EXPECT_EQ would diff two multi-line
    // registry dumps line by line, which costs quadratic memory.
    EXPECT_TRUE(config::CampaignJournal::merged_report(outcomes).dump(2) ==
                merged)
        << path << ": merged campaign reports differ";
  };

  config::Supervisor::Options so;
  so.workers = 2;
  so.runner = cold;
  config::Supervisor sup(so);
  const auto supervised = sup.run(all, root);
  same("supervised", supervised.outcomes);

  // Resume: a journal holding the supervised first half's outcomes, adopted
  // through the journal's adoption rule as `shieldctl run --journal`
  // adopts them, and stitched together with a fresh run of the rest.
  const std::string journal_dir = testutil::temp_dir("one_answer_journal");
  const std::size_t half = all.size() / 2;
  {
    config::CampaignJournal j(journal_dir);
    j.write_campaign(root, cold.scale, all.size());
    for (std::size_t i = 0; i < half; ++i) {
      j.write_done(all[i].name, all[i].digest(),
                   config::batch_seed(root, all[i]), supervised.outcomes[i]);
    }
  }
  auto adoption = config::CampaignJournal::adopt(
      config::CampaignJournal::replay(journal_dir),
      {root, cold.scale, all.size(), ""}, all);
  std::filesystem::remove_all(journal_dir);
  ASSERT_EQ(adoption.adopted, half);
  std::vector<config::ScenarioSpec> rest;
  for (std::size_t i = 0; i < all.size(); ++i) {
    if (!adoption.outcomes[i]) rest.push_back(all[i]);
  }
  auto fresh = cold_runner.run_batch_report(rest, root).outcomes;
  std::vector<config::RunOutcome> resumed;
  std::size_t k = 0;
  for (auto& o : adoption.outcomes) {
    resumed.push_back(o ? std::move(*o) : std::move(fresh[k++]));
  }
  same("journal-resumed", resumed);
}
