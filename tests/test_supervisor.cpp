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
  EXPECT_TRUE(replay.has_campaign);
  EXPECT_EQ(replay.root_seed, 2003u);
  EXPECT_EQ(replay.scale, 0.01);
  EXPECT_EQ(replay.spec_count, 3u);
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
  EXPECT_FALSE(replay.has_campaign);
  EXPECT_EQ(replay.records, 0u);
  EXPECT_TRUE(replay.done.empty());
  EXPECT_TRUE(replay.in_flight.empty());
}

TEST(CampaignJournal, CampaignRecordRoundTripsColdAndForked) {
  // Forked and cold runs of one (spec, seed) differ, so the campaign record
  // says which of the two a journal holds. A forked record has no "cold"
  // key at all: its line is the one journals have always carried.
  const std::string cold_dir = testutil::temp_dir("journal_cold_test");
  const std::string forked_dir = testutil::temp_dir("journal_forked_test");
  {
    config::CampaignJournal cold(cold_dir);
    cold.write_campaign(2003, 0.01, 3, true);
    config::CampaignJournal forked(forked_dir);
    forked.write_campaign(2003, 0.01, 3);
  }
  const auto cold = config::CampaignJournal::replay(cold_dir);
  ASSERT_TRUE(cold.has_campaign);
  EXPECT_TRUE(cold.cold);
  EXPECT_EQ(cold.root_seed, 2003u);
  EXPECT_EQ(cold.spec_count, 3u);
  const auto forked = config::CampaignJournal::replay(forked_dir);
  ASSERT_TRUE(forked.has_campaign);
  EXPECT_FALSE(forked.cold);
  EXPECT_NE(read_text(cold_dir + "/journal.jsonl").find("\"cold\":true"),
            std::string::npos);
  EXPECT_EQ(read_text(forked_dir + "/journal.jsonl").find("cold"),
            std::string::npos);
  std::filesystem::remove_all(forked_dir);

  // A checksum-valid campaign record with a mistyped key is corrupt as a
  // whole: it leaves no campaign identity behind.
  std::remove((cold_dir + "/journal.jsonl").c_str());
  append_text(cold_dir + "/journal.jsonl",
              config::json::seal("campaign-journal-v1", "record",
                                 config::json::Value::parse(
                                     R"({"event":"campaign","root_seed":1,)"
                                     R"("scale":1,"specs":1,"cold":1})"))
                      .dump() +
                  "\n");
  const auto mistyped = config::CampaignJournal::replay(cold_dir);
  EXPECT_FALSE(mistyped.has_campaign);
  EXPECT_EQ(mistyped.corrupt_lines, 1u);
  std::filesystem::remove_all(cold_dir);
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
  // Corruption menu: plain garbage, a checksum-failing envelope, records
  // whose checksum is valid but which lack a required field, and a torn
  // tail line (a SIGKILLed writer's last breath — no newline).
  append_text(path, "not json at all\n");
  append_text(path,
              "{\"format\":\"campaign-journal-v1\",\"checksum\":\"beef\","
              "\"record\":{\"event\":\"done\",\"name\":\"evil\"}}\n");
  for (const char* rec :
       {R"({"event":"start"})", R"({"name":"a","seed":5})",
        R"({"event":"done","name":"b"})",
        R"({"event":"done","name":"c","digest":"dc","seed":5})"}) {
    append_text(path, config::json::seal("campaign-journal-v1", "record",
                                         config::json::Value::parse(rec))
                              .dump() +
                          "\n");
  }
  append_text(path,
              "{\"format\":\"campaign-journal-v1\",\"checksum\":\"00\","
              "\"record\":{\"event\":\"do");
  const auto replay = config::CampaignJournal::replay(dir);
  EXPECT_EQ(replay.records, 2u);
  EXPECT_EQ(replay.corrupt_lines, 7u);
  EXPECT_TRUE(replay.has_campaign);
  ASSERT_EQ(replay.done.size(), 1u);
  EXPECT_EQ(replay.done.count("a"), 1u);
  EXPECT_EQ(replay.done.count("evil"), 0u);  // bad checksum never trusted
  EXPECT_TRUE(replay.in_flight.empty());     // nameless start never applied
  std::filesystem::remove_all(dir);
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
  EXPECT_EQ(sup.stats().quarantined, 0u);
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
  EXPECT_EQ(sup.stats().quarantined, 1u);
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
  EXPECT_TRUE(replay.has_campaign);
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
