// shieldctl — command-line front end for the shieldsim library.
//
//   shieldctl list [--group G]          list registry scenarios
//   shieldctl describe <scenario>       print a scenario's spec JSON + digest
//   shieldctl run <scenario>... [--jobs N] [--json] [--smoke]
//   shieldctl run --all [--jobs N] [--json] [--smoke]
//                                       run scenarios (in parallel with
//                                       --jobs), print figures or JSON
//   shieldctl stat <scenario>           run one scenario with telemetry on
//                                       and print its telemetry-v1 document
//                                       (or, with --prom, Prometheus text)
//   shieldctl trace <scenario>          run one scenario with the timeline
//                                       on and export Chrome Trace Event
//                                       JSON (Perfetto / chrome://tracing)
//   shieldctl blame <scenario>          run one scenario with attribution
//                                       on and print its attribution-v1
//                                       document: where the worst samples'
//                                       nanoseconds went
//   shieldctl demo [--seconds S]        boot a loaded RedHawk box, shield
//                                       CPU 1 live via /proc, show reports
//   shieldctl inspect [--seconds S]     run stress-kernel and print the
//                                       ps/vmstat/lock tables
//
// stat, trace and blame run the scenario at the seed `run` and the figure
// benches give it, so they explain the run those print.
// tools/report.py renders their documents as text.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "config/experiment.h"
#include "config/journal.h"
#include "config/scenario_runner.h"
#include "config/supervisor.h"
#include "config/telemetry_export.h"
#include "kernel/kernel_ops.h"
#include "kernel/stats_report.h"
#include "shieldsim.h"
#include "telemetry/registry.h"

using namespace sim::literals;

namespace {

void usage(const char* argv0, std::FILE* to) {
  std::fprintf(
      to,
      "usage:\n"
      "  %s list [--group G] [--json]\n"
      "  %s describe <scenario>\n"
      "  %s run <scenario>... [options]\n"
      "  %s run --all [options]\n"
      "  %s stat <scenario> [--seed N] [--scale X] [--smoke] [--prom]\n"
      "  %s trace <scenario> [--seed N] [--scale X] [--smoke] [--out FILE]\n"
      "  %s blame <scenario> [--seed N] [--scale X] [--smoke] [--worst N]\n"
      "           [--threshold NS]\n"
      "  %s demo [--seconds S] [--seed N]\n"
      "  %s inspect [--seconds S] [--seed N]\n"
      "run options:\n"
      "  --jobs N        worker threads (default: all cores)\n"
      "  --seed N        root RNG seed (default 2003; per-scenario seeds\n"
      "                  derive from it by name)\n"
      "  --scale X       multiply sample counts / fixed horizons by X\n"
      "  --smoke         shorthand for --scale 0.01\n"
      "  --json          print {spec, result} JSON per scenario instead of\n"
      "                  the rendered figure\n"
      "  --report PATH   write the degraded-run batch report JSON to PATH\n"
      "                  (per-spec ok/retried/failed/timed_out); a failing\n"
      "                  spec no longer aborts the batch\n"
      "  --telemetry     force the sampler on for every selected scenario\n"
      "                  (results gain a telemetry document; digests "
      "change)\n"
      "  --mechanism M   override the interrupt-delivery mechanism for every\n"
      "                  selected scenario (inband|oob; non-default digests\n"
      "                  change)\n"
      "  --max-events N  watchdog: abort a run after N simulated events\n"
      "  --wall-limit S  watchdog: abort a run after S wall-clock seconds\n"
      "  --no-prefix     accepted and ignored: every run builds and boots its\n"
      "                  own platform at its own seed\n"
      "  --spec-json F   load an extra scenario spec from JSON file F (may\n"
      "                  repeat); runs after the selected registry specs\n"
      "  --journal DIR   write-ahead campaign journal: append start/done\n"
      "                  records to DIR/journal.jsonl as specs finish, and\n"
      "                  on a rerun adopt completed results and re-queue\n"
      "                  in-flight ones; also writes DIR/merged.json, which\n"
      "                  is byte-identical whether or not the campaign was\n"
      "                  interrupted and resumed\n"
      "  --workers N     run the batch under a supervisor across N worker\n"
      "                  processes (crash isolation; 0 = in-process)\n"
      "  --max-respawns N  worker deaths one spec may cause before it is\n"
      "                  quarantined as crashed/hung (default 2)\n"
      "  --hang-timeout S  declare a silent worker hung after S seconds and\n"
      "                  SIGKILL it (default: no hang detection)\n"
      "  --flight-dump M attach the flight-recorder ring to successful\n"
      "                  outcomes too (M = full: the whole ring at run end;\n"
      "                  M = worst: the window around the worst observed\n"
      "                  probe sample)\n"
      "stat, trace and blame (each takes only its own options below):\n"
      "  --seed N        root RNG seed, as for run: the scenario runs at the\n"
      "                  seed run derives from it by name, so these explain\n"
      "                  the run that `run` and the figure benches print.\n"
      "                  Render the JSON with tools/report.py\n"
      "                  telemetry|blame.\n"
      "  --scale X, --smoke  as for run\n"
      "stat options:\n"
      "  --prom          print the Prometheus text exposition instead of the\n"
      "                  telemetry-v1 document\n"
      "trace options:\n"
      "  --out FILE      write the trace-event-v1 JSON to FILE ('-' or\n"
      "                  omitted: stdout); open it in ui.perfetto.dev or\n"
      "                  chrome://tracing\n"
      "blame options:\n"
      "  --worst N       keep cause trees for the N worst samples (default 8)\n"
      "  --threshold NS  attribute every sample at or above NS, not just the\n"
      "                  worst N\n",
      argv0, argv0, argv0, argv0, argv0, argv0, argv0, argv0, argv0);
}

[[noreturn]] void bad_arg(char** argv, const char* what) {
  std::fprintf(stderr, "%s: %s\n", argv[0], what);
  usage(argv[0], stderr);
  std::exit(2);
}

struct RunArgs {
  std::vector<std::string> names;
  bool all = false;
  bool json = false;
  std::uint64_t seed = 2003;
  double scale = 1.0;
  unsigned jobs = 0;
  std::string report_path;
  bool telemetry = false;
  std::uint64_t max_events = 0;
  double wall_limit_s = 0.0;
  std::string mechanism;  ///< empty = leave each spec's own mechanism
  std::vector<std::string> spec_json;  ///< extra spec files to append
  std::string journal_dir;             ///< empty = no journal
  int workers = 0;                     ///< 0 = in-process batch
  int max_respawns = 2;
  double hang_timeout_s = 0.0;
  std::string flight_dump;  ///< "", "full" or "worst"
};

RunArgs parse_run(int argc, char** argv, int from) {
  RunArgs a;
  const auto need_value = [&](int i) {
    if (i + 1 >= argc) {
      bad_arg(argv, (std::string("missing value for ") + argv[i]).c_str());
    }
  };
  for (int i = from; i < argc; ++i) {
    if (std::strcmp(argv[i], "--all") == 0) {
      a.all = true;
    } else if (std::strcmp(argv[i], "--json") == 0) {
      a.json = true;
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      a.scale = 0.01;
    } else if (std::strcmp(argv[i], "--seed") == 0) {
      need_value(i);
      a.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--scale") == 0) {
      need_value(i);
      a.scale = std::strtod(argv[++i], nullptr);
    } else if (std::strcmp(argv[i], "--jobs") == 0) {
      need_value(i);
      a.jobs = static_cast<unsigned>(std::strtoul(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--report") == 0) {
      need_value(i);
      a.report_path = argv[++i];
    } else if (std::strcmp(argv[i], "--telemetry") == 0) {
      a.telemetry = true;
    } else if (std::strcmp(argv[i], "--mechanism") == 0) {
      need_value(i);
      a.mechanism = argv[++i];
      if (a.mechanism != "inband" && a.mechanism != "oob") {
        bad_arg(argv, "--mechanism expects 'inband' or 'oob'");
      }
    } else if (std::strcmp(argv[i], "--max-events") == 0) {
      need_value(i);
      a.max_events = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--wall-limit") == 0) {
      need_value(i);
      a.wall_limit_s = std::strtod(argv[++i], nullptr);
    } else if (std::strcmp(argv[i], "--no-prefix") == 0) {
      // No effect: every run is cold. Still accepted because perfbench's
      // stress-long store campaign, frozen with the benchmark, passes it.
    } else if (std::strcmp(argv[i], "--spec-json") == 0) {
      need_value(i);
      a.spec_json.emplace_back(argv[++i]);
    } else if (std::strcmp(argv[i], "--journal") == 0) {
      need_value(i);
      a.journal_dir = argv[++i];
    } else if (std::strcmp(argv[i], "--workers") == 0) {
      need_value(i);
      a.workers = static_cast<int>(std::strtol(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--max-respawns") == 0) {
      need_value(i);
      a.max_respawns = static_cast<int>(std::strtol(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--hang-timeout") == 0) {
      need_value(i);
      a.hang_timeout_s = std::strtod(argv[++i], nullptr);
    } else if (std::strcmp(argv[i], "--flight-dump") == 0) {
      need_value(i);
      a.flight_dump = argv[++i];
      if (a.flight_dump != "full" && a.flight_dump != "worst") {
        bad_arg(argv, "--flight-dump expects 'full' or 'worst'");
      }
    } else if (argv[i][0] == '-') {
      bad_arg(argv, (std::string("unknown option '") + argv[i] + "'").c_str());
    } else {
      a.names.emplace_back(argv[i]);
    }
  }
  return a;
}

int cmd_list(int argc, char** argv) {
  std::string group;
  bool json = false;
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], "--group") == 0 && i + 1 < argc) {
      group = argv[++i];
    } else if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
    } else {
      bad_arg(argv, (std::string("unknown option '") + argv[i] + "'").c_str());
    }
  }
  const auto& reg = config::ScenarioRegistry::builtin();
  if (json) {
    auto arr = config::json::Value::array();
    for (const auto& s : reg.all()) {
      if (!group.empty() && s.group != group) continue;
      auto e = config::json::Value::object();
      e.set("name", s.name);
      e.set("group", s.group);
      e.set("title", s.title);
      e.set("probe", s.probe);
      e.set("mechanism", s.mechanism);
      arr.push(std::move(e));
    }
    std::printf("%s\n", arr.dump(2).c_str());
    return 0;
  }
  std::printf("built-in scenarios:\n");
  for (const auto& s : reg.all()) {
    if (!group.empty() && s.group != group) continue;
    std::printf("  %-28s [%-10s]%s %s\n", s.name.c_str(), s.group.c_str(),
                s.mechanism == "oob" ? " (oob)" : "", s.title.c_str());
  }
  return 0;
}

int cmd_describe(const std::string& name) {
  const auto* s = config::ScenarioRegistry::builtin().find(name);
  if (s == nullptr) {
    std::fprintf(stderr, "unknown scenario '%s' (try: shieldctl list)\n",
                 name.c_str());
    return 1;
  }
  std::printf("%s\n", s->to_json().dump(2).c_str());
  std::printf("mechanism: %s\n", s->mechanism.c_str());
  std::printf("digest: %s\n", s->digest().c_str());
  return 0;
}

/// Slurp a whole file; empty optional when it cannot be read.
std::optional<std::string> read_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return std::nullopt;
  std::string text;
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) text.append(buf, n);
  std::fclose(f);
  return text;
}

int cmd_run(const RunArgs& a) {
  const auto& reg = config::ScenarioRegistry::builtin();
  std::vector<config::ScenarioSpec> specs;
  if (a.all) {
    specs = reg.all();
  } else {
    if (a.names.empty() && a.spec_json.empty()) {
      std::fprintf(stderr, "run: no scenario names (or --all) given\n");
      return 2;
    }
    for (const auto& n : a.names) {
      const auto* s = reg.find(n);
      if (s == nullptr) {
        std::fprintf(stderr, "unknown scenario '%s' (try: shieldctl list)\n",
                     n.c_str());
        return 1;
      }
      specs.push_back(*s);
    }
  }
  // Extra out-of-registry specs (chaos/fault scenarios live in files).
  for (const auto& path : a.spec_json) {
    const auto text = read_file(path);
    if (!text) {
      std::fprintf(stderr, "cannot read spec file '%s'\n", path.c_str());
      return 2;
    }
    try {
      specs.push_back(
          config::ScenarioSpec::from_json(config::json::Value::parse(*text)));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "bad spec file '%s': %s\n", path.c_str(), e.what());
      return 2;
    }
  }
  if (a.telemetry) {
    for (auto& s : specs) s.telemetry.sampler = true;
  }
  if (!a.mechanism.empty()) {
    for (auto& s : specs) s.mechanism = a.mechanism;
  }

  config::ScenarioRunner::Options ro;
  ro.jobs = a.jobs;
  ro.scale = a.scale;
  ro.max_events = a.max_events;
  ro.wall_limit_s = a.wall_limit_s;
  if (a.flight_dump == "full") {
    ro.flight_dump = config::ScenarioRunner::Options::FlightDump::kFull;
  } else if (a.flight_dump == "worst") {
    ro.flight_dump = config::ScenarioRunner::Options::FlightDump::kWorst;
  }

  // Write-ahead journal: replay what an earlier (possibly killed) run of
  // this campaign already finished, adopt those outcomes, re-run the rest.
  std::unique_ptr<config::CampaignJournal> journal;
  config::CampaignJournal::Adoption adoption;
  adoption.outcomes.resize(specs.size());
  if (!a.journal_dir.empty()) {
    const config::CampaignJournal::Campaign campaign{a.seed, a.scale,
                                                     specs.size(),
                                                     a.flight_dump};
    const auto replay = config::CampaignJournal::replay(a.journal_dir);
    try {
      adoption = config::CampaignJournal::adopt(replay, campaign, specs);
      journal = std::make_unique<config::CampaignJournal>(a.journal_dir);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "journal '%s': %s\n", a.journal_dir.c_str(),
                   e.what());
      return 2;
    }
    if (!replay.campaign) {
      journal->write_campaign(a.seed, a.scale, specs.size(), a.flight_dump);
    }
    if (replay.corrupt_lines > 0) {
      std::fprintf(stderr,
                   "journal: skipped %llu corrupt line%s (torn writes from an "
                   "ungraceful death)\n",
                   static_cast<unsigned long long>(replay.corrupt_lines),
                   replay.corrupt_lines == 1 ? "" : "s");
    }
  }

  std::vector<config::ScenarioSpec> pending;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    if (!adoption.outcomes[i]) pending.push_back(specs[i]);
  }

  if (!a.json) {
    std::printf("running %zu scenario%s (seed %llu, scale %g)...\n",
                specs.size(), specs.size() == 1 ? "" : "s",
                static_cast<unsigned long long>(a.seed), a.scale);
    if (journal && adoption.adopted + adoption.requeued > 0) {
      std::printf(
          "journal: adopted %zu completed outcome%s, re-queued %zu "
          "in-flight, %zu to run\n",
          adoption.adopted, adoption.adopted == 1 ? "" : "s",
          adoption.requeued, pending.size());
    }
    if (a.workers > 0 && !pending.empty()) {
      std::printf("supervising %zu spec%s across %d worker process%s\n",
                  pending.size(), pending.size() == 1 ? "" : "s", a.workers,
                  a.workers == 1 ? "" : "es");
    }
  }

  // Hardened batch: a failing, crashing or hanging spec is recorded in its
  // outcome and the rest of the batch still runs to completion.
  config::BatchReport fresh;
  if (!pending.empty()) {
    if (a.workers > 0) {
      config::Supervisor::Options so;
      so.workers = a.workers;
      so.max_respawns = a.max_respawns;
      so.hang_timeout_s = a.hang_timeout_s;
      so.runner = ro;
      config::Supervisor sup(so);
      fresh = sup.run(pending, a.seed, journal.get());
    } else {
      config::ScenarioRunner runner(ro);
      config::ScenarioRunner::BatchObserver obs;
      if (journal) {
        obs.started = [&](std::size_t, const config::ScenarioSpec& s,
                          std::uint64_t seed) {
          journal->write_start(s.name, s.digest(), seed);
        };
        obs.finished = [&](std::size_t, const config::ScenarioSpec& s,
                           const config::RunOutcome& out) {
          journal->write_done(s.name, s.digest(), config::batch_seed(a.seed, s),
                              out);
        };
      }
      fresh = runner.run_batch_report(pending, a.seed, obs);
    }
  }

  // Stitch adopted and freshly-run outcomes back into spec order.
  config::BatchReport report;
  report.supervisor = std::move(fresh.supervisor);
  {
    std::size_t k = 0;
    for (std::size_t i = 0; i < specs.size(); ++i) {
      if (adoption.outcomes[i]) {
        report.outcomes.push_back(std::move(*adoption.outcomes[i]));
      } else {
        report.outcomes.push_back(std::move(fresh.outcomes[k++]));
      }
    }
  }
  if (a.json) {
    // One {spec, outcome[, result]} object per scenario: everything needed
    // to re-execute or verify the run round-trips through this output.
    auto arr = config::json::Value::array();
    for (std::size_t i = 0; i < specs.size(); ++i) {
      const auto& out = report.outcomes[i];
      auto entry = config::json::Value::object();
      entry.set("spec", specs[i].to_json());
      entry.set("outcome", out.to_json());
      if (out.result.has_value()) {
        entry.set("result", out.result->to_json());
      }
      arr.push(std::move(entry));
    }
    std::printf("%s\n", arr.dump(2).c_str());
  } else {
    for (std::size_t i = 0; i < specs.size(); ++i) {
      const auto& out = report.outcomes[i];
      if (out.result.has_value()) {
        std::fputs(out.result->render(specs[i]).c_str(), stdout);
        std::printf("(%llu simulator events%s)\n",
                    static_cast<unsigned long long>(out.result->events),
                    out.status == config::RunStatus::kRetried ? ", retried"
                                                              : "");
        if (!out.ok()) {
          std::fprintf(stderr, "%s: %s: %s\n", specs[i].name.c_str(),
                       to_string(out.status), out.error.c_str());
        }
      } else {
        std::fprintf(stderr, "%s: %s: %s\n", specs[i].name.c_str(),
                     to_string(out.status), out.error.c_str());
      }
    }
  }
  // Per-mechanism pass/fail breakdown whenever the batch mixed mechanisms
  // in (mirrors the report JSON's by_mechanism object).
  bool mixed_mechanisms = false;
  for (const auto& out : report.outcomes) {
    if (out.mechanism != "inband") mixed_mechanisms = true;
  }
  if (!a.json && mixed_mechanisms) {
    std::map<std::string, std::pair<std::size_t, std::size_t>> mech;
    for (const auto& out : report.outcomes) {
      auto& [okc, failc] = mech[out.mechanism];
      (out.ok() ? okc : failc)++;
    }
    for (const auto& [kind, counts] : mech) {
      std::printf("mechanism %-7s %zu ok, %zu failed\n", kind.c_str(),
                  counts.first, counts.second);
    }
  }
  if (!a.json && !report.supervisor.is_null()) {
    const auto u64 = [&](const char* key) -> unsigned long long {
      const auto* v = report.supervisor.find(key);
      return v == nullptr ? 0 : static_cast<unsigned long long>(v->as_u64());
    };
    std::printf(
        "supervisor: %llu spawn%s, %llu respawn%s (%llu crash%s, %llu "
        "hang%s), %llu quarantined\n",
        u64("spawns"), u64("spawns") == 1 ? "" : "s", u64("respawns"),
        u64("respawns") == 1 ? "" : "s", u64("worker_crashes"),
        u64("worker_crashes") == 1 ? "" : "es", u64("worker_hangs"),
        u64("worker_hangs") == 1 ? "" : "s", u64("quarantined"));
  }
  if (!a.report_path.empty()) {
    std::FILE* f = std::fopen(a.report_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write report to '%s'\n",
                   a.report_path.c_str());
      return 1;
    }
    std::fprintf(f, "%s\n", report.to_json().dump(2).c_str());
    std::fclose(f);
  }
  // The merged campaign output: pure (spec, seed) data in spec order, so an
  // interrupted-and-resumed campaign merges byte-identically to an
  // uninterrupted one (the chaos gate in tools/verify.sh compares them).
  if (journal) {
    const auto merged = config::CampaignJournal::merged_report(report.outcomes);
    const std::string path = a.journal_dir + "/merged.json";
    std::FILE* f = std::fopen(path.c_str(), "wb");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write merged report to '%s'\n",
                   path.c_str());
      return 1;
    }
    std::fprintf(f, "%s\n", merged.dump(2).c_str());
    std::fclose(f);
  }
  if (!report.all_ok()) {
    std::size_t bad = 0;
    for (const auto& out : report.outcomes) {
      if (!out.ok()) bad++;
    }
    std::fprintf(stderr,
                 "error: %zu of %zu scenarios did not finish ok (%zu failed, "
                 "%zu timed out, %zu incomplete, %zu crashed, %zu hung); see "
                 "the outcomes above%s\n",
                 bad, report.outcomes.size(),
                 report.count(config::RunStatus::kFailed),
                 report.count(config::RunStatus::kTimedOut),
                 report.count(config::RunStatus::kIncomplete),
                 report.count(config::RunStatus::kCrashed),
                 report.count(config::RunStatus::kHung),
                 a.report_path.empty() ? "" : " or the --report file");
  }
  if (report.count(config::RunStatus::kIncomplete) > 0) {
    std::fprintf(stderr,
                 "warning: some scenarios did not reach their sample "
                 "targets inside the horizon\n");
  }
  // Exit-code contract: 0 iff the final report has zero non-ok outcomes.
  return report.all_ok() ? 0 : 1;
}

/// Arguments of the single-scenario observability commands. All three take
/// --seed, --scale and --smoke; each takes only its own options besides.
struct ObserveArgs {
  std::string cmd;  ///< "stat", "trace" or "blame"
  std::string name;
  std::uint64_t seed = 2003;
  double scale = 1.0;
  bool prom = false;            ///< stat: Prometheus text, not telemetry-v1
  std::string out;              ///< trace: output path ("" or "-" = stdout)
  int worst = 8;                ///< blame: worst-N cause trees
  std::uint64_t threshold = 0;  ///< blame: attribute-everything-above floor
};

ObserveArgs parse_observe(int argc, char** argv) {
  ObserveArgs a;
  a.cmd = argv[1];
  const auto value = [&](int& i) {
    if (i + 1 >= argc) {
      bad_arg(argv, (std::string("missing value for ") + argv[i]).c_str());
    }
    return argv[++i];
  };
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--seed") {
      a.seed = std::strtoull(value(i), nullptr, 10);
    } else if (arg == "--scale") {
      a.scale = std::strtod(value(i), nullptr);
    } else if (arg == "--smoke") {
      a.scale = 0.01;
    } else if (a.cmd == "stat" && arg == "--prom") {
      a.prom = true;
    } else if (a.cmd == "trace" && arg == "--out") {
      a.out = value(i);
    } else if (a.cmd == "blame" && arg == "--worst") {
      a.worst = static_cast<int>(std::strtol(value(i), nullptr, 10));
    } else if (a.cmd == "blame" && arg == "--threshold") {
      a.threshold = std::strtoull(value(i), nullptr, 10);
    } else if (arg[0] == '-') {
      bad_arg(argv,
              ("unknown " + a.cmd + " option '" + arg + "'").c_str());
    } else if (a.name.empty()) {
      a.name = arg;
    } else {
      bad_arg(argv, (a.cmd + " takes exactly one scenario").c_str());
    }
  }
  if (a.name.empty()) {
    bad_arg(argv, (a.cmd + ": no scenario name given").c_str());
  }
  return a;
}

int cmd_stat(const ObserveArgs& a) {
  const auto* base = config::ScenarioRegistry::builtin().find(a.name);
  if (base == nullptr) {
    std::fprintf(stderr, "unknown scenario '%s' (try: shieldctl list)\n",
                 a.name.c_str());
    return 1;
  }
  config::ScenarioSpec spec = *base;
  spec.telemetry.sampler = true;  // stat is pointless without the sampler

  config::ScenarioRunner::Options ro;
  ro.scale = a.scale;
  config::ScenarioRunner runner(ro);

  // The registry lives on the engine inside the run's Platform, so the
  // Prometheus text must be harvested through the finished hook, while the
  // platform is still alive.
  std::string prom;
  config::ScenarioRunner::Hooks hooks;
  hooks.finished = [&](config::Platform& p, rt::Probe&) {
    prom = p.engine().telemetry().prometheus_text();
  };
  const auto r = runner.run(spec, config::batch_seed(a.seed, spec), hooks);

  if (a.prom) {
    std::fputs(prom.c_str(), stdout);
  } else {
    std::printf("%s\n", r.telemetry.dump(2).c_str());
  }
  return 0;
}

// ---- trace / blame ----------------------------------------------------------

/// Kernel lock ids carried in ring entries → the kernel's own lock names.
std::string lock_id_name(int id) {
  if (id >= 0 && id < static_cast<int>(kernel::LockId::kCount)) {
    return kernel::to_string(static_cast<kernel::LockId>(id));
  }
  return "lock" + std::to_string(id);
}

int cmd_trace(const ObserveArgs& a) {
  const auto* base = config::ScenarioRegistry::builtin().find(a.name);
  if (base == nullptr) {
    std::fprintf(stderr, "unknown scenario '%s' (try: shieldctl list)\n",
                 a.name.c_str());
    return 1;
  }
  // Transient copy: the timeline needs the ring + chain tracer, and blame
  // retains the worst chains so the export can show the decomposed tail
  // samples as their own tracks.
  config::ScenarioSpec spec = *base;
  spec.telemetry.timeline = true;
  spec.telemetry.blame = true;

  config::ScenarioRunner::Options ro;
  ro.scale = a.scale;
  config::ScenarioRunner runner(ro);

  // The ring and the collector live on the run's Platform, so the document
  // must be assembled in the finished hook, while both are still alive.
  std::string doc;
  config::ScenarioRunner::Hooks hooks;
  hooks.finished = [&](config::Platform& p, rt::Probe&) {
    telemetry::TimelineOptions to;
    to.ncpus = p.kernel().ncpus();
    to.lock_name = lock_id_name;
    std::vector<sim::LatencyChain> chains;
    if (const auto* bc = p.kernel().blame_collector()) {
      chains = bc->worst_chains();
    }
    doc = telemetry::chrome_trace_json(p.engine().flight_recorder(), chains,
                                       to);
  };
  try {
    (void)runner.run(spec, config::batch_seed(a.seed, spec), hooks);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "trace: %s\n", e.what());
    return 1;
  }
  if (a.out.empty() || a.out == "-") {
    std::fputs(doc.c_str(), stdout);
    std::fputc('\n', stdout);
    return 0;
  }
  std::FILE* f = std::fopen(a.out.c_str(), "wb");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write trace to '%s'\n", a.out.c_str());
    return 1;
  }
  std::fwrite(doc.data(), 1, doc.size(), f);
  std::fputc('\n', f);
  std::fclose(f);
  std::fprintf(stderr,
               "wrote %zu bytes to %s (open in ui.perfetto.dev or "
               "chrome://tracing)\n",
               doc.size() + 1, a.out.c_str());
  return 0;
}

int cmd_blame(const ObserveArgs& a) {
  const auto* base = config::ScenarioRegistry::builtin().find(a.name);
  if (base == nullptr) {
    std::fprintf(stderr, "unknown scenario '%s' (try: shieldctl list)\n",
                 a.name.c_str());
    return 1;
  }
  if (a.worst <= 0) {
    std::fprintf(stderr, "blame: --worst must be positive\n");
    return 2;
  }
  config::ScenarioSpec spec = *base;
  spec.telemetry.blame = true;
  spec.telemetry.blame_worst = a.worst;
  spec.telemetry.blame_threshold_ns = a.threshold;

  config::ScenarioRunner::Options ro;
  ro.scale = a.scale;
  config::ScenarioRunner runner(ro);

  config::ScenarioResult r;
  try {
    r = runner.run(spec, config::batch_seed(a.seed, spec));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "blame: %s\n", e.what());
    return 1;
  }
  std::printf("%s\n", r.telemetry.at("attribution").dump(2).c_str());
  return 0;
}

struct Args {
  std::uint64_t seed = 2003;
  double seconds = 10.0;

  static Args parse(int argc, char** argv, int from) {
    Args a;
    for (int i = from; i < argc; ++i) {
      if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
        a.seed = std::strtoull(argv[++i], nullptr, 10);
      } else if (std::strcmp(argv[i], "--seconds") == 0 && i + 1 < argc) {
        a.seconds = std::strtod(argv[++i], nullptr);
      } else {
        bad_arg(argv,
                (std::string("unknown option '") + argv[i] + "'").c_str());
      }
    }
    return a;
  }
};

int cmd_demo(const Args& a) {
  config::Platform p(config::MachineConfig::dual_p4_xeon_2000_rcim(),
                     config::KernelConfig::redhawk_1_4(), a.seed);
  workload::StressKernel{}.install(p);
  rt::RcimTest::Params rp;
  rp.samples = ~std::uint64_t{0};  // run for the whole demo
  rp.affinity = hw::CpuMask::single(1);
  rt::RcimTest probe(p.kernel(), p.rcim_driver(), rp);
  p.boot();
  probe.start();

  const auto half = sim::from_seconds(a.seconds / 2);
  std::printf("phase 1: %2.0f s unshielded...\n", a.seconds / 2);
  p.run_for(half);
  const auto unshielded_max = probe.true_latencies().max();

  std::printf("phase 2: echo 2 > /proc/shield/{procs,irqs,ltmr} ...\n");
  auto& fs = p.kernel().procfs();
  fs.write("/proc/irq/5/smp_affinity", "2\n");
  fs.write("/proc/shield/procs", "2\n");
  fs.write("/proc/shield/irqs", "2\n");
  fs.write("/proc/shield/ltmr", "2\n");
  // Fresh histogram for the shielded phase: approximate by tracking the
  // running max before/after (the probe accumulates over both phases).
  p.run_for(half);

  std::printf("\nworst RCIM response, unshielded first half: %s\n",
              sim::format_duration(unshielded_max).c_str());
  std::printf("worst RCIM response, whole run:             %s\n",
              sim::format_duration(probe.true_latencies().max()).c_str());
  std::printf(
      "(if the whole-run max equals the first-half max, the shielded half\n"
      " never exceeded it — shielding held the line)\n\n");
  std::fputs(kernel::format_cpu_table(p.kernel()).c_str(), stdout);
  return 0;
}

int cmd_inspect(const Args& a) {
  config::Platform p(config::MachineConfig::dual_p3_xeon_933(),
                     config::KernelConfig::vanilla_2_4_20(), a.seed);
  workload::StressKernel{}.install(p);
  p.boot();
  p.run_for(sim::from_seconds(a.seconds));
  std::fputs(kernel::format_system_report(p.kernel()).c_str(), stdout);
  auto& aud = p.kernel().auditor();
  std::printf("\nworst irq-off: %s   worst preempt-off: %s\n",
              sim::format_duration(aud.worst_irq_off()).c_str(),
              sim::format_duration(aud.worst_preempt_off()).c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage(argv[0], stderr);
    return 1;
  }
  const std::string cmd = argv[1];
  if (cmd == "list") return cmd_list(argc, argv);
  if (cmd == "describe" && argc >= 3) return cmd_describe(argv[2]);
  if (cmd == "run") return cmd_run(parse_run(argc, argv, 2));
  if (cmd == "stat") return cmd_stat(parse_observe(argc, argv));
  if (cmd == "trace") return cmd_trace(parse_observe(argc, argv));
  if (cmd == "blame") return cmd_blame(parse_observe(argc, argv));
  if (cmd == "demo") return cmd_demo(Args::parse(argc, argv, 2));
  if (cmd == "inspect") return cmd_inspect(Args::parse(argc, argv, 2));
  if (cmd == "--help" || cmd == "help") {
    usage(argv[0], stdout);
    return 0;
  }
  usage(argv[0], stderr);
  return 1;
}
