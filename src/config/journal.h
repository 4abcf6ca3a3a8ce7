// Write-ahead campaign journal: the durability layer under resumable
// `shieldctl run` batches.
//
// The journal is an append-only JSONL file. Each line is a checksum
// envelope (json::seal, the cache entries' shape — {format, checksum,
// record}, checksum = content digest of the record) around one of four
// records:
//
//   campaign  — batch identity: root seed, scale, spec count, and the
//               flight-dump mode when one is on. Written once when the
//               journal is created; replays refuse to adopt results across
//               a change of any of them.
//   start     — a spec was handed to an executor (in-flight marker).
//   done      — a spec reached a terminal outcome; carries the outcome's
//               full wire form (RunOutcome::to_full_json), which is a pure
//               function of (spec, seed) — never wall-clock state.
//   incident  — a host-level event (worker crash, hang, respawn) for the
//               post-mortem record. Never merged into campaign output.
//
// Records are flushed line-at-a-time, so a SIGKILL at any point loses at
// most the line being written — and a torn tail line fails its checksum and
// is skipped (and counted) on replay. Replay applies last-record-wins per
// spec name: a `done` retires the spec, a `start` with no later `done`
// marks it in-flight for re-queueing.
#pragma once

#include <cstdio>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "config/json.h"
#include "config/scenario_runner.h"

namespace config {

class CampaignJournal {
 public:
  /// v2: every run is the cold run. v1 journals hold done records of
  /// prefix-forked runs, so their lines fail the envelope check and their
  /// specs are recomputed, never adopted.
  static constexpr const char* kFormat = "campaign-journal-v2";
  static constexpr const char* kFileName = "journal.jsonl";

  /// Open (appending) DIR/journal.jsonl, creating the directory if needed.
  /// Throws std::runtime_error when the file cannot be opened for append.
  explicit CampaignJournal(const std::string& dir);
  ~CampaignJournal();

  CampaignJournal(const CampaignJournal&) = delete;
  CampaignJournal& operator=(const CampaignJournal&) = delete;

  [[nodiscard]] const std::string& dir() const { return dir_; }
  [[nodiscard]] const std::string& path() const { return path_; }

  /// All writers are thread-safe (batch observers fire from worker threads)
  /// and flush before returning.
  ///
  /// `flight_dump`: the runs' flight-dump mode ("full"/"worst"; empty when
  /// off). A dump-mode run's done record carries its ring, so a resume must
  /// not mix modes. The key is written only when a mode is on.
  void write_campaign(std::uint64_t root_seed, double scale,
                      std::size_t spec_count,
                      const std::string& flight_dump = "");
  void write_start(const std::string& name, const std::string& digest,
                   std::uint64_t seed);
  void write_done(const std::string& name, const std::string& digest,
                  std::uint64_t seed, const RunOutcome& outcome);
  void write_incident(const json::Value& detail);

  /// One adopted (replayed) terminal outcome.
  struct Adopted {
    std::string digest;
    std::uint64_t seed = 0;
    RunOutcome outcome;
  };

  /// What a journal file contains, after last-record-wins resolution.
  struct Replay {
    bool has_campaign = false;
    std::uint64_t root_seed = 0;
    double scale = 1.0;
    std::size_t spec_count = 0;
    std::string flight_dump;  ///< empty (absent key): no flight dumps
    std::map<std::string, Adopted> done;  ///< terminal outcomes by spec name
    std::set<std::string> in_flight;      ///< started, never finished
    std::vector<json::Value> incidents;
    std::uint64_t records = 0;        ///< well-formed records read
    /// Lines skipped: torn, checksum-failed, or sealed records missing a
    /// required field.
    std::uint64_t corrupt_lines = 0;
  };

  /// Read DIR/journal.jsonl. A missing file yields an empty Replay (no
  /// error); corrupt lines are skipped and counted, never fatal — the
  /// journal exists precisely to survive ungraceful death.
  static Replay replay(const std::string& dir);

  /// The deterministic merged campaign output (`campaign-report-v1`):
  /// status counts plus every outcome's wire form, in the given order.
  /// Contains no execution taxonomy and no timestamps, so an interrupted +
  /// resumed campaign merges byte-identically to an uninterrupted one.
  static json::Value merged_report(const std::vector<RunOutcome>& outcomes);

 private:
  void write_record(json::Value record);

  std::string dir_;
  std::string path_;
  std::FILE* file_ = nullptr;
  std::mutex mu_;
};

}  // namespace config
