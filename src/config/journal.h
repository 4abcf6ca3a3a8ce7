// Write-ahead campaign journal: the one store that keeps outcomes, and the
// one rule that decides which stored outcome answers a (spec, seed) when a
// `shieldctl run` batch resumes.
//
// The journal is an append-only JSONL file. Each line is a checksum
// envelope (json::seal — {format, checksum, record}, checksum = content
// digest of the record) around one of four records:
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
// marks it in-flight for re-queueing. adopt() then hands a resume the done
// records that belong to it.
#pragma once

#include <cstdio>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "config/json.h"
#include "config/scenario_runner.h"

namespace config {

class CampaignJournal {
 public:
  /// v2: every run is the cold run. v1 journals hold done records of
  /// prefix-forked runs; replay counts their lines apart (other_format_lines)
  /// and adopt() refuses to resume such a file.
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

  /// One replayed done record: a terminal outcome and what it was keyed by.
  struct DoneRecord {
    std::string digest;
    std::uint64_t seed = 0;
    RunOutcome outcome;
  };

  /// A campaign's identity, as its campaign record states it. Done records
  /// carry neither the scale nor the flight-dump mode, so outcomes are
  /// adopted only under an identical campaign.
  struct Campaign {
    std::uint64_t root_seed = 0;
    double scale = 1.0;
    std::size_t spec_count = 0;
    std::string flight_dump;  ///< empty (absent key): no flight dumps
    bool operator==(const Campaign&) const = default;
  };

  /// What a journal file contains, after last-record-wins resolution.
  struct Replay {
    std::optional<Campaign> campaign;  ///< absent: no campaign record read
    std::map<std::string, DoneRecord> done;  ///< terminal outcomes by spec name
    std::set<std::string> in_flight;      ///< started, never finished
    std::vector<json::Value> incidents;
    std::uint64_t records = 0;        ///< well-formed records read
    /// Lines skipped: torn, checksum-failed, or sealed records missing a
    /// required field.
    std::uint64_t corrupt_lines = 0;
    /// Lines sealed under another campaign-journal-* format, and the first
    /// such format read. Never applied and never counted as corrupt.
    std::uint64_t other_format_lines = 0;
    std::string other_format;
  };

  /// Read DIR/journal.jsonl. A missing file yields an empty Replay (no
  /// error); corrupt lines are skipped and counted, never fatal — the
  /// journal exists precisely to survive ungraceful death.
  static Replay replay(const std::string& dir);

  /// Which stored outcome answers each spec of a resume.
  struct Adoption {
    /// Per spec, in order: the adopted outcome, or nullopt to run it.
    std::vector<std::optional<RunOutcome>> outcomes;
    std::size_t adopted = 0;
    std::size_t requeued = 0;  ///< started, never finished: run again
  };

  /// The adoption rule. Throws std::runtime_error when the journal as a
  /// whole must not be resumed: it holds lines of another format, names
  /// another campaign, or holds done records but no campaign record.
  /// Otherwise spec i adopts the done record under its name only when that
  /// record's digest and seed are the spec's digest and batch seed.
  static Adoption adopt(const Replay& replay, const Campaign& campaign,
                        const std::vector<ScenarioSpec>& specs);

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
