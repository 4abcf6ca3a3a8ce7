#include "config/journal.h"

#include <filesystem>
#include <stdexcept>
#include <utility>
#include <vector>

namespace config {

using json::Value;

CampaignJournal::CampaignJournal(const std::string& dir) : dir_(dir) {
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  if (!std::filesystem::is_directory(dir_, ec)) {
    throw std::runtime_error("campaign journal: cannot create directory '" +
                             dir_ + "'");
  }
  const std::string path = dir + "/" + kFileName;
  file_ = std::fopen(path.c_str(), "ab");
  if (file_ == nullptr) {
    throw std::runtime_error("campaign journal: cannot open '" + path +
                             "' for append");
  }
}

CampaignJournal::~CampaignJournal() {
  if (file_ != nullptr) std::fclose(file_);
}

void CampaignJournal::write_record(json::Value record) {
  const std::string line =
      json::seal(kFormat, "record", std::move(record)).dump() + "\n";
  std::fwrite(line.data(), 1, line.size(), file_);
  // Flush per record: fflush pushes the line into the kernel, which is
  // exactly the durability a SIGKILL test needs (fsync-grade durability
  // against power loss is not this journal's contract).
  std::fflush(file_);
}

void CampaignJournal::write_campaign(std::uint64_t root_seed, double scale,
                                     std::size_t spec_count,
                                     const std::string& flight_dump) {
  Value r = Value::object();
  r.set("event", "campaign");
  r.set("root_seed", root_seed);
  r.set("scale", scale);
  r.set("specs", spec_count);
  if (!flight_dump.empty()) r.set("flight_dump", flight_dump);
  write_record(std::move(r));
}

void CampaignJournal::write_start(const std::string& name,
                                  const std::string& digest,
                                  std::uint64_t seed) {
  Value r = Value::object();
  r.set("event", "start");
  r.set("name", name);
  r.set("digest", digest);
  r.set("seed", seed);
  write_record(std::move(r));
}

void CampaignJournal::write_done(const std::string& name,
                                 const std::string& digest, std::uint64_t seed,
                                 const RunOutcome& outcome) {
  Value r = Value::object();
  r.set("event", "done");
  r.set("name", name);
  r.set("digest", digest);
  r.set("seed", seed);
  r.set("outcome", outcome.to_full_json());
  write_record(std::move(r));
}

void CampaignJournal::write_incident(const json::Value& detail) {
  Value r = Value::object();
  r.set("event", "incident");
  r.set("detail", detail);
  write_record(std::move(r));
}

CampaignJournal::Replay CampaignJournal::replay(const std::string& dir) {
  Replay out;
  std::FILE* f = std::fopen((dir + "/" + kFileName).c_str(), "rb");
  if (f == nullptr) return out;

  std::string text;
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) text.append(buf, n);
  std::fclose(f);

  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t nl = text.find('\n', pos);
    // A final line without '\n' is by definition torn (write_record always
    // terminates lines) — still run it through the checksum, which rejects it.
    if (nl == std::string::npos) nl = text.size();
    const std::string line = text.substr(pos, nl - pos);
    pos = nl + 1;
    if (line.empty()) continue;
    try {
      const Value env = Value::parse(line);
      const Value* rec = json::unseal(env, kFormat, "record");
      if (rec == nullptr) {
        // A line another journal format wrote is not damage: count it apart,
        // so a resume can name the format instead of blaming torn writes.
        const Value* fmt = env.find("format");
        if (fmt != nullptr && fmt->is_string() && fmt->as_string() != kFormat &&
            fmt->as_string().starts_with("campaign-journal-")) {
          if (out.other_format.empty()) out.other_format = fmt->as_string();
          out.other_format_lines++;
        } else {
          out.corrupt_lines++;
        }
        continue;
      }
      // A sealed record missing a required field is as corrupt as a torn
      // line: at() throws into the catch below before anything is applied.
      const std::string& kind = rec->at("event").as_string();
      if (kind == "campaign") {
        Campaign c;
        if (const Value* v = rec->find("root_seed")) c.root_seed = v->as_u64();
        if (const Value* v = rec->find("scale")) c.scale = v->as_double();
        if (const Value* v = rec->find("specs")) {
          c.spec_count = static_cast<std::size_t>(v->as_u64());
        }
        if (const Value* v = rec->find("flight_dump")) {
          c.flight_dump = v->as_string();
        }
        // Set last, so a mistyped field leaves no half-read identity behind.
        out.campaign = std::move(c);
      } else if (kind == "start") {
        out.in_flight.insert(rec->at("name").as_string());
      } else if (kind == "done") {
        const std::string& name = rec->at("name").as_string();
        DoneRecord a;
        a.digest = rec->at("digest").as_string();
        a.seed = rec->at("seed").as_u64();
        a.outcome = RunOutcome::from_json(rec->at("outcome"));
        out.done[name] = std::move(a);  // last record wins
        out.in_flight.erase(name);
      } else if (kind == "incident") {
        if (const Value* v = rec->find("detail")) out.incidents.push_back(*v);
      }
      // Unknown record kinds are tolerated (forward compatibility).
      out.records++;
    } catch (const std::exception&) {
      out.corrupt_lines++;
    }
  }
  return out;
}

CampaignJournal::Adoption CampaignJournal::adopt(
    const Replay& replay, const Campaign& campaign,
    const std::vector<ScenarioSpec>& specs) {
  if (replay.other_format_lines > 0) {
    throw std::runtime_error(
        "holds " + std::to_string(replay.other_format_lines) +
        " line(s) sealed under " + replay.other_format + ", not " + kFormat +
        "; refusing to mix formats in one file");
  }
  if (replay.campaign && *replay.campaign != campaign) {
    const Campaign& c = *replay.campaign;
    throw std::runtime_error(
        "belongs to a different campaign (seed " + std::to_string(c.root_seed) +
        " scale " + Value(c.scale).dump() + " over " +
        std::to_string(c.spec_count) + " specs, flight dump " +
        (c.flight_dump.empty() ? "off" : c.flight_dump) +
        "); refusing to mix results");
  }
  // A torn first line (killed during the first write) leaves no done
  // records either, and still resumes.
  if (!replay.campaign && !replay.done.empty()) {
    throw std::runtime_error(
        "holds " + std::to_string(replay.done.size()) +
        " completed outcome(s) but no campaign record, so they cannot be "
        "checked against this campaign; refusing to adopt them");
  }
  Adoption out;
  out.outcomes.resize(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const auto it = replay.done.find(specs[i].name);
    if (it != replay.done.end() && it->second.digest == specs[i].digest() &&
        it->second.seed == batch_seed(campaign.root_seed, specs[i])) {
      out.outcomes[i] = it->second.outcome;
      out.adopted++;
    } else if (replay.in_flight.count(specs[i].name) > 0) {
      out.requeued++;
    }
  }
  return out;
}

json::Value CampaignJournal::merged_report(
    const std::vector<RunOutcome>& outcomes) {
  Value v = Value::object();
  v.set("schema", "campaign-report-v1");
  v.set("total", outcomes.size());
  std::size_t ok = 0;
  for (const auto& o : outcomes) {
    if (o.ok()) ok++;
  }
  v.set("ok", ok);
  // Absent when no outcome ran with blame, so blame-free campaign reports
  // keep their exact form.
  if (Value roll = attribution_rollup(outcomes); !roll.is_null()) {
    v.set("attribution", std::move(roll));
  }
  Value arr = Value::array();
  for (const auto& o : outcomes) arr.push(o.to_full_json());
  v.set("outcomes", std::move(arr));
  return v;
}

}  // namespace config
