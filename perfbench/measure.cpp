// perfbench_measure — the measuring half of the shieldsim benchmark.
//
// perfbench/run.py builds this program next to the simulator and calls it
// once per benchmark run:
//
//   perfbench_measure run --workload W --seed N --seconds S
//                        --shieldctl PATH --work-dir DIR [--trace-out FILE]
//   perfbench_measure startup --workload W
//
// `run` repeats identical rounds of the workload for S seconds, each round
// on a fresh ScenarioRunner, and prints one JSON document of raw timings,
// simulated statistics and correctness checks on stdout. run.py turns the
// raw timings into metrics with the fastest-round estimator (see
// perfbench/README.md). `startup` is the set-up probe: it loads the
// registry and validates the workload's specs, then exits, so the parent
// can time process start.
//
// With --trace-out the run alternates untraced and traced rounds, records
// the benchmark's own spans around its calls into the sim, config and
// kernel layers, adds the per-layer probes, and writes the spans as
// trace-event-v1 JSON. Spans wrap calls into public functions only; the
// simulator itself is not instrumented.
#include <fcntl.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <queue>
#include <sstream>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "config/experiment.h"
#include "config/journal.h"
#include "config/json.h"
#include "config/platform.h"
#include "config/scenario.h"
#include "config/scenario_runner.h"
#include "config/supervisor.h"
#include "sim/arena.h"
#include "sim/rng.h"
#include "sim/snapshot.h"
#include "workload/registry.h"

extern char** environ;

namespace {

using config::json::Value;
using Clock = std::chrono::steady_clock;
namespace fs = std::filesystem;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

double seconds_since(std::int64_t t0) {
  return static_cast<double>(now_ns() - t0) * 1e-9;
}

// ---- spans -----------------------------------------------------------------

/// In-memory span log. Spans open and close in LIFO order on one thread, so
/// spans of one nesting depth never overlap and each depth is one track.
class Tracer {
 public:
  struct Span {
    std::string name;
    std::string scenario;
    std::int64_t start = 0;
    std::int64_t end = 0;
    int parent = -1;
    int depth = 0;
  };

  bool enabled = false;

  int open(std::string name, std::string scenario = {}) {
    if (!enabled) return -1;
    Span s;
    s.name = std::move(name);
    s.scenario = std::move(scenario);
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.depth = static_cast<int>(stack_.size());
    s.start = now_ns();
    spans_.push_back(std::move(s));
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }

  void close(int id) {
    if (id < 0) return;
    spans_[static_cast<std::size_t>(id)].end = now_ns();
    if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
  }

  /// trace-event-v1: one "X" event per span on track (pid 1, tid depth),
  /// µs timestamps relative to the first span plus the exact-ns mirror.
  [[nodiscard]] Value to_trace(const std::string& workload) const {
    const std::int64_t origin = spans_.empty() ? 0 : spans_.front().start;
    Value events = Value::array();
    Value pname = Value::object();
    pname.set("name", "process_name");
    pname.set("ph", "M");
    pname.set("pid", 1);
    pname.set("tid", 0);
    Value pargs = Value::object();
    pargs.set("name", "perfbench " + workload);
    pname.set("args", std::move(pargs));
    events.push(std::move(pname));
    int max_depth = 0;
    for (const auto& s : spans_) max_depth = std::max(max_depth, s.depth);
    for (int d = 0; d <= max_depth && !spans_.empty(); ++d) {
      Value tname = Value::object();
      tname.set("name", "thread_name");
      tname.set("ph", "M");
      tname.set("pid", 1);
      tname.set("tid", d);
      Value targs = Value::object();
      targs.set("name", "depth " + std::to_string(d));
      tname.set("args", std::move(targs));
      events.push(std::move(tname));
    }
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const auto& s = spans_[i];
      const std::int64_t start = s.start - origin;
      const std::int64_t dur = std::max<std::int64_t>(0, s.end - s.start);
      Value e = Value::object();
      e.set("name", s.name);
      e.set("cat", s.name.substr(0, s.name.find('.')));
      e.set("ph", "X");
      e.set("pid", 1);
      e.set("tid", s.depth);
      e.set("ts", static_cast<double>(start) / 1000.0);
      e.set("dur", static_cast<double>(dur) / 1000.0);
      Value args = Value::object();
      args.set("ns", start);
      args.set("dur_ns", dur);
      args.set("span", static_cast<std::int64_t>(i));
      args.set("parent", static_cast<std::int64_t>(s.parent));
      if (!s.scenario.empty()) args.set("scenario", s.scenario);
      e.set("args", std::move(args));
      events.push(std::move(e));
    }
    Value other = Value::object();
    other.set("schema", "trace-event-v1");
    other.set("source", "perfbench");
    Value doc = Value::object();
    doc.set("traceEvents", std::move(events));
    doc.set("displayTimeUnit", "ns");
    doc.set("otherData", std::move(other));
    return doc;
  }

  /// Per span name: total and self time (span minus its children), ns.
  [[nodiscard]] Value self_times() const {
    std::vector<std::int64_t> child(spans_.size(), 0);
    for (const auto& s : spans_) {
      if (s.parent >= 0) {
        child[static_cast<std::size_t>(s.parent)] += s.end - s.start;
      }
    }
    std::map<std::string, std::array<std::int64_t, 3>> by_name;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      auto& row = by_name[spans_[i].name];
      const std::int64_t total = spans_[i].end - spans_[i].start;
      row[0] += 1;
      row[1] += total;
      row[2] += total - child[i];
    }
    Value out = Value::object();
    for (const auto& [name, row] : by_name) {
      Value r = Value::object();
      r.set("count", row[0]);
      r.set("total_ns", row[1]);
      r.set("self_ns", row[2]);
      out.set(name, std::move(r));
    }
    return out;
  }

 private:
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// RAII span; a no-op when the tracer is off.
class SpanScope {
 public:
  SpanScope(Tracer& t, std::string name, std::string scenario = {})
      : t_(t), id_(t.open(std::move(name), std::move(scenario))) {}
  ~SpanScope() { t_.close(id_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Tracer& t_;
  int id_;
};

// ---- workloads -------------------------------------------------------------

/// One benchmark workload: which specs, at which scale, over which campaign
/// root seeds, and how shieldctl issues one campaign of it.
struct BenchWorkload {
  std::string name;
  std::vector<config::ScenarioSpec> specs;
  std::string scale_text;  // passed verbatim to shieldctl and strtod
  double scale = 1.0;
  bool prefix_reuse = false;
  std::vector<std::string> cli_select;  // spec selection on the CLI
  std::vector<std::uint64_t> roots;     // one campaign per root seed
};

std::vector<config::ScenarioSpec> registry_specs(
    const std::vector<std::string>& names) {
  const auto& reg = config::ScenarioRegistry::builtin();
  if (names.empty()) return reg.all();
  std::vector<config::ScenarioSpec> out;
  for (const auto& n : names) {
    const auto* s = reg.find(n);
    if (s == nullptr) throw std::runtime_error("unknown scenario " + n);
    out.push_back(*s);
  }
  return out;
}

BenchWorkload workload_named(const std::string& name, std::uint64_t seed) {
  BenchWorkload w;
  w.name = name;
  int campaigns = 1;
  if (name == "stress-long") {
    // fig5 + fig6 the way the figure benches run them: cold boot, no
    // prefix reuse. The scale keeps each scenario short (50-110 ms), so
    // each gets twenty-odd rounds and some of them run at the host's fast
    // speed; sixteen root seeds keep the paper-error mean of two worst-case
    // maxima steady across --seed values.
    w.specs = registry_specs({"fig5", "fig6"});
    w.scale_text = "0.005";
    w.cli_select = {"fig5", "fig6", "--no-prefix"};
    campaigns = 16;
  } else if (name == "registry-sweep") {
    // Every built-in spec at tools/verify.sh's --smoke scale, in-process,
    // prefix reuse on as in `shieldctl run --all`.
    w.specs = registry_specs({});
    w.scale_text = "0.01";
    w.prefix_reuse = true;
    w.cli_select = {"--all"};
  } else {
    throw std::runtime_error("unknown workload '" + name + "'");
  }
  w.scale = std::strtod(w.scale_text.c_str(), nullptr);
  for (int k = 0; k < campaigns; ++k) {
    w.roots.push_back(
        sim::derive_seed(seed, name + "#campaign" + std::to_string(k)));
  }
  return w;
}

config::ScenarioRunner::Options runner_options(const BenchWorkload& w) {
  config::ScenarioRunner::Options ro;
  ro.jobs = 1;
  ro.scale = w.scale;
  ro.cache = false;
  ro.prefix_reuse = w.prefix_reuse;
  return ro;
}

// ---- processes -------------------------------------------------------------

/// Spawn `argv` with stdout discarded and stderr appended to `err_path`,
/// wait for it, and return its exit status (-1 when it did not exit).
int run_process(const std::vector<std::string>& argv,
                const std::string& err_path) {
  posix_spawn_file_actions_t fa;
  posix_spawn_file_actions_init(&fa);
  posix_spawn_file_actions_addopen(&fa, 1, "/dev/null", O_WRONLY, 0);
  posix_spawn_file_actions_addopen(&fa, 2, err_path.c_str(),
                                   O_WRONLY | O_CREAT | O_APPEND, 0644);
  std::vector<char*> args;
  for (const auto& a : argv) args.push_back(const_cast<char*>(a.c_str()));
  args.push_back(nullptr);
  pid_t pid = 0;
  const int rc = posix_spawn(&pid, argv[0].c_str(), &fa, nullptr, args.data(),
                             environ);
  posix_spawn_file_actions_destroy(&fa);
  if (rc != 0) return -1;
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0) {
    if (errno != EINTR) return -1;
  }
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

std::string read_text(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

// ---- run state -------------------------------------------------------------

/// A round is the untimed warm-up, an untraced timed round, or (with
/// --trace-out) a traced one.
enum class Pass { kWarmUp, kTimed, kTraced };

/// One timed item: a scenario (timed by BatchObserver) or one rerun of the
/// store campaign through shieldctl.
struct Item {
  std::string name;
  std::string kind;
  std::uint64_t scenarios = 1;
  std::uint64_t events = 0;
  std::uint64_t sim_ns = 0;
  std::vector<double> rounds_s;
  std::vector<double> traced_rounds_s;
  std::string reference;  // warm-up round's wire JSON, for the identity gate

  std::vector<double>& times(Pass pass) {
    return pass == Pass::kTraced ? traced_rounds_s : rounds_s;
  }
};

// The runner's prefix platforms are seeded from the prefix key under this
// root (scenario_runner.cpp), so the set-up probe builds the very prefixes
// the workload forks.
constexpr std::uint64_t kPrefixSeedRoot = 0x707265666978ull;

struct PrefixTimes {
  double build_s = 0, boot_s = 0, capture_s = 0;
  std::vector<double> restore_s;
  std::size_t bytes = 0;
};

/// Build, boot and checkpoint one spec's prefix in a pooled arena the way
/// the runner's prefix cache does, timing each phase, then restore the
/// checkpoint `restores` times.
PrefixTimes drive_prefix(const config::ScenarioSpec& spec, int restores,
                         Tracer& tr) {
  const auto machine = config::find_machine(spec.machine);
  auto kcfg = config::find_kernel(spec.kernel);
  if (!machine || !kcfg) throw std::runtime_error("bad prefix " + spec.name);
  config::apply_kernel_overrides(*kcfg, spec.kernel_overrides);
  const std::uint64_t seed =
      sim::derive_seed(kPrefixSeedRoot, config::scenario_prefix_key(spec));
  PrefixTimes t;
  sim::PooledArena arena;
  sim::Snapshot snap;
  config::Platform* p = nullptr;
  SpanScope prefix(tr, "bench.prefix", spec.name);
  // Each phase activates the arena only around the call it times, so span
  // bookkeeping never allocates arena memory that a restore would rewind.
  const auto phase = [&](const char* name, const auto& fn) {
    SpanScope s(tr, name, spec.name);
    const std::int64_t t0 = now_ns();
    {
      sim::StateArena::Scope scope(*arena);
      fn();
    }
    return seconds_since(t0);
  };
  t.build_s = phase("config.build", [&] {
    p = new config::Platform(*machine, *kcfg, seed, spec.ht_override);
    for (const auto& wl : spec.workloads) {
      workload::make_workload(wl.name, wl.params)->install(*p);
    }
  });
  t.boot_s = phase("config.boot", [&] { p->boot(); });
  t.capture_s =
      phase("sim.capture", [&] { snap = sim::Snapshot::capture(*arena); });
  t.bytes = snap.bytes();
  for (int i = 0; i < restores; ++i) {
    t.restore_s.push_back(
        phase("sim.restore", [&] { snap.restore(*arena); }));
  }
  // Tear down like the runner's cache entry: rewind, then destroy the
  // coherent post-boot object graph inside the arena.
  sim::StateArena::Scope scope(*arena);
  snap.restore(*arena);
  delete p;
  return t;
}

/// First spec of every distinct prefix, and how many specs share it.
std::vector<std::pair<const config::ScenarioSpec*, int>> prefixes_of(
    const std::vector<config::ScenarioSpec>& specs) {
  std::map<std::string, std::size_t> at;
  std::vector<std::pair<const config::ScenarioSpec*, int>> out;
  for (const auto& s : specs) {
    const auto [it, fresh] =
        at.emplace(config::scenario_prefix_key(s), out.size());
    if (fresh) out.emplace_back(&s, 0);
    out[it->second].second++;
  }
  return out;
}

/// Sum of every cell of a (possibly sharded) telemetry metric.
std::uint64_t metric_total(const telemetry::Registry& reg,
                           const std::string& name) {
  std::uint64_t sum = 0;
  for (const auto& s : reg.snapshot()) {
    if (s.series == name || s.series.rfind(name + "[", 0) == 0) sum += s.value;
  }
  return sum;
}

double min_of(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::min_element(v.begin(), v.end());
}

double median_of(std::vector<double> v) {
  if (v.empty()) return 0.0;
  const auto mid = v.begin() + static_cast<std::ptrdiff_t>(v.size() / 2);
  std::nth_element(v.begin(), mid, v.end());
  if (v.size() % 2 == 1) return *mid;
  return (*mid + *std::max_element(v.begin(), mid)) / 2.0;
}

double mean_of(const std::vector<double>& v) {
  double s = 0;
  for (const double x : v) s += x;
  return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

/// The host-speed reference: a fixed discrete-event loop (a binary heap of
/// 4096 pending events and a hash map of per-id totals, about 100 KB, so
/// the work stays in cache; ≈10 ms, as long as a typical scenario) timed
/// between rounds. It shares no code with
/// the simulator, so a program change never moves it, while the host's
/// speed moves it with the simulator's (see perfbench/README.md). Returns
/// a checksum so the compiler keeps the work.
std::uint64_t reference_kernel() {
  using Event = std::pair<std::uint64_t, std::uint32_t>;
  std::priority_queue<Event, std::vector<Event>, std::greater<>> queue;
  std::unordered_map<std::uint32_t, std::uint64_t> totals;
  std::uint64_t x = 1;
  for (std::uint32_t id = 0; id < 4096; ++id) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    queue.emplace(x >> 40, id);
  }
  for (int i = 0; i < 100000; ++i) {
    const auto [t, id] = queue.top();
    queue.pop();
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    totals[id] += t;
    queue.emplace(t + (x >> 50), id);
  }
  return totals.size() + queue.top().first;
}

/// The paper's reported headline numbers, per registry spec.
struct PaperRef {
  const char* spec;
  const char* stat;  // jitter_pct | max_ms | min_us | avg_us | max_us
  double value;
};
constexpr PaperRef kPaper[] = {
    {"fig1", "jitter_pct", 26.17}, {"fig2", "jitter_pct", 1.87},
    {"fig3", "jitter_pct", 14.82}, {"fig4", "jitter_pct", 13.15},
    {"fig5", "max_ms", 92.3},      {"fig6", "max_ms", 0.565},
    {"fig7", "min_us", 11.0},      {"fig7", "avg_us", 11.3},
    {"fig7", "max_us", 27.0},      {"preempt-lowlat", "max_ms", 1.2},
};

double paper_stat(const rt::ProbeResult& p, const std::string& stat) {
  const auto& h = p.primary;
  if (stat == "jitter_pct") {
    return p.ideal == 0 ? 0.0
                        : 100.0 * static_cast<double>(h.max()) /
                              static_cast<double>(p.ideal);
  }
  if (stat == "max_ms") return static_cast<double>(h.max()) / 1e6;
  if (stat == "min_us") return static_cast<double>(h.min()) / 1e3;
  if (stat == "avg_us") return static_cast<double>(h.mean()) / 1e3;
  return static_cast<double>(h.max()) / 1e3;  // max_us
}

/// What one run measures and checks; dumped as the program's output.
class Run {
 public:
  Run(BenchWorkload w, std::string shieldctl, std::string work_dir, bool traced)
      : w_(std::move(w)),
        shieldctl_(std::move(shieldctl)),
        work_(std::move(work_dir)),
        traced_(traced) {}

  void execute(double seconds);
  [[nodiscard]] Value output() const;
  [[nodiscard]] const Tracer& tracer() const { return tracer_; }

 private:
  void warm();
  void setup_sample();
  void reference_sample();
  void inprocess_round(Pass pass);
  void rerun_passes(Pass pass);
  void reference_pass();
  void layer_probes();
  void store_layer_probe();
  void supervisor_probe();
  void kernel_probe();
  void tally(const config::RunOutcome& o);
  void check(const std::string& name, bool ok, const std::string& detail);
  [[nodiscard]] std::vector<std::string> store_argv() const;
  [[nodiscard]] std::string store_dir() const { return work_ + "/store"; }

  BenchWorkload w_;
  std::string shieldctl_;
  std::string work_;
  bool traced_;
  Tracer tracer_;
  std::vector<Item> items_;
  std::map<std::string, std::vector<double>> setup_;
  std::vector<double> reference_s_;  // reference kernel, per timed run
  std::map<std::string, std::string> failed_checks_;
  std::map<std::string, std::uint64_t> checks_run_;
  std::map<std::string, std::uint64_t> status_counts_;
  std::uint64_t attempted_ = 0, not_ok_ = 0, retried_ = 0, respawns_ = 0;
  std::uint64_t prefix_hits_ = 0, prefix_runs_ = 0;
  int rounds_ = 0;
  double measured_s_ = 0;
  /// Per campaign: the warm-up round's run_batch_report outcomes, the
  /// reference every other path is compared against; and campaign 0's
  /// merged.json bytes, which every store read must reproduce.
  std::vector<std::vector<config::RunOutcome>> ref_outcomes_;
  std::string merged_ref_;
  Value layers_ = Value::object();
  Value kernel_ = Value::object();
};

void Run::check(const std::string& name, bool ok, const std::string& detail) {
  checks_run_[name]++;
  if (!ok && failed_checks_.count(name) == 0) failed_checks_[name] = detail;
}

void Run::tally(const config::RunOutcome& o) {
  attempted_++;
  status_counts_[config::to_string(o.status)]++;
  if (!o.ok()) not_ok_++;
  if (o.status == config::RunStatus::kRetried) retried_++;
}

/// shieldctl's command line for the store campaign: campaign 0 of the
/// workload, journaled in the work directory.
std::vector<std::string> Run::store_argv() const {
  std::vector<std::string> a = {shieldctl_, "run"};
  a.insert(a.end(), w_.cli_select.begin(), w_.cli_select.end());
  a.insert(a.end(), {"--scale", w_.scale_text, "--seed",
                     std::to_string(w_.roots[0]), "--journal",
                     store_dir() + "/journal", "--jobs", "1"});
  return a;
}

/// Touch every process-wide static the runner warms before it first
/// activates an arena (drive_prefix activates one directly): one tiny
/// forked run does it through the public path.
void Run::warm() {
  for (const auto& s : w_.specs) s.validate();
  config::ScenarioRunner::Options ro;
  ro.jobs = 1;
  ro.cache = false;
  ro.prefix_reuse = true;
  ro.scale = 5e-05;
  config::ScenarioRunner runner(ro);
  (void)runner.run_outcome(w_.specs.front(), 1);
}

// ---- set-up ------------------------------------------------------------------

void Run::setup_sample() {
  const bool tracing = tracer_.enabled;
  tracer_.enabled = false;  // set-up samples are never traced
  // Process start is most of set-up and the noisiest part: sample it more.
  for (int i = 0; i < 6; ++i) {
    const std::int64_t t0 = now_ns();
    const int rc =
        run_process({"/proc/self/exe", "startup", "--workload", w_.name},
                    work_ + "/stderr.log");
    setup_["startup"].push_back(seconds_since(t0));
    check("startup-probe-exit", rc == 0,
          "startup probe exited " + std::to_string(rc));
  }
  const auto prefixes = prefixes_of(w_.specs);
  for (std::size_t i = 0; i < prefixes.size(); ++i) {
    const auto t = drive_prefix(*prefixes[i].first, 0, tracer_);
    const std::string tag = "#" + std::to_string(i);
    setup_["build" + tag].push_back(t.build_s);
    setup_["boot" + tag].push_back(t.boot_s);
    // The cold path (stress-long) never checkpoints.
    if (w_.prefix_reuse) setup_["capture" + tag].push_back(t.capture_s);
  }
  tracer_.enabled = tracing;
}

/// Four timed runs of the reference kernel, once per timed round, so its
/// samples spread over the whole run like the rounds'.
void Run::reference_sample() {
  std::uint64_t sum = 0;
  for (int i = 0; i < 4; ++i) {
    const std::int64_t t0 = now_ns();
    sum += reference_kernel();
    reference_s_.push_back(seconds_since(t0));
  }
  check("reference-kernel", sum == 4 * reference_kernel(),
        "the reference kernel's checksum changed between runs");
}

// ---- rounds ------------------------------------------------------------------

void Run::inprocess_round(Pass pass) {
  SpanScope round(tracer_, "bench.round");
  const std::size_t n = w_.specs.size();
  for (std::size_t k = 0; k < w_.roots.size(); ++k) {
    config::ScenarioRunner runner(runner_options(w_));  // fresh: cold caches
    std::int64_t started = 0;
    int span = -1;
    config::ScenarioRunner::BatchObserver obs;
    obs.started = [&](std::size_t, const config::ScenarioSpec& s,
                      std::uint64_t seed) {
      span = tracer_.open("config.scenario",
                          s.name + "#" + std::to_string(seed));
      started = now_ns();
    };
    obs.finished = [&](std::size_t i, const config::ScenarioSpec&,
                       const config::RunOutcome& out) {
      const double dt = seconds_since(started);
      tracer_.close(span);
      Item& item = items_[k * n + i];
      if (pass != Pass::kWarmUp) item.times(pass).push_back(dt);
      std::string wire = out.to_full_json().dump();
      if (item.reference.empty()) {
        item.reference = std::move(wire);
        if (out.result) {
          item.events = out.result->events;
          item.sim_ns = out.result->duration_ns;
        }
      } else {
        check("round-identical", wire == item.reference,
              item.name + " differs from its warm-up round");
      }
      tally(out);
    };
    auto report = runner.run_batch_report(w_.specs, w_.roots[k], obs);
    prefix_hits_ += report.prefix_hits;
    prefix_runs_ += report.prefix_hits + report.prefix_misses;
    if (ref_outcomes_.size() <= k) {
      ref_outcomes_.push_back(std::move(report.outcomes));
    }
  }
}

/// The store campaign issued again eight times, every outcome adopted from
/// the journal the reference pass wrote.
void Run::rerun_passes(Pass pass) {
  const auto argv = store_argv();
  const std::string merged_path = store_dir() + "/journal/merged.json";
  Item& item = items_.back();
  for (int r = 0; r < 8; ++r) {
    const std::int64_t t0 = now_ns();
    int rc = 0;
    {
      SpanScope s(tracer_, "campaign.rerun",
                  "campaign#" + std::to_string(w_.roots[0]));
      rc = run_process(argv, work_ + "/stderr.log");
    }
    item.times(pass).push_back(seconds_since(t0));
    check("campaign-exit", rc == 0, "rerun exited " + std::to_string(rc));
    check("rerun-merged-byte-equal", read_text(merged_path) == merged_ref_,
          "rerun merged.json differs from the store campaign's");
  }
}

/// Once per run, after the warm-up round: shieldctl writes the store
/// campaign that the rerun passes adopt, and its merged.json must equal
/// merged_report() of the warm-up round's in-process outcomes for the same
/// (spec, seed).
void Run::reference_pass() {
  fs::create_directories(store_dir());
  const int rc = run_process(store_argv(), work_ + "/stderr.log");
  check("campaign-exit", rc == 0,
        "store campaign exited " + std::to_string(rc));
  merged_ref_ =
      config::CampaignJournal::merged_report(ref_outcomes_.front()).dump(2) +
      "\n";
  check("cli-matches-inprocess",
        read_text(store_dir() + "/journal/merged.json") == merged_ref_,
        "shieldctl's merged.json differs from run_batch_report's for the "
        "same (spec, seed)");
}

void Run::execute(double seconds) {
  const std::size_t n = w_.specs.size();
  for (std::size_t k = 0; k < w_.roots.size(); ++k) {
    for (std::size_t i = 0; i < n; ++i) {
      Item it;
      it.name = w_.specs[i].name + "@campaign#" + std::to_string(k);
      it.kind = "scenario";
      items_.push_back(std::move(it));
    }
  }
  Item rerun;
  rerun.name = "campaign#0/rerun";
  rerun.kind = "rerun";
  rerun.scenarios = n;
  items_.push_back(std::move(rerun));

  warm();
  const std::int64_t start = now_ns();
  // The warm-up round grows the heap and fills the caches; it records the
  // reference results every later round must repeat, and is not timed.
  inprocess_round(Pass::kWarmUp);
  reference_pass();
  double last_round = 0;
  // A traced run alternates untraced and traced rounds, so both see the
  // same host phases. Each kind needs four rounds for its fastest one.
  const int min_rounds = traced_ ? 8 : 4;
  while (rounds_ < min_rounds ||
         seconds_since(start) + last_round < seconds) {
    const Pass pass =
        traced_ && rounds_ % 2 == 1 ? Pass::kTraced : Pass::kTimed;
    tracer_.enabled = pass == Pass::kTraced;
    setup_sample();
    reference_sample();
    const std::int64_t r0 = now_ns();
    inprocess_round(pass);
    rerun_passes(pass);
    last_round = seconds_since(r0);
    rounds_++;
  }
  measured_s_ = seconds_since(start);
  tracer_.enabled = traced_;
  if (traced_) layer_probes();
}

// ---- per-layer probes (traced runs) ------------------------------------------

void Run::layer_probes() {
  SpanScope all(tracer_, "bench.layers");
  // Prefix phases: build/boot/capture come from the set-up samples
  // (median per prefix, as in setup_s); restore is timed here, once per
  // fork the workload makes (at least once per prefix), fastest per prefix.
  std::vector<double> restore, bytes;
  double build = 0, boot = 0, capture = 0;
  const auto prefixes = prefixes_of(w_.specs);
  for (std::size_t i = 0; i < prefixes.size(); ++i) {
    const auto& [spec, shared] = prefixes[i];
    const int forks = w_.prefix_reuse ? std::max(1, shared - 1) : 1;
    const auto t = drive_prefix(*spec, forks, tracer_);
    restore.push_back(min_of(t.restore_s));
    bytes.push_back(static_cast<double>(t.bytes));
    const std::string tag = "#" + std::to_string(i);
    build += median_of(setup_["build" + tag]);
    boot += median_of(setup_["boot" + tag]);
    // The cold path never checkpoints, so its set-up has no capture
    // samples; the probe's own capture stands in.
    capture +=
        w_.prefix_reuse ? median_of(setup_["capture" + tag]) : t.capture_s;
  }
  const auto np = static_cast<double>(prefixes.size());
  layers_.set("config.build_ms", build / np * 1e3);
  layers_.set("config.boot_ms", boot / np * 1e3);
  layers_.set("sim.capture_us", capture / np * 1e6);
  layers_.set("sim.restore_us", mean_of(restore) * 1e6);
  layers_.set("sim.snapshot_kb", mean_of(bytes) / 1024.0);
  layers_.set("config.prefix_hit_pct",
              prefix_runs_ == 0 ? 0.0
                                : 100.0 * static_cast<double>(prefix_hits_) /
                                      static_cast<double>(prefix_runs_));
  store_layer_probe();
  supervisor_probe();
  kernel_probe();
  layers_.set("config.failed", not_ok_);
  layers_.set("config.retried", retried_);
  layers_.set("config.respawns", respawns_);
}

/// The store layer on campaign 0's outcomes: wire serialization, parsing,
/// journal appends, replay and the merged report, three fresh journals,
/// fastest repetition per operation.
void Run::store_layer_probe() {
  const auto& outs = ref_outcomes_.front();
  const std::size_t n = outs.size();
  std::vector<double> ser(n, 1e9), parse(n, 1e9), append(n, 1e9);
  double replay = 1e9, merge = 1e9, wire_bytes = 0;
  for (int rep = 0; rep < 3; ++rep) {
    const std::string dir = work_ + "/layer-journal" + std::to_string(rep);
    fs::remove_all(dir);
    {
      config::CampaignJournal journal(dir);
      journal.write_campaign(w_.roots[0], w_.scale, n);
      for (std::size_t i = 0; i < n; ++i) {
        const auto& o = outs[i];
        const std::string scen = o.name;
        std::int64_t t0 = now_ns();
        std::string wire;
        {
          SpanScope s(tracer_, "config.serialize", scen);
          wire = o.to_full_json().dump();
        }
        ser[i] = std::min(ser[i], seconds_since(t0));
        if (rep == 0) wire_bytes += static_cast<double>(wire.size());
        t0 = now_ns();
        std::optional<config::RunOutcome> back;
        {
          SpanScope s(tracer_, "config.parse", scen);
          back = config::RunOutcome::from_json(Value::parse(wire));
        }
        parse[i] = std::min(parse[i], seconds_since(t0));
        check("wire-roundtrip", back->to_full_json().dump() == wire,
              scen + " does not round-trip through its wire form");
        const std::uint64_t seed = sim::derive_seed(
            w_.roots[0], sim::SeedDomain::kBatch, w_.specs[i].name);
        t0 = now_ns();
        {
          SpanScope s(tracer_, "config.journal_append", scen);
          journal.write_done(w_.specs[i].name, w_.specs[i].digest(), seed, o);
        }
        append[i] = std::min(append[i], seconds_since(t0));
      }
    }
    std::int64_t t0 = now_ns();
    config::CampaignJournal::Replay rp;
    {
      SpanScope s(tracer_, "config.journal_replay");
      rp = config::CampaignJournal::replay(dir);
    }
    replay = std::min(replay, seconds_since(t0));
    check("journal-replay-complete", rp.done.size() == n,
          "replay recovered " + std::to_string(rp.done.size()) + " of " +
              std::to_string(n) + " outcomes");
    t0 = now_ns();
    std::string merged;
    {
      SpanScope s(tracer_, "config.merge");
      merged = config::CampaignJournal::merged_report(outs).dump(2) + "\n";
    }
    merge = std::min(merge, seconds_since(t0));
    check("merge-deterministic", merged == merged_ref_,
          "merged report differs between calls");
    fs::remove_all(dir);
  }
  const auto nd = static_cast<double>(n);
  layers_.set("config.wire_kb", wire_bytes / nd / 1024.0);
  layers_.set("config.serialize_us", mean_of(ser) * 1e6);
  layers_.set("config.parse_us", mean_of(parse) * 1e6);
  layers_.set("config.journal_append_us", mean_of(append) * 1e6);
  layers_.set("config.journal_replay_ms", replay * 1e3);
  layers_.set("config.merge_ms", merge * 1e3);
}

/// Supervisor::run with one worker against run_batch_report on the same
/// specs (campaign 0), alternating, fastest of two each.
void Run::supervisor_probe() {
  double inproc = 1e9, supervised = 1e9;
  for (int rep = 0; rep < 2; ++rep) {
    std::int64_t t0 = now_ns();
    config::BatchReport a;
    {
      SpanScope s(tracer_, "config.run_batch_report");
      config::ScenarioRunner runner(runner_options(w_));
      a = runner.run_batch_report(w_.specs, w_.roots[0]);
    }
    inproc = std::min(inproc, seconds_since(t0));
    config::Supervisor::Options so;
    so.workers = 1;
    so.runner = runner_options(w_);
    config::Supervisor sup(so);
    t0 = now_ns();
    config::BatchReport b;
    {
      SpanScope s(tracer_, "config.supervisor_run");
      b = sup.run(w_.specs, w_.roots[0]);
    }
    supervised = std::min(supervised, seconds_since(t0));
    respawns_ += sup.stats().respawns;
    bool same = a.outcomes.size() == b.outcomes.size();
    for (std::size_t i = 0; same && i < a.outcomes.size(); ++i) {
      same = a.outcomes[i].to_full_json() == b.outcomes[i].to_full_json();
    }
    check("supervised-matches-inprocess", same,
          "Supervisor::run outcomes differ from run_batch_report's");
  }
  layers_.set("config.supervisor_overhead_pct",
              (supervised / inproc - 1.0) * 100.0);
}

/// Engine telemetry counters read in a `finished` hook. Hooks force the
/// cold path, so this is its own pass over campaign 0's specs; on the cold
/// workload (stress-long) its results must equal the untraced rounds'.
void Run::kernel_probe() {
  static const std::pair<const char*, const char*> kCounters[] = {
      {"kernel.switches_per_sim_s", "sched.switches"},
      {"kernel.irqs_per_sim_s", "irq.delivered"},
      {"kernel.softirqs_per_sim_s", "kernel.softirq_raised"},
      {"kernel.syscalls_per_sim_s", "kernel.syscalls"},
      {"kernel.lock_acq_per_sim_s", "lock.acquisitions"},
  };
  auto ro = runner_options(w_);
  ro.prefix_reuse = false;
  config::ScenarioRunner runner(ro);
  std::map<std::string, double> totals;
  double sim_s = 0;
  config::ScenarioRunner::Hooks hooks;
  hooks.finished = [&](config::Platform& p, rt::Probe&) {
    for (const auto& [metric, series] : kCounters) {
      totals[metric] += static_cast<double>(
          metric_total(p.engine().telemetry(), series));
    }
    sim_s += static_cast<double>(p.engine().now()) / 1e9;
  };
  for (std::size_t i = 0; i < w_.specs.size(); ++i) {
    const auto& spec = w_.specs[i];
    const std::uint64_t seed =
        sim::derive_seed(w_.roots[0], sim::SeedDomain::kBatch, spec.name);
    config::ScenarioResult r;
    {
      SpanScope s(tracer_, "kernel.hooked_run",
                  spec.name + "#" + std::to_string(seed));
      r = runner.run(spec, seed, hooks);
    }
    if (!w_.prefix_reuse) {
      const auto& ref = ref_outcomes_.front()[i];
      check("traced-equals-untraced",
            ref.result && ref.result->to_json() == r.to_json(),
            spec.name + ": hooked run differs from the untraced rounds");
    }
  }
  for (const auto& [metric, series] : kCounters) {
    layers_.set(metric, sim_s > 0 ? totals[metric] / sim_s : 0.0);
    kernel_.set(series, totals[metric]);
  }
  kernel_.set("sim_s", sim_s);
}

// ---- output ------------------------------------------------------------------

Value Run::output() const {
  Value v = Value::object();
  v.set("workload", w_.name);
  v.set("traced", traced_);
  v.set("rounds", rounds_);
  v.set("measured_s", measured_s_);
  v.set("specs", static_cast<std::uint64_t>(w_.specs.size()));
  v.set("campaigns", static_cast<std::uint64_t>(w_.roots.size()));
  v.set("scale", w_.scale);
  Value items = Value::array();
  for (const auto& it : items_) {
    Value i = Value::object();
    i.set("name", it.name);
    i.set("kind", it.kind);
    i.set("scenarios", it.scenarios);
    i.set("events", it.events);
    i.set("sim_ns", it.sim_ns);
    Value r = Value::array();
    for (const double x : it.rounds_s) r.push(x);
    i.set("rounds_s", std::move(r));
    Value t = Value::array();
    for (const double x : it.traced_rounds_s) t.push(x);
    i.set("traced_rounds_s", std::move(t));
    items.push(std::move(i));
  }
  v.set("items", std::move(items));
  Value setup = Value::object();
  for (const auto& [name, samples] : setup_) {
    Value s = Value::array();
    for (const double x : samples) s.push(x);
    setup.set(name, std::move(s));
  }
  v.set("setup", std::move(setup));
  Value reference = Value::array();
  for (const double x : reference_s_) reference.push(x);
  v.set("reference_s", std::move(reference));
  v.set("attempted", attempted_);
  v.set("not_ok", not_ok_);
  Value status = Value::object();
  for (const auto& [name, count] : status_counts_) status.set(name, count);
  v.set("status", std::move(status));
  Value checks = Value::object();
  for (const auto& [name, count] : checks_run_) {
    Value c = Value::object();
    c.set("runs", count);
    const auto f = failed_checks_.find(name);
    c.set("ok", f == failed_checks_.end());
    if (f != failed_checks_.end()) c.set("detail", f->second);
    checks.set(name, std::move(c));
  }
  v.set("checks", std::move(checks));
  // Paper-referenced headline numbers, per campaign, from the reference
  // outcomes (the workload's scale and seeds).
  Value paper = Value::array();
  for (std::size_t k = 0; k < ref_outcomes_.size(); ++k) {
    for (const auto& o : ref_outcomes_[k]) {
      for (const auto& pr : kPaper) {
        if (o.name != pr.spec || !o.result) continue;
        Value p = Value::object();
        p.set("campaign", static_cast<std::uint64_t>(k));
        p.set("name", std::string(pr.spec) + "." + pr.stat);
        p.set("sim", paper_stat(o.result->probe, pr.stat));
        p.set("paper", pr.value);
        paper.push(std::move(p));
      }
    }
  }
  v.set("paper", std::move(paper));
  v.set("layers", layers_);
  v.set("kernel", kernel_);
  if (traced_) v.set("span_time_ns", tracer_.self_times());
  struct rusage self {};
  struct rusage children {};
  ::getrusage(RUSAGE_SELF, &self);
  ::getrusage(RUSAGE_CHILDREN, &children);
  Value rss = Value::object();
  rss.set("self_kb", static_cast<std::int64_t>(self.ru_maxrss));
  rss.set("children_kb", static_cast<std::int64_t>(children.ru_maxrss));
  v.set("peak_rss", std::move(rss));
  return v;
}

// ---- entry -------------------------------------------------------------------

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: perfbench_measure run --workload W --seed N --seconds S "
               "--shieldctl PATH --work-dir DIR [--trace-out FILE]\n"
               "       perfbench_measure startup --workload W\n");
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage();
  const std::string mode = argv[1];
  std::map<std::string, std::string> opt;
  for (int i = 2; i + 1 < argc; i += 2) {
    if (std::strncmp(argv[i], "--", 2) != 0) usage();
    opt[argv[i] + 2] = argv[i + 1];
  }
  if (opt.count("workload") == 0) usage();
  try {
    if (mode == "startup") {
      // Set-up probe: registry load and spec validation, nothing else.
      const auto w = workload_named(opt["workload"], 0);
      for (const auto& s : w.specs) {
        s.validate();
        (void)s.digest();
      }
      return 0;
    }
    if (mode != "run" || opt.count("seed") == 0 || opt.count("seconds") == 0 ||
        opt.count("shieldctl") == 0 || opt.count("work-dir") == 0) {
      usage();
    }
    const std::uint64_t seed = std::strtoull(opt["seed"].c_str(), nullptr, 10);
    const double seconds = std::strtod(opt["seconds"].c_str(), nullptr);
    const bool traced = opt.count("trace-out") > 0;
    fs::create_directories(opt["work-dir"]);
    Run run(workload_named(opt["workload"], seed), opt["shieldctl"],
            opt["work-dir"], traced);
    run.execute(seconds);
    if (traced) {
      std::ofstream out(opt["trace-out"], std::ios::binary);
      out << run.tracer().to_trace(opt["workload"]).dump() << "\n";
      if (!out) throw std::runtime_error("cannot write the trace file");
    }
    std::printf("%s\n", run.output().dump().c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_measure: %s\n", e.what());
    return 1;
  }
}
