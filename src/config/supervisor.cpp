#include "config/supervisor.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <deque>
#include <optional>
#include <utility>

#include "fault/host_fault.h"
#include "sim/rng.h"

namespace config {
namespace {

using json::Value;
using Clock = std::chrono::steady_clock;

/// Respawn backoff after an abnormal worker death: the k-th consecutive
/// death of a slot waits min(kBackoffCapS, kBackoffBaseS * 2^(k-1)) plus a
/// deterministic jitter drawn from SeedDomain::kRespawn.
constexpr double kBackoffBaseS = 0.05;
constexpr double kBackoffCapS = 2.0;

// ---- pipe line protocol -----------------------------------------------------

/// Blocking write of a full buffer; EINTR-safe. False on EPIPE (peer gone)
/// or any other hard error.
bool write_all(int fd, const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::write(fd, data.data() + off, data.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

bool write_line(int fd, const Value& msg) {
  return write_all(fd, msg.dump() + "\n");
}

/// Blocking read of one '\n'-terminated line (worker side). False on EOF.
bool read_line_blocking(int fd, std::string& buffer, std::string& line) {
  for (;;) {
    const std::size_t nl = buffer.find('\n');
    if (nl != std::string::npos) {
      line = buffer.substr(0, nl);
      buffer.erase(0, nl + 1);
      return true;
    }
    char chunk[4096];
    const ssize_t n = ::read(fd, chunk, sizeof chunk);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (n == 0) return false;
    buffer.append(chunk, static_cast<std::size_t>(n));
  }
}

// ---- worker process ---------------------------------------------------------

/// Which task the worker is currently running; the host-fault handler needs
/// it to label its last-breath message.
struct WorkerTask {
  int index = -1;
  int respawn = 0;
  int out_fd = -1;
};

[[noreturn]] void worker_main(int task_fd, int result_fd,
                              ScenarioRunner::Options ropt) {
  // One single-threaded runner per worker — the pool is the parallelism —
  // with prefix-snapshot reuse intact inside the worker.
  ropt.jobs = 1;
  ScenarioRunner runner(ropt);

  // Host-fault bridge: a kHostCrash/kHostHang spec firing here reports the
  // pending death upstream (with the flight dump as last evidence), then
  // actually dies. On the post-respawn rerun (respawn > 0) the fault is
  // declined — it already fired once — which matches the in-process
  // semantics where host faults are counted as skipped, so the rerun's
  // result is bit-identical to an unsupervised run of the spec.
  WorkerTask task;
  fault::set_host_fault_handler(
      [&task](fault::FaultKind kind, const Value& flight) -> bool {
        if (task.respawn > 0) return false;
        Value msg = Value::object();
        msg.set("event", "fault");
        msg.set("index", task.index);
        msg.set("kind", fault::to_string(kind));
        if (!flight.is_null()) msg.set("flight", flight);
        (void)write_line(task.out_fd, msg);
        if (kind == fault::FaultKind::kHostHang) {
          for (;;) ::pause();
        }
        (void)::signal(SIGSEGV, SIG_DFL);
        (void)::raise(SIGSEGV);
        return true;  // unreachable for the kinds above
      });

  std::string buffer, line;
  while (read_line_blocking(task_fd, buffer, line)) {
    Value msg;
    try {
      msg = Value::parse(line);
    } catch (const std::exception&) {
      std::_Exit(3);  // protocol corruption: die loudly, the parent requeues
    }
    const Value* tasks = msg.find("tasks");
    if (tasks == nullptr || !tasks->is_array()) std::_Exit(3);
    for (const auto& t : tasks->items()) {
      task.index = static_cast<int>(t.find("index")->as_i64());
      task.respawn = static_cast<int>(t.find("respawn")->as_i64());
      task.out_fd = result_fd;
      const std::uint64_t seed = t.find("seed")->as_u64();

      Value start = Value::object();
      start.set("event", "start");
      start.set("index", task.index);
      if (!write_line(result_fd, start)) std::_Exit(1);

      RunOutcome out;
      try {
        const ScenarioSpec spec = ScenarioSpec::from_json(*t.find("spec"));
        out = runner.run_outcome(spec, seed);
      } catch (const std::exception& e) {
        // Malformed spec JSON — run_outcome itself never throws.
        if (const Value* s = t.find("spec")) {
          if (const Value* n = s->find("name")) out.name = n->as_string();
        }
        out.status = RunStatus::kFailed;
        out.error = e.what();
      }

      Value done = Value::object();
      done.set("event", "done");
      done.set("index", task.index);
      done.set("outcome", out.to_full_json());
      // Cumulative runner totals; the supervisor folds in the latest value
      // per worker generation.
      done.set("recomputed", runner.cache_entries_recomputed());
      const auto ps = runner.prefix_stats();
      done.set("prefix_hits", ps.hits);
      done.set("prefix_misses", ps.misses);
      if (!write_line(result_fd, done)) std::_Exit(1);
    }
  }
  std::_Exit(0);  // task pipe closed: clean shutdown
}

// ---- supervisor (parent) ----------------------------------------------------

struct Slot {
  pid_t pid = -1;
  int rfd = -1;  ///< worker → supervisor (nonblocking)
  int wfd = -1;  ///< supervisor → worker (blocking)
  std::string buffer;                 ///< partial-line accumulation
  std::deque<std::size_t> assigned;   ///< dispatched, not yet done
  std::optional<std::size_t> running; ///< last start without a done
  Clock::time_point heartbeat{};
  bool kill_sent = false;  ///< heartbeat SIGKILL fired → classify kHung
  int death_streak = 0;    ///< consecutive abnormal deaths of this slot
  Clock::time_point backoff_until{};
  bool in_backoff = false;
  // Evidence from a pre-death "fault" message.
  int fault_index = -1;
  std::string fault_kind;
  Value fault_flight;
  // Cumulative runner totals from the worker's latest done message.
  std::uint64_t recomputed = 0, prefix_hits = 0, prefix_misses = 0;

  [[nodiscard]] bool alive() const { return pid > 0; }
  [[nodiscard]] bool busy() const { return !assigned.empty(); }
};

void close_fd(int& fd) {
  if (fd >= 0) ::close(fd);
  fd = -1;
}

bool spawn_worker(Slot& slot, std::vector<Slot>& slots,
                  const ScenarioRunner::Options& ropt) {
  int task_pipe[2] = {-1, -1};    // supervisor → worker
  int result_pipe[2] = {-1, -1};  // worker → supervisor
  if (::pipe(task_pipe) != 0) return false;
  if (::pipe(result_pipe) != 0) {
    ::close(task_pipe[0]);
    ::close(task_pipe[1]);
    return false;
  }
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(task_pipe[0]);
    ::close(task_pipe[1]);
    ::close(result_pipe[0]);
    ::close(result_pipe[1]);
    return false;
  }
  if (pid == 0) {
    // Child: drop every parent-side fd inherited across fork — other
    // workers' pipes included — so pipe EOFs mean what they should.
    for (Slot& other : slots) {
      if (other.rfd >= 0) ::close(other.rfd);
      if (other.wfd >= 0) ::close(other.wfd);
    }
    ::close(task_pipe[1]);
    ::close(result_pipe[0]);
    worker_main(task_pipe[0], result_pipe[1], ropt);  // noreturn
  }
  ::close(task_pipe[0]);
  ::close(result_pipe[1]);
  slot.pid = pid;
  slot.wfd = task_pipe[1];
  slot.rfd = result_pipe[0];
  const int flags = ::fcntl(slot.rfd, F_GETFL, 0);
  (void)::fcntl(slot.rfd, F_SETFL, flags | O_NONBLOCK);
  slot.buffer.clear();
  slot.assigned.clear();
  slot.running.reset();
  slot.kill_sent = false;
  slot.fault_index = -1;
  slot.fault_kind.clear();
  slot.fault_flight = Value();
  slot.recomputed = slot.prefix_hits = slot.prefix_misses = 0;
  slot.heartbeat = Clock::now();
  return true;
}

}  // namespace

Supervisor::Supervisor(Options opt) : opt_(std::move(opt)) {}

BatchReport Supervisor::run(const std::vector<ScenarioSpec>& specs,
                            std::uint64_t root_seed,
                            CampaignJournal* journal) {
  stats_ = Stats{};
  auto alive_gauge = telemetry_.settable_gauge(
      "supervisor.workers_alive", "worker processes currently alive", 1);
  auto respawn_gauge = telemetry_.settable_gauge(
      "supervisor.respawns", "worker replacements after abnormal deaths", 1);
  auto backoff_gauge = telemetry_.settable_gauge(
      "supervisor.backoff_slots",
      "worker slots currently waiting out a respawn backoff", 1);

  const std::size_t total = specs.size();
  std::vector<std::optional<RunOutcome>> outcomes(total);
  std::vector<int> respawns_of(total, 0);
  std::size_t completed = 0;
  std::uint64_t total_recomputed = 0, total_ph = 0, total_pm = 0;

  const auto seed_of = [&](std::size_t i) {
    return batch_seed(root_seed, specs[i]);
  };

  // Same-prefix specs are dispatched as one group to one worker, so
  // in-worker prefix-snapshot reuse matches the in-process path.
  std::deque<std::vector<std::size_t>> queue;
  for (auto& g : prefix_groups(specs)) queue.push_back(std::move(g));

  Value incidents = Value::array();
  const auto record_incident = [&](Value inc) {
    if (journal != nullptr) journal->write_incident(inc);
    incidents.push(std::move(inc));
  };

  // A worker dying while we write its task message must surface as EPIPE,
  // not kill the campaign.
  struct sigaction ignore_pipe {};
  struct sigaction saved_pipe {};
  ignore_pipe.sa_handler = SIG_IGN;
  ::sigaction(SIGPIPE, &ignore_pipe, &saved_pipe);

  const std::size_t nworkers = std::min<std::size_t>(
      static_cast<std::size_t>(std::max(1, opt_.workers)),
      std::max<std::size_t>(1, total));
  std::vector<Slot> slots(nworkers);

  const auto jitter_s = [&](std::uint64_t n) {
    // Deterministic jitter stream, disjoint from every simulation seed
    // domain: decorrelates respawn stampedes without adding a second
    // source of nondeterminism to campaigns.
    return static_cast<double>(
               sim::derive_seed(root_seed, sim::SeedDomain::kRespawn,
                                "respawn#" + std::to_string(n)) %
               50) /
           1000.0;
  };

  // Terminal quarantine: the spec has killed more workers than allowed.
  const auto quarantine = [&](std::size_t i, bool hung, const Slot& slot,
                              int sig, int exit_code) {
    RunOutcome out;
    out.name = specs[i].name;
    out.mechanism = specs[i].mechanism;
    out.status = hung ? RunStatus::kHung : RunStatus::kCrashed;
    out.attempts = respawns_of[i];
    if (hung) {
      out.error = "worker hung running this spec (no heartbeat within " +
                  std::to_string(opt_.hang_timeout_s) + "s); gave up after " +
                  std::to_string(respawns_of[i]) + " worker deaths";
    } else if (sig > 0) {
      out.error = "worker died with signal " + std::to_string(sig) +
                  " running this spec; gave up after " +
                  std::to_string(respawns_of[i]) + " worker deaths";
    } else {
      out.error = "worker exited with status " + std::to_string(exit_code) +
                  " running this spec; gave up after " +
                  std::to_string(respawns_of[i]) + " worker deaths";
    }
    if (slot.fault_index == static_cast<int>(i) &&
        !slot.fault_flight.is_null()) {
      out.flight_recording = slot.fault_flight;
    }
    Value ex = Value::object();
    ex.set("phase", "run");
    ex.set("respawns", respawns_of[i]);
    if (hung) {
      ex.set("cause", "hang");
    } else if (sig > 0) {
      ex.set("cause", "signal");
      ex.set("signal", sig);
    } else {
      ex.set("cause", "exit");
      ex.set("exit_code", exit_code);
    }
    if (slot.fault_index == static_cast<int>(i) && !slot.fault_kind.empty()) {
      ex.set("host_fault", slot.fault_kind);
    }
    out.execution = std::move(ex);
    if (journal != nullptr) {
      journal->write_done(specs[i].name, specs[i].digest(), seed_of(i), out);
    }
    outcomes[i] = std::move(out);
    completed++;
    stats_.quarantined++;
  };

  const auto handle_death = [&](Slot& slot) {
    int status = 0;
    (void)::waitpid(slot.pid, &status, 0);
    const bool signaled = WIFSIGNALED(status);
    const int sig = signaled ? WTERMSIG(status) : 0;
    const int exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : 0;
    const bool clean = WIFEXITED(status) && exit_code == 0 && !slot.busy();
    const bool hung = slot.kill_sent;

    total_recomputed += slot.recomputed;
    total_ph += slot.prefix_hits;
    total_pm += slot.prefix_misses;

    if (!clean) {
      if (hung) {
        stats_.worker_hangs++;
      } else {
        stats_.worker_crashes++;
      }
      Value inc = Value::object();
      inc.set("type", hung ? "worker-hang" : "worker-crash");
      inc.set("pid", static_cast<std::int64_t>(slot.pid));
      if (signaled) {
        inc.set("signal", sig);
      } else {
        inc.set("exit_code", exit_code);
      }
      if (slot.running) inc.set("spec", specs[*slot.running].name);
      if (!slot.fault_kind.empty()) inc.set("host_fault", slot.fault_kind);
      record_incident(std::move(inc));

      // Re-queue the slot's work as one front group (locality preserved):
      // the in-flight spec — charged with the death — first, then the
      // never-started remainder.
      std::vector<std::size_t> requeue;
      if (slot.running && !outcomes[*slot.running]) {
        const std::size_t i = *slot.running;
        respawns_of[i]++;
        if (respawns_of[i] > opt_.max_respawns) {
          quarantine(i, hung, slot, sig, exit_code);
        } else {
          requeue.push_back(i);
        }
      }
      for (const std::size_t idx : slot.assigned) {
        if (slot.running && idx == *slot.running) continue;
        if (!outcomes[idx]) requeue.push_back(idx);
      }
      if (!requeue.empty()) {
        stats_.requeues += requeue.size();
        queue.push_front(std::move(requeue));
      }

      slot.death_streak++;
      const int shift = std::min(slot.death_streak - 1, 16);
      const double delay =
          std::min(kBackoffCapS,
                   kBackoffBaseS *
                       static_cast<double>(std::uint64_t{1} << shift)) +
          jitter_s(stats_.worker_crashes + stats_.worker_hangs);
      slot.in_backoff = true;
      slot.backoff_until =
          Clock::now() + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(delay));
      stats_.backoff_total_s += delay;
    } else {
      slot.death_streak = 0;
    }
    close_fd(slot.rfd);
    close_fd(slot.wfd);
    slot.pid = -1;
    slot.assigned.clear();
    slot.running.reset();
    slot.kill_sent = false;
    slot.recomputed = slot.prefix_hits = slot.prefix_misses = 0;
  };

  const auto process_line = [&](Slot& slot, const std::string& line) {
    Value msg;
    try {
      msg = Value::parse(line);
    } catch (const std::exception&) {
      return;  // torn line; real trouble surfaces as worker death
    }
    const Value* ev = msg.find("event");
    if (ev == nullptr) return;
    slot.heartbeat = Clock::now();
    const std::string& kind = ev->as_string();
    if (kind == "start") {
      const auto i = static_cast<std::size_t>(msg.find("index")->as_i64());
      if (i >= total) return;
      slot.running = i;
      if (journal != nullptr) {
        journal->write_start(specs[i].name, specs[i].digest(), seed_of(i));
      }
    } else if (kind == "done") {
      const auto i = static_cast<std::size_t>(msg.find("index")->as_i64());
      if (i >= total) return;
      try {
        RunOutcome out = RunOutcome::from_json(*msg.find("outcome"));
        if (!outcomes[i]) completed++;
        if (journal != nullptr) {
          journal->write_done(specs[i].name, specs[i].digest(), seed_of(i),
                              out);
        }
        outcomes[i] = std::move(out);
      } catch (const std::exception&) {
        return;  // malformed outcome: leave the spec pending for re-queue
      }
      if (const Value* v = msg.find("recomputed")) slot.recomputed = v->as_u64();
      if (const Value* v = msg.find("prefix_hits")) slot.prefix_hits = v->as_u64();
      if (const Value* v = msg.find("prefix_misses")) {
        slot.prefix_misses = v->as_u64();
      }
      if (slot.running && *slot.running == i) slot.running.reset();
      const auto it = std::find(slot.assigned.begin(), slot.assigned.end(), i);
      if (it != slot.assigned.end()) slot.assigned.erase(it);
      slot.death_streak = 0;
    } else if (kind == "fault") {
      slot.fault_index = static_cast<int>(msg.find("index")->as_i64());
      if (const Value* v = msg.find("kind")) slot.fault_kind = v->as_string();
      if (const Value* v = msg.find("flight")) slot.fault_flight = *v;
      Value inc = Value::object();
      inc.set("type", "host-fault");
      inc.set("kind", slot.fault_kind);
      if (slot.fault_index >= 0 &&
          slot.fault_index < static_cast<int>(total)) {
        inc.set("spec", specs[static_cast<std::size_t>(slot.fault_index)].name);
      }
      record_incident(std::move(inc));
    }
  };

  while (completed < total) {
    const auto now = Clock::now();
    for (auto& slot : slots) {
      if (slot.in_backoff && now >= slot.backoff_until) slot.in_backoff = false;
    }

    // Spawn replacements and hand out work.
    for (auto& slot : slots) {
      if (!slot.alive() && !slot.in_backoff && !queue.empty()) {
        if (spawn_worker(slot, slots, opt_.runner)) {
          stats_.spawns++;
          if (slot.death_streak > 0) stats_.respawns++;
        } else {
          // fork/pipe failure: brief breather, then retry.
          slot.in_backoff = true;
          slot.backoff_until = now + std::chrono::milliseconds(100);
          continue;
        }
      }
      if (slot.alive() && !slot.busy() && !queue.empty()) {
        std::vector<std::size_t> group = std::move(queue.front());
        queue.pop_front();
        Value tasks = Value::array();
        for (const std::size_t i : group) {
          if (outcomes[i]) continue;
          Value t = Value::object();
          t.set("index", i);
          t.set("respawn", respawns_of[i]);
          t.set("seed", seed_of(i));
          t.set("spec", specs[i].to_json());
          tasks.push(std::move(t));
          slot.assigned.push_back(i);
        }
        if (slot.assigned.empty()) continue;
        Value msg = Value::object();
        msg.set("tasks", std::move(tasks));
        slot.heartbeat = Clock::now();
        if (!write_line(slot.wfd, msg)) {
          handle_death(slot);  // died before accepting: requeues `assigned`
        }
      }
    }

    std::size_t alive = 0, backing_off = 0;
    for (const auto& slot : slots) {
      if (slot.alive()) alive++;
      if (slot.in_backoff) backing_off++;
    }
    alive_gauge.set(0, alive);
    respawn_gauge.set(0, stats_.respawns);
    backoff_gauge.set(0, backing_off);
    if (completed == total) break;

    // Wait for worker traffic, the next hang deadline, or a backoff expiry.
    std::vector<pollfd> fds;
    std::vector<std::size_t> fd_slot;
    for (std::size_t s = 0; s < slots.size(); ++s) {
      if (!slots[s].alive()) continue;
      fds.push_back(pollfd{slots[s].rfd, POLLIN, 0});
      fd_slot.push_back(s);
    }
    int timeout_ms = -1;
    const auto consider = [&](Clock::time_point tp) {
      const auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                          tp - Clock::now())
                          .count();
      const int m = static_cast<int>(std::max<long long>(0, ms)) + 1;
      timeout_ms = timeout_ms < 0 ? m : std::min(timeout_ms, m);
    };
    if (opt_.hang_timeout_s > 0.0) {
      for (const auto& slot : slots) {
        if (slot.alive() && slot.busy() && !slot.kill_sent) {
          consider(slot.heartbeat +
                   std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(opt_.hang_timeout_s)));
        }
      }
    }
    for (const auto& slot : slots) {
      if (slot.in_backoff) consider(slot.backoff_until);
    }
    if (fds.empty() && timeout_ms < 0) timeout_ms = 50;  // paranoia backstop
    if (::poll(fds.data(), static_cast<nfds_t>(fds.size()), timeout_ms) < 0 &&
        errno != EINTR) {
      break;  // unrecoverable poll failure; report what completed
    }

    for (std::size_t k = 0; k < fds.size(); ++k) {
      if ((fds[k].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      Slot& slot = slots[fd_slot[k]];
      if (!slot.alive()) continue;
      bool eof = false;
      for (;;) {
        char chunk[65536];
        const ssize_t n = ::read(slot.rfd, chunk, sizeof chunk);
        if (n > 0) {
          slot.buffer.append(chunk, static_cast<std::size_t>(n));
          continue;
        }
        if (n == 0) {
          eof = true;
        } else if (errno == EINTR) {
          continue;
        }
        break;  // EAGAIN (drained) or EOF
      }
      for (;;) {
        const std::size_t nl = slot.buffer.find('\n');
        if (nl == std::string::npos) break;
        const std::string line = slot.buffer.substr(0, nl);
        slot.buffer.erase(0, nl + 1);
        process_line(slot, line);
      }
      if (eof) handle_death(slot);
    }

    // Heartbeat enforcement: a busy worker silent past the budget is hung.
    if (opt_.hang_timeout_s > 0.0) {
      const auto check = Clock::now();
      for (auto& slot : slots) {
        if (slot.alive() && slot.busy() && !slot.kill_sent &&
            std::chrono::duration<double>(check - slot.heartbeat).count() >
                opt_.hang_timeout_s) {
          slot.kill_sent = true;
          (void)::kill(slot.pid, SIGKILL);
          // The pipe EOF lands on the next poll; classification rides on
          // kill_sent.
        }
      }
    }
  }

  // Shutdown: closing the task pipe is the stop signal; workers EOF out.
  for (auto& slot : slots) {
    if (!slot.alive()) continue;
    close_fd(slot.wfd);
    int status = 0;
    (void)::waitpid(slot.pid, &status, 0);
    close_fd(slot.rfd);
    total_recomputed += slot.recomputed;
    total_ph += slot.prefix_hits;
    total_pm += slot.prefix_misses;
    slot.pid = -1;
  }
  alive_gauge.set(0, 0);
  backoff_gauge.set(0, 0);
  ::sigaction(SIGPIPE, &saved_pipe, nullptr);

  BatchReport report;
  report.outcomes.reserve(total);
  for (auto& o : outcomes) report.outcomes.push_back(std::move(*o));
  report.cache_entries_recomputed = total_recomputed;
  report.prefix_hits = total_ph;
  report.prefix_misses = total_pm;

  Value sup = Value::object();
  sup.set("workers", nworkers);
  sup.set("spawns", stats_.spawns);
  sup.set("respawns", stats_.respawns);
  sup.set("worker_crashes", stats_.worker_crashes);
  sup.set("worker_hangs", stats_.worker_hangs);
  sup.set("requeues", stats_.requeues);
  sup.set("quarantined", stats_.quarantined);
  sup.set("backoff_total_s", stats_.backoff_total_s);
  if (!incidents.items().empty()) sup.set("incidents", std::move(incidents));
  report.supervisor = std::move(sup);

  // Campaign blame rollup exported as prometheus series: one cell per cause
  // key with its campaign-wide nanoseconds and segment count. Registered
  // only when some outcome carried attribution, so blame-free campaigns
  // keep their exact supervisor.prom bytes.
  const Value roll = attribution_rollup(report.outcomes);
  if (const Value* causes = roll.find("causes");
      causes != nullptr && !causes->members().empty()) {
    std::vector<std::string> names;
    names.reserve(causes->members().size());
    for (const auto& [key, cause] : causes->members()) names.push_back(key);
    auto ns_gauge = telemetry_.settable_gauge(
        "campaign_blame_cause_ns",
        "Nanoseconds attributed to each latency cause across the campaign",
        static_cast<int>(names.size()), "cause", names);
    auto count_gauge = telemetry_.settable_gauge(
        "campaign_blame_cause_segments",
        "Attributed chain segments per latency cause across the campaign",
        static_cast<int>(names.size()), "cause", names);
    int cell = 0;
    for (const auto& [key, cause] : causes->members()) {
      ns_gauge.set(cell, cause.at("ns").as_u64());
      count_gauge.set(cell, cause.at("count").as_u64());
      ++cell;
    }
  }

  if (journal != nullptr) {
    const std::string prom = telemetry_.prometheus_text();
    std::FILE* f =
        std::fopen((journal->dir() + "/supervisor.prom").c_str(), "wb");
    if (f != nullptr) {
      std::fwrite(prom.data(), 1, prom.size(), f);
      std::fclose(f);
    }
  }
  return report;
}

}  // namespace config
