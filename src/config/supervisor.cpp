#include "config/supervisor.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <climits>
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

// ---- worker process ---------------------------------------------------------

/// Answer task lines with `done` lines until the task pipe closes. A task
/// line is "<index> <respawns>": the worker forked after the items existed,
/// so their specs and seeds are already in its memory.
void serve(int task_fd, int result_fd, const std::vector<BatchItem>& items,
           const ScenarioRunner::Options& ropt) {
  // One single-threaded runner per worker — the workers are the lanes.
  ScenarioRunner runner(ropt);
  std::size_t index = 0;
  int respawns = 0;

  // Host-fault bridge: a kHostCrash/kHostHang spec firing here reports the
  // pending death upstream (with the flight dump as last evidence), then
  // actually dies. On the post-respawn rerun (respawns > 0) the fault is
  // declined — it already fired once — which matches the in-process
  // semantics where host faults are counted as skipped, so the rerun's
  // result is bit-identical to an unsupervised run of the spec.
  fault::set_host_fault_handler(
      [&](fault::FaultKind kind, const Value& flight) -> bool {
        if (respawns > 0) return false;
        Value msg = Value::object();
        msg.set("event", "fault");
        msg.set("index", index);
        msg.set("kind", fault::to_string(kind));
        if (!flight.is_null()) msg.set("flight", flight);
        (void)write_line(result_fd, msg);
        if (kind == fault::FaultKind::kHostHang) {
          for (;;) ::pause();
        }
        (void)::signal(SIGSEGV, SIG_DFL);
        (void)::raise(SIGSEGV);
        return true;  // unreachable for the kinds above
      });

  std::FILE* tasks = ::fdopen(task_fd, "r");
  char line[64];
  while (tasks != nullptr && std::fgets(line, sizeof line, tasks) != nullptr) {
    if (std::sscanf(line, "%zu %d", &index, &respawns) != 2 ||
        index >= items.size()) {
      std::_Exit(3);
    }
    Value done = Value::object();
    done.set("event", "done");
    done.set("index", index);
    const BatchItem& item = items[index];
    done.set("outcome",
             runner.run_outcome(*item.spec, item.seed).to_full_json());
    if (!write_line(result_fd, done)) std::_Exit(1);
  }
}

/// A forked worker leaves only by _Exit (or the host-fault signal): no
/// stdio buffer inherited from the parent is flushed twice, and no
/// exception unwinds into the parent's code. A corrupt task line exits 3;
/// the parent requeues the item.
[[noreturn]] void worker_main(int task_fd, int result_fd,
                              const std::vector<BatchItem>& items,
                              const ScenarioRunner::Options& ropt) {
  try {
    serve(task_fd, result_fd, items, ropt);
  } catch (...) {
    std::_Exit(3);
  }
  std::_Exit(0);  // task pipe closed: clean shutdown
}

// ---- supervisor (parent) ----------------------------------------------------

/// What a worker's pre-death "fault" message said.
struct FaultEvidence {
  int index = -1;
  std::string kind;
  Value flight;
};

struct Slot {
  pid_t pid = -1;
  int rfd = -1;  ///< worker → supervisor (nonblocking)
  int wfd = -1;  ///< supervisor → worker (blocking)
  std::string buffer;               ///< partial-line accumulation
  std::optional<std::size_t> task;  ///< item dispatched, not yet done
  Clock::time_point heartbeat{};    ///< dispatch, or the last message since
  bool kill_sent = false;  ///< heartbeat SIGKILL fired → classify kHung
  int death_streak = 0;    ///< consecutive abnormal deaths of this slot
  Clock::time_point backoff_until{};
  bool in_backoff = false;
  FaultEvidence fault;

  [[nodiscard]] bool alive() const { return pid > 0; }
  [[nodiscard]] bool busy() const { return task.has_value(); }
};

void close_fd(int& fd) {
  if (fd >= 0) ::close(fd);
  fd = -1;
}

bool spawn_worker(Slot& slot, std::vector<Slot>& slots,
                  const std::vector<BatchItem>& items,
                  const ScenarioRunner::Options& ropt) {
  int task_pipe[2] = {-1, -1};    // supervisor → worker
  int result_pipe[2] = {-1, -1};  // worker → supervisor
  const pid_t pid = ::pipe(task_pipe) == 0 && ::pipe(result_pipe) == 0
                        ? ::fork()
                        : -1;
  if (pid < 0) {
    for (int fd : {task_pipe[0], task_pipe[1], result_pipe[0],
                   result_pipe[1]}) {
      close_fd(fd);
    }
    return false;
  }
  if (pid == 0) {
    // Child: drop every parent-side fd inherited across fork — other
    // workers' pipes included — so pipe EOFs mean what they should.
    for (Slot& other : slots) {
      close_fd(other.rfd);
      close_fd(other.wfd);
    }
    ::close(task_pipe[1]);
    ::close(result_pipe[0]);
    worker_main(task_pipe[0], result_pipe[1], items, ropt);  // noreturn
  }
  ::close(task_pipe[0]);
  ::close(result_pipe[1]);
  slot.pid = pid;
  slot.wfd = task_pipe[1];
  slot.rfd = result_pipe[0];
  const int flags = ::fcntl(slot.rfd, F_GETFL, 0);
  (void)::fcntl(slot.rfd, F_SETFL, flags | O_NONBLOCK);
  slot.buffer.clear();
  slot.task.reset();
  slot.kill_sent = false;
  slot.fault = {};
  return true;
}

}  // namespace

int batch_workers(unsigned jobs) {
  long lanes = jobs;
  if (lanes == 0) lanes = std::max(1L, ::sysconf(_SC_NPROCESSORS_ONLN));
  return lanes <= 1 ? 0 : static_cast<int>(std::min<long>(lanes, INT_MAX));
}

Supervisor::Supervisor(Options opt) : opt_(std::move(opt)) {}

BatchReport Supervisor::run(const std::vector<ScenarioSpec>& specs,
                            std::uint64_t root_seed,
                            CampaignJournal* journal) {
  return run(batch_items(specs, root_seed), {}, journal);
}

BatchReport Supervisor::run(const std::vector<BatchItem>& items,
                            const ScenarioRunner::BatchObserver& observer,
                            CampaignJournal* journal) {
  stats_ = Stats{};
  const std::size_t total = items.size();
  std::vector<std::optional<RunOutcome>> outcomes(total);
  std::size_t completed = 0;

  // Each item's progress, recorded here on the calling thread whichever
  // lane runs it: `started` at dispatch, `finished` at its terminal outcome.
  const auto started = [&](std::size_t i) {
    const BatchItem& it = items[i];
    if (journal != nullptr) {
      journal->write_start(it.spec->name, it.spec->digest(), it.seed);
    }
    if (observer.started) observer.started(i, *it.spec, it.seed);
  };
  const auto finished = [&](std::size_t i, RunOutcome out) {
    const BatchItem& it = items[i];
    if (journal != nullptr) {
      journal->write_done(it.spec->name, it.spec->digest(), it.seed, out);
    }
    if (observer.finished) observer.finished(i, *it.spec, out);
    outcomes[i] = std::move(out);
    completed++;
  };
  const auto assemble = [&](Value supervision) {
    BatchReport report;
    report.outcomes.reserve(total);
    for (auto& o : outcomes) report.outcomes.push_back(std::move(*o));
    report.supervisor = std::move(supervision);
    return report;
  };

  if (opt_.workers <= 0) {
    ScenarioRunner runner(opt_.runner);
    for (std::size_t i = 0; i < total; ++i) {
      started(i);
      finished(i, runner.run_outcome(*items[i].spec, items[i].seed));
    }
    return assemble(Value());
  }

  auto alive_gauge = telemetry_.settable_gauge(
      "supervisor.workers_alive", "worker processes currently alive", 1);
  auto respawn_gauge = telemetry_.settable_gauge(
      "supervisor.respawns", "worker replacements after abnormal deaths", 1);
  auto backoff_gauge = telemetry_.settable_gauge(
      "supervisor.backoff_slots",
      "worker slots currently waiting out a respawn backoff", 1);
  std::vector<int> respawns_of(total, 0);

  // One item per dispatch, in item order: outcomes do not depend on
  // placement.
  std::deque<std::size_t> queue;
  for (std::size_t i = 0; i < total; ++i) queue.push_back(i);

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
      static_cast<std::size_t>(opt_.workers), std::max<std::size_t>(1, total));
  std::vector<Slot> slots(nworkers);

  const auto jitter_s = [&](std::uint64_t n) {
    // Deterministic jitter stream, disjoint from every simulation seed
    // domain: decorrelates respawn stampedes without adding a second
    // source of nondeterminism to campaigns.
    return static_cast<double>(
               sim::derive_seed(items.front().seed, sim::SeedDomain::kRespawn,
                                "respawn#" + std::to_string(n)) %
               50) /
           1000.0;
  };

  // Terminal quarantine: the item has killed more workers than allowed.
  const auto quarantine = [&](std::size_t i, bool hung, const Slot& slot,
                              int sig, int exit_code) {
    RunOutcome out;
    out.name = items[i].spec->name;
    out.mechanism = items[i].spec->mechanism;
    out.status = hung ? RunStatus::kHung : RunStatus::kCrashed;
    out.attempts = respawns_of[i];
    Value ex = Value::object();
    ex.set("phase", "run");
    ex.set("respawns", respawns_of[i]);
    std::string how;
    if (hung) {
      ex.set("cause", "hang");
      how = "hung running this spec (no heartbeat within " +
            std::to_string(opt_.hang_timeout_s) + "s)";
    } else if (sig > 0) {
      ex.set("cause", "signal");
      ex.set("signal", sig);
      how = "died with signal " + std::to_string(sig) + " running this spec";
    } else {
      ex.set("cause", "exit");
      ex.set("exit_code", exit_code);
      how = "exited with status " + std::to_string(exit_code) +
            " running this spec";
    }
    out.error = "worker " + how + "; gave up after " +
                std::to_string(respawns_of[i]) + " worker deaths";
    if (slot.fault.index == static_cast<int>(i)) {
      if (!slot.fault.kind.empty()) ex.set("host_fault", slot.fault.kind);
      out.flight_recording = slot.fault.flight;
    }
    out.execution = std::move(ex);
    stats_.specs_quarantined++;
    finished(i, std::move(out));
  };

  const auto handle_death = [&](Slot& slot) {
    int status = 0;
    (void)::waitpid(slot.pid, &status, 0);
    const bool signaled = WIFSIGNALED(status);
    const int sig = signaled ? WTERMSIG(status) : 0;
    const int exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : 0;
    const bool clean = WIFEXITED(status) && exit_code == 0 && !slot.busy();
    const bool hung = slot.kill_sent;

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
      if (slot.task) inc.set("spec", items[*slot.task].spec->name);
      if (!slot.fault.kind.empty()) inc.set("host_fault", slot.fault.kind);
      record_incident(std::move(inc));

      // The in-flight item is charged with the death and, unless that
      // quarantines it, goes back to the front of the queue.
      if (slot.task) {
        const std::size_t i = *slot.task;
        if (++respawns_of[i] > opt_.max_respawns) {
          quarantine(i, hung, slot, sig, exit_code);
        } else {
          stats_.requeues++;
          queue.push_front(i);
        }
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
    slot.task.reset();
    slot.kill_sent = false;
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
    if (kind == "done") {
      const auto i = static_cast<std::size_t>(msg.find("index")->as_i64());
      if (slot.task != i) return;
      RunOutcome out;
      try {
        out = RunOutcome::from_json(*msg.find("outcome"));
      } catch (const std::exception&) {
        return;  // malformed outcome: leave the item pending for re-queue
      }
      slot.task.reset();
      slot.death_streak = 0;
      finished(i, std::move(out));
    } else if (kind == "fault") {
      FaultEvidence& f = slot.fault;
      f.index = static_cast<int>(msg.find("index")->as_i64());
      if (const Value* v = msg.find("kind")) f.kind = v->as_string();
      if (const Value* v = msg.find("flight")) f.flight = *v;
      Value inc = Value::object();
      inc.set("type", "host-fault");
      inc.set("kind", f.kind);
      if (f.index >= 0 && f.index < static_cast<int>(total)) {
        inc.set("spec", items[static_cast<std::size_t>(f.index)].spec->name);
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
        if (spawn_worker(slot, slots, items, opt_.runner)) {
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
        const std::size_t i = queue.front();
        queue.pop_front();
        if (!write_all(slot.wfd, std::to_string(i) + " " +
                                     std::to_string(respawns_of[i]) + "\n")) {
          // The worker died before accepting the item: not its death.
          queue.push_front(i);
          handle_death(slot);
          continue;
        }
        slot.task = i;
        slot.heartbeat = Clock::now();  // the hang clock starts at dispatch
        started(i);
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
    // A dead slot's fd is -1, which poll() skips.
    std::vector<pollfd> fds;
    for (const auto& slot : slots) fds.push_back(pollfd{slot.rfd, POLLIN, 0});
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
    if (alive == 0 && timeout_ms < 0) timeout_ms = 50;  // paranoia backstop
    if (::poll(fds.data(), static_cast<nfds_t>(fds.size()), timeout_ms) < 0 &&
        errno != EINTR) {
      break;  // unrecoverable poll failure; report what completed
    }

    for (std::size_t k = 0; k < fds.size(); ++k) {
      if ((fds[k].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      Slot& slot = slots[k];
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
    slot.pid = -1;
  }
  alive_gauge.set(0, 0);
  backoff_gauge.set(0, 0);
  ::sigaction(SIGPIPE, &saved_pipe, nullptr);

  Value sup = Value::object();
  sup.set("workers", nworkers);
  sup.set("spawns", stats_.spawns);
  sup.set("respawns", stats_.respawns);
  sup.set("worker_crashes", stats_.worker_crashes);
  sup.set("worker_hangs", stats_.worker_hangs);
  sup.set("requeues", stats_.requeues);
  sup.set("quarantined", stats_.specs_quarantined);
  sup.set("backoff_total_s", stats_.backoff_total_s);
  if (!incidents.items().empty()) sup.set("incidents", std::move(incidents));
  BatchReport report = assemble(std::move(sup));

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
