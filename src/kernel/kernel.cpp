#include "kernel/kernel.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "kernel/goodness_scheduler.h"
#include "kernel/o1_scheduler.h"
#include "shield/shield_policy.h"
#include "sim/assert.h"
#include "telemetry/timeline.h"

namespace kernel {

using namespace sim::literals;

namespace {

/// Per-CPU bottom-half daemon: drains deferred softirq work in chunks when
/// scheduled, sleeps otherwise.
class KsoftirqdBehavior final : public Behavior {
 public:
  KsoftirqdBehavior(hw::CpuId cpu, WaitQueueId wq) : cpu_(cpu), wq_(wq) {}

  Action next_action(Kernel& k, Task& /*task*/) override {
    CpuState& cs = k.cpu_mut(cpu_);
    const sim::Duration pending = cs.softirq.total_pending();
    if (pending == 0) {
      return SyscallAction{ProgramBuilder{}.block(wq_).build()};
    }
    const sim::Duration chunk = std::min(pending, k.config().ksoftirqd_chunk);
    cs.softirq.take(chunk);
    return SyscallAction{ProgramBuilder{}.work(chunk, 0.5).build()};
  }

 private:
  hw::CpuId cpu_;
  WaitQueueId wq_;
};

bool lock_is_irq_safe(LockId id) {
  switch (id) {
    case LockId::kIoRequest:
    case LockId::kRcim:
      return true;
    // The BKL and the fs/net-layer locks run with interrupts open — the
    // precondition for §6.2's bottom-half perforation of hold times.
    case LockId::kBkl:
    case LockId::kFs:
    case LockId::kDcache:
    case LockId::kRtc:
    case LockId::kSocket:
    case LockId::kPipe:
    case LockId::kMm:
      return false;
    case LockId::kCount:
      break;
  }
  SIM_UNREACHABLE("bad lock id");
}

}  // namespace

Kernel::Kernel(sim::Engine& engine, const hw::Topology& topo,
               hw::MemorySystem& mem, hw::InterruptController& ic,
               config::KernelConfig cfg)
    : engine_(engine),
      topo_(topo),
      mem_(mem),
      ic_(ic),
      cfg_(std::move(cfg)),
      rng_(engine.rng().split()),
      auditor_(topo.logical_cpus()) {
  switch (cfg_.scheduler) {
    case config::SchedulerKind::kGoodness24:
      sched_ = std::make_unique<GoodnessScheduler>(cfg_, rng_.split());
      break;
    case config::SchedulerKind::kO1:
      sched_ = std::make_unique<O1Scheduler>(cfg_, rng_.split());
      break;
  }
  sched_->init(topo_.logical_cpus());

  cpus_.resize(static_cast<std::size_t>(topo_.logical_cpus()));
  for (int i = 0; i < topo_.logical_cpus(); ++i) {
    cpus_[static_cast<std::size_t>(i)].id = i;
  }

  for (int i = 0; i < static_cast<int>(LockId::kCount); ++i) {
    const auto id = static_cast<LockId>(i);
    locks_[static_cast<std::size_t>(i)] = SpinLock(id, lock_is_irq_safe(id));
  }

  local_timer_ = std::make_unique<hw::LocalTimer>(engine_, topo_,
                                                  cfg_.local_timer_period);
  // The hw edges deliver into the mechanism layer, not the kernel directly:
  // the lambdas read pipeline_ at fire time, so set_mechanism needs no
  // re-hooking.
  pipeline_ = std::make_unique<InBandPipeline>(*this);
  local_timer_->set_tick_fn(
      [this](hw::CpuId cpu) { pipeline_->timer_tick(cpu); });

  register_telemetry();
  register_proc_files();
}

void Kernel::set_mechanism(MechanismKind kind) {
  if (pipeline_->kind() == kind) return;
  SIM_ASSERT_MSG(kind == MechanismKind::kOob &&
                     pipeline_->kind() == MechanismKind::kInBand,
                 "mechanism can only move from inband to oob");
  pipeline_ = std::make_unique<OobPipeline>(*this);
}

Kernel::~Kernel() = default;

// ---- setup ------------------------------------------------------------------

Task& Kernel::create_task(TaskParams params, std::unique_ptr<Behavior> behavior) {
  auto task = std::make_unique<Task>();
  task->pid = next_pid_++;
  task->name = std::move(params.name);
  task->policy = params.policy;
  task->rt_priority = params.rt_priority;
  task->nice = params.nice;
  task->mlocked = params.mlocked;
  task->nominal_memory_intensity = params.memory_intensity;
  task->user_affinity =
      params.affinity.empty() ? topo_.all_cpus() : params.affinity & topo_.all_cpus();
  SIM_ASSERT_MSG(!task->user_affinity.empty(), "task affinity has no valid CPU");
  task->effective_affinity =
      shield::effective_affinity(task->user_affinity, proc_shield_);
  task->behavior = std::move(behavior);
  task->state = TaskState::kNew;
  tasks_.push_back(std::move(task));
  Task& ref = *tasks_.back();

  // /proc/<pid>/stat with the fields this model tracks (tick-sampled
  // times, like the real file; HZ=100 so a tick is 10 ms).
  Task* tp = &ref;
  procfs_.register_file(
      "/proc/" + std::to_string(ref.pid) + "/stat", [tp] {
        char buf[256];
        std::snprintf(buf, sizeof buf, "%d (%s) %c %llu %llu %llu %d\n",
                      tp->pid, tp->name.c_str(),
                      tp->state == TaskState::kRunning    ? 'R'
                      : tp->state == TaskState::kReady    ? 'R'
                      : tp->state == TaskState::kBlocked  ? 'S'
                      : tp->state == TaskState::kExited   ? 'Z'
                                                          : 'N',
                      static_cast<unsigned long long>(tp->utime_ticks),
                      static_cast<unsigned long long>(tp->stime_ticks),
                      static_cast<unsigned long long>(tp->minor_faults),
                      tp->cpu);
        return std::string(buf);
      });

  if (started_) make_runnable(ref);
  return ref;
}

std::size_t Kernel::reap_exited() {
  std::size_t reaped = 0;
  for (auto it = tasks_.begin(); it != tasks_.end();) {
    Task& t = **it;
    if (t.state == TaskState::kExited) {
      SIM_ASSERT(!t.on_runqueue && t.waiting_on == kNoWaitQueue);
      procfs_.remove("/proc/" + std::to_string(t.pid) + "/stat");
      it = tasks_.erase(it);
      ++reaped;
    } else {
      ++it;
    }
  }
  return reaped;
}

void Kernel::register_irq_handler(hw::Irq irq, IrqHandler handler) {
  SIM_ASSERT(irq >= 0 && irq < hw::kMaxIrq);
  irq_handlers_[static_cast<std::size_t>(irq)] = std::move(handler);
}

bool Kernel::irq_handler_registered(hw::Irq irq) const {
  SIM_ASSERT(irq >= 0 && irq < hw::kMaxIrq);
  const IrqHandler& h = irq_handlers_[static_cast<std::size_t>(irq)];
  return static_cast<bool>(h.effects) || !h.name.empty();
}

void Kernel::inject_cpu_stall(hw::CpuId cpu, sim::Duration stall) {
  SIM_ASSERT(topo_.valid_cpu(cpu));
  SIM_ASSERT(stall > 0);
  cpu_mut(cpu).smi_stall_budget += stall;
  // The pending-vector list dedups by vector, so back-to-back stalls while
  // interrupts are masked coalesce into one frame that takes the summed
  // budget — exactly how piled-up SMIs behave.
  deliver_vector(cpu, kVectorSmi);
}

void Kernel::spawn_ksoftirqd(hw::CpuId cpu) {
  CpuState& cs = cpu_mut(cpu);
  cs.ksoftirqd_wq = create_wait_queue("ksoftirqd/" + std::to_string(cpu));
  TaskParams p;
  p.name = "ksoftirqd/" + std::to_string(cpu);
  p.policy = SchedPolicy::kOther;
  p.nice = cfg_.softirq_daemon_offload ? 0 : 19;
  p.affinity = hw::CpuMask::single(cpu);
  p.memory_intensity = 0.4;
  cs.ksoftirqd = &create_task(
      std::move(p), std::make_unique<KsoftirqdBehavior>(cpu, cs.ksoftirqd_wq));
}

void Kernel::start() {
  SIM_ASSERT(!started_);
  started_ = true;

  ic_.set_deliver_fn(
      [this](hw::CpuId cpu, hw::Irq irq) { pipeline_->device_irq(cpu, irq); });
  ic_.set_idle_query([this](hw::CpuId cpu) { return cpu_idle(cpu); });

  for (hw::CpuId cpu = 0; cpu < topo_.logical_cpus(); ++cpu) {
    spawn_ksoftirqd(cpu);
  }
  local_timer_->start();

  // Make all pre-created tasks runnable.
  for (auto& t : tasks_) {
    if (t->state == TaskState::kNew) make_runnable(*t);
  }
}

// ---- administrative plane ------------------------------------------------------

bool Kernel::sched_setaffinity(Task& t, hw::CpuMask mask) {
  mask = mask & topo_.all_cpus();
  if (mask.empty()) return false;
  t.user_affinity = mask;
  t.effective_affinity = shield::effective_affinity(mask, proc_shield_);
  // Stage-owned tasks only record the masks: oob placement is fixed at
  // adoption and shielding cannot move the stage.
  if (pipeline_->owns(t)) return true;
  // Requeue if parked on a CPU it may no longer use.
  if (t.on_runqueue) {
    sched_->dequeue(t);
    t.state = TaskState::kReady;
    const hw::CpuId target = sched_->select_cpu(
        t, t.effective_affinity, [this](hw::CpuId c) { return cpu_idle(c); });
    sched_->enqueue(t, target);
    check_preempt(target, t);
  } else if (t.state == TaskState::kRunning && t.cpu >= 0 &&
             !t.effective_affinity.test(t.cpu)) {
    // Running somewhere now forbidden: force a reschedule.
    CpuState& cs = cpu_mut(t.cpu);
    cs.need_resched = true;
    if (cs.irq_frames.empty() && !cs.switching &&
        (t.in_user_mode() || kernel_preemptible(t))) {
      preempt_current(t.cpu);
    }
  }
  return true;
}

void Kernel::set_policy(Task& t, SchedPolicy policy, int rt_priority) {
  SIM_ASSERT(policy == SchedPolicy::kOther ||
             (rt_priority >= 1 && rt_priority <= 99));
  if (t.on_runqueue) {
    // Re-slot under the new priority.
    sched_->dequeue(t);
    t.policy = policy;
    t.rt_priority = policy == SchedPolicy::kOther ? 0 : rt_priority;
    const hw::CpuId target = sched_->select_cpu(
        t, t.effective_affinity, [this](hw::CpuId c) { return cpu_idle(c); });
    sched_->enqueue(t, target);
    check_preempt(target, t);
    return;
  }
  t.policy = policy;
  t.rt_priority = policy == SchedPolicy::kOther ? 0 : rt_priority;
}

void Kernel::set_process_shield_mask(hw::CpuMask mask) {
  SIM_ASSERT_MSG(cfg_.shield_support || mask.empty(),
                 "this kernel has no shield support");
  proc_shield_ = mask & topo_.all_cpus();
}

void Kernel::reapply_affinities() {
  for (auto& tp : tasks_) {
    Task& t = *tp;
    if (t.state == TaskState::kExited) continue;
    const hw::CpuMask effective =
        shield::effective_affinity(t.user_affinity, proc_shield_);
    if (effective == t.effective_affinity) continue;
    t.effective_affinity = effective;
    if (pipeline_->owns(t)) continue;
    if (t.on_runqueue) {
      sched_->dequeue(t);
      const hw::CpuId target = sched_->select_cpu(
          t, t.effective_affinity, [this](hw::CpuId c) { return cpu_idle(c); });
      sched_->enqueue(t, target);
      check_preempt(target, t);
    } else if (t.state == TaskState::kRunning && t.cpu >= 0 &&
               !effective.test(t.cpu)) {
      CpuState& cs = cpu_mut(t.cpu);
      cs.need_resched = true;
      if (cs.irq_frames.empty() && !cs.switching &&
          (t.in_user_mode() || kernel_preemptible(t))) {
        preempt_current(t.cpu);
      }
    }
  }
}

// ---- wait queues & wakeups -------------------------------------------------------

WaitQueueId Kernel::create_wait_queue(std::string name) {
  wait_queues_.push_back(std::make_unique<WaitQueue>(std::move(name)));
  return static_cast<WaitQueueId>(wait_queues_.size()) - 1;
}

WaitQueue& Kernel::wait_queue(WaitQueueId id) {
  SIM_ASSERT(id >= 0 && static_cast<std::size_t>(id) < wait_queues_.size());
  return *wait_queues_[static_cast<std::size_t>(id)];
}

void Kernel::wake_up_one(WaitQueueId id) {
  Task* t = wait_queue(id).pop_first();
  if (t != nullptr) {
    t->waiting_on = kNoWaitQueue;
    wake_task(*t);
  }
}

void Kernel::wake_up_all(WaitQueueId id) {
  while (Task* t = wait_queue(id).pop_first()) {
    t->waiting_on = kNoWaitQueue;
    wake_task(*t);
  }
}

void Kernel::wake_task(Task& t) {
  if (t.state != TaskState::kBlocked) return;
  if (t.waiting_on != kNoWaitQueue) {
    wait_queue(t.waiting_on).remove(t);
    t.waiting_on = kNoWaitQueue;
  }
  make_runnable(t);
}

void Kernel::make_runnable(Task& t) {
  if (pipeline_->owns(t)) {
    // Stage-owned tasks never touch the in-band runqueues: the oob
    // scheduler switches them in itself.
    pipeline_->on_runnable(t);
    return;
  }
  SIM_ASSERT(t.state != TaskState::kRunning && !t.on_runqueue);
  t.state = TaskState::kReady;
  t.last_wake = engine_.now();
  t.freshly_woken = true;
  take_wake_chain(t);
  hw::CpuId target = sched_->select_cpu(
      t, t.effective_affinity, [this](hw::CpuId c) { return cpu_idle(c); });
  if (t.is_rt() && !cpu_idle(target)) {
    // reschedule_idle() semantics for RT wakeups: with no idle CPU, place
    // the task where it can preempt soonest — a CPU whose current context
    // is immediately preemptible beats one stuck in a non-preemptible
    // syscall or a bottom-half storm.
    int best_score = -1;
    t.effective_affinity.for_each([&](hw::CpuId c) {
      const CpuState& cs = cpu(c);
      int score = 0;
      if (cpu_idle(c)) {
        score = 4;
      } else if (cs.switching || !cs.irq_frames.empty()) {
        score = 1;
      } else if (cs.current != nullptr && sched_->preempts(t, *cs.current)) {
        score = cs.current->in_user_mode() || kernel_preemptible(*cs.current)
                    ? 3
                    : 1;
      }
      if (score > best_score) {
        best_score = score;
        target = c;
      }
    });
  }
  SIM_ASSERT(t.effective_affinity.test(target));
  sched_->enqueue(t, target);
  check_preempt(target, t);
}

void Kernel::take_wake_chain(Task& t) {
  if (!wake_chain_.valid()) return;
  if (wake_chain_oob_only_ && !pipeline_->owns(t)) return;
  // First task woken inside the attribution window inherits the latency
  // chain: the segment up to now is the waker's context (irq handler or
  // timer expiry); what follows is this task's runqueue wait.
  sim::ChainTracer& tracer = engine_.chain_tracer();
  tracer.mark(wake_chain_, wake_chain_kind_, wake_chain_cpu_, engine_.now());
  if (t.chain.valid()) tracer.abandon(t.chain);
  t.chain = wake_chain_;
  wake_chain_ = {};
}

void Kernel::finish_latency_chain(Task& t) {
  if (!t.chain.valid()) return;
  const auto out = engine_.chain_tracer().close(
      t.chain, sim::SegmentKind::kKernelExit, t.cpu, engine_.now());
  t.chain = {};
  if (out.has_value() && blame_ != nullptr) blame_->on_sample(*out);
}

// ---- kernel timers ------------------------------------------------------------------

sim::Time Kernel::quantize_expiry(sim::Time ideal) const {
  if (cfg_.posix_timers) return ideal;
  // Classic 2.4: the timer wheel runs off the jiffy tick; an expiry lands
  // on the first tick at or after its ideal time.
  const sim::Duration p = cfg_.local_timer_period;
  return (ideal + p - 1) / p * p;
}

Kernel::TimerId Kernel::arm_periodic_timer(WaitQueueId wq,
                                           sim::Duration period) {
  SIM_ASSERT(period > 0);
  SIM_ASSERT(wq != kNoWaitQueue);
  const auto id = static_cast<TimerId>(timers_.size());
  KernelTimer timer;
  timer.wq = wq;
  timer.period = period;
  timer.armed = true;
  timers_.push_back(timer);
  const sim::Time at =
      std::max(quantize_expiry(engine_.now() + period), engine_.now() + 1);
  timers_[static_cast<std::size_t>(id)].pending =
      engine_.schedule_at(at, [this, id] { timer_fire(id); });
  return id;
}

void Kernel::timer_fire(TimerId id) {
  const auto idx = static_cast<std::size_t>(id);
  if (!timers_[idx].armed) return;
  timers_[idx].expirations++;
  timers_[idx].last_expiry = engine_.now();
  // Timer-wheel expiry processing happens in bottom-half context; charge a
  // small amount of work where the expiry ran (CPU 0: the 2.4 wheel was
  // driven from the boot CPU's tick).
  cpu_mut(0).softirq.raise(SoftirqType::kTimer, 2 * sim::kMicrosecond);
  sim::ChainTracer& tracer = engine_.chain_tracer();
  if (tracer.enabled()) {
    // Timer-driven wakeups (cyclictest) originate here rather than at a
    // device edge; the expiry runs off the boot CPU's tick (see above).
    wake_chain_ = tracer.open("ktimer", engine_.now());
    wake_chain_kind_ = sim::SegmentKind::kTimerExpiry;
    wake_chain_cpu_ = 0;
  }
  // NOTE: waking may run behaviors that arm new timers, reallocating
  // timers_ — never hold a reference across this call.
  wake_up_all(timers_[idx].wq);
  tracer.abandon(wake_chain_);
  wake_chain_ = {};
  if (!timers_[idx].armed) return;  // a woken task may have cancelled us
  const sim::Time ideal_next = engine_.now() + timers_[idx].period;
  const sim::Time at =
      std::max(quantize_expiry(ideal_next), engine_.now() + 1);
  timers_[idx].pending =
      engine_.schedule_at(at, [this, id] { timer_fire(id); });
}

void Kernel::cancel_timer(TimerId id) {
  SIM_ASSERT(id >= 0 && static_cast<std::size_t>(id) < timers_.size());
  KernelTimer& t = timers_[static_cast<std::size_t>(id)];
  if (!t.armed) return;
  t.armed = false;
  engine_.cancel(t.pending);
}

std::uint64_t Kernel::timer_expirations(TimerId id) const {
  SIM_ASSERT(id >= 0 && static_cast<std::size_t>(id) < timers_.size());
  return timers_[static_cast<std::size_t>(id)].expirations;
}

sim::Time Kernel::timer_last_expiry(TimerId id) const {
  SIM_ASSERT(id >= 0 && static_cast<std::size_t>(id) < timers_.size());
  return timers_[static_cast<std::size_t>(id)].last_expiry;
}

// ---- softirq policy --------------------------------------------------------------

void Kernel::raise_softirq(hw::CpuId cpu, SoftirqType type, sim::Duration work) {
  if (work == 0) return;
  CpuState& cs = cpu_mut(cpu);
  cs.softirq.raise(type, work);
  engine_.flight_recorder().record(engine_.now(),
                                   telemetry::EventKind::kSoftirqRaise, cpu,
                                   static_cast<std::int32_t>(type));
  // Raised from task context (no irq frame active on that CPU): the real
  // kernel would run do_softirq at local_bh_enable; we hand the work to
  // ksoftirqd, which is immediately runnable.
  const bool in_irq_context = !cs.irq_frames.empty();
  if (!in_irq_context && cs.ksoftirqd_wq != kNoWaitQueue) {
    wake_up_one(cs.ksoftirqd_wq);
  }
}

// ---- locks ------------------------------------------------------------------------

SpinLock& Kernel::lock(LockId id) {
  SIM_ASSERT(id != LockId::kCount);
  return locks_[static_cast<std::size_t>(id)];
}

// ---- sampling ------------------------------------------------------------------------

sim::Duration Kernel::sample_section() {
  return rng_.bounded_pareto_duration(cfg_.section_min, cfg_.section_max,
                                      cfg_.section_alpha);
}

sim::Duration Kernel::sample_syscall_body(sim::Duration typical) {
  if (typical == 0) return 0;
  if (typical >= cfg_.syscall_body_max) return cfg_.syscall_body_max;
  // Common case: exponential around the typical value, clamped so routine
  // calls stay routine. Rare case: the pathological long operation.
  const sim::Duration knee =
      std::min(std::max<sim::Duration>(8 * typical, 2 * sim::kMillisecond),
               cfg_.syscall_body_max);
  if (rng_.chance(cfg_.body_long_probability) && knee < cfg_.syscall_body_max) {
    return rng_.bounded_pareto_duration(knee, cfg_.syscall_body_max,
                                        cfg_.body_long_alpha);
  }
  return std::min(rng_.exponential_duration(typical), knee);
}

// ---- introspection ----------------------------------------------------------------

Task* Kernel::find_task(Pid pid) {
  for (auto& t : tasks_) {
    if (t->pid == pid) return t.get();
  }
  return nullptr;
}

Task* Kernel::find_task(const std::string& name) {
  for (auto& t : tasks_) {
    if (t->name == name) return t.get();
  }
  return nullptr;
}

// ---- telemetry ------------------------------------------------------------------------

const std::vector<LatencyCounterView>& latency_counter_views() {
  // Order is the render order of /proc/latency/cpuN. The PR 2 counters
  // come first (existing consumers parse by key, but stable order keeps
  // text diffs quiet); the fault-visible counters (softirq floods,
  // lock-holder delays, SMI stalls) follow.
  static const std::vector<LatencyCounterView> kViews = {
      {"spin_wait_ns", "kernel.spin_wait_ns"},
      {"bkl_hold_ns", "kernel.bkl_hold_ns"},
      {"irq_ns", "kernel.irq_time_ns"},
      {"softirq_ns", "kernel.softirq_time_ns"},
      {"hardirqs", "kernel.hardirqs"},
      {"switches", "sched.switches"},
      {"softirq_raised", "kernel.softirq_raised"},
      {"smi_stalls", "kernel.smi_stalls"},
      {"lock_hold_ns", "kernel.lock_hold_ns"},
      {"irq_off_max_ns", "kernel.irq_off_max_ns"},
      {"preempt_off_max_ns", "kernel.preempt_off_max_ns"},
  };
  return kViews;
}

namespace {

std::uint64_t as_u64(sim::Duration d) {
  return d > 0 ? static_cast<std::uint64_t>(d) : 0;
}

}  // namespace

void Kernel::register_telemetry() {
  telemetry::Registry& reg = engine_.telemetry();
  const int n = topo_.logical_cpus();
  // Gauges over the existing CpuState accounting: snapshot-time reads, zero
  // cost on the execution paths that maintain the fields.
  reg.gauge("kernel.spin_wait_ns", "ns tasks on this CPU spun on locks", n,
            "cpu", [this](int c) { return as_u64(cpu(c).spin_wait_time); });
  reg.gauge("kernel.bkl_hold_ns", "ns the BKL was held from this CPU", n,
            "cpu", [this](int c) { return as_u64(cpu(c).bkl_hold_time); });
  reg.gauge("kernel.irq_time_ns", "ns spent in hardirq context", n, "cpu",
            [this](int c) { return as_u64(cpu(c).irq_time); });
  reg.gauge("kernel.softirq_time_ns", "ns spent draining softirq work", n,
            "cpu", [this](int c) { return as_u64(cpu(c).softirq_time); });
  reg.gauge("kernel.hardirqs", "hardirq frames entered", n, "cpu",
            [this](int c) { return cpu(c).hardirqs; });
  reg.gauge("sched.switches", "context switches completed", n, "cpu",
            [this](int c) { return cpu(c).switches; });
  reg.gauge("kernel.softirq_raised", "softirq raise events", n, "cpu",
            [this](int c) { return cpu(c).softirq.total_raised(); });
  reg.gauge("kernel.softirq_pending_ns", "queued bottom-half work, ns", n,
            "cpu",
            [this](int c) { return as_u64(cpu(c).softirq.total_pending()); });
  reg.gauge("kernel.smi_stalls", "injected SMI-like stalls taken", n, "cpu",
            [this](int c) { return cpu(c).smi_stalls; });
  reg.gauge("kernel.irq_off_max_ns", "longest interrupts-off stretch", n,
            "cpu", [this](int c) {
              const auto& h = auditor_.irq_off(c);
              return h.count() > 0 ? as_u64(h.max()) : 0;
            });
  reg.gauge("kernel.preempt_off_max_ns", "longest non-preemptible stretch",
            n, "cpu", [this](int c) {
              const auto& h = auditor_.preempt_off(c);
              return h.count() > 0 ? as_u64(h.max()) : 0;
            });
  reg.gauge("kernel.syscalls", "syscalls entered, all tasks", 1, "",
            [this](int) {
              std::uint64_t sum = 0;
              for (const auto& t : tasks_) sum += t->syscalls;
              return sum;
            });
  reg.gauge("sched.rt_latency_max_ns",
            "worst wakeup-to-run latency, RT tasks", 1, "", [this](int) {
              const auto& h = auditor_.rt_sched_latency();
              return h.count() > 0 ? as_u64(h.max()) : 0;
            });
  lock_hold_counter_ = reg.counter(
      "kernel.lock_hold_ns", "ns of lock hold time released from this CPU",
      n, "cpu");

  // Per-lock statistics, cells keyed by lock id.
  std::vector<std::string> lock_names;
  for (int i = 0; i < static_cast<int>(LockId::kCount); ++i) {
    lock_names.emplace_back(to_string(static_cast<LockId>(i)));
  }
  const int nlocks = static_cast<int>(LockId::kCount);
  auto lock_at = [this](int i) -> const SpinLock& {
    return locks_[static_cast<std::size_t>(i)];
  };
  reg.gauge("lock.acquisitions", "times the lock was taken", nlocks, "lock",
            [lock_at](int i) { return lock_at(i).acquisitions(); },
            lock_names);
  reg.gauge("lock.contentions", "acquisitions that had to spin", nlocks,
            "lock", [lock_at](int i) { return lock_at(i).contentions(); },
            lock_names);
  reg.gauge("lock.wait_ns", "total ns spinners waited", nlocks, "lock",
            [lock_at](int i) { return as_u64(lock_at(i).total_wait()); },
            lock_names);
  reg.gauge("lock.hold_ns", "total ns the lock was held", nlocks, "lock",
            [lock_at](int i) { return as_u64(lock_at(i).total_hold()); },
            lock_names);
}

std::uint64_t Kernel::latency_counter(std::string_view series,
                                      hw::CpuId cpu) const {
  return engine_.telemetry().value(series, cpu);
}

void Kernel::reset_latency_counters() {
  for (auto& cs : cpus_) {
    cs.irq_time = 0;
    cs.softirq_time = 0;
    cs.switches = 0;
    cs.hardirqs = 0;
    cs.spin_wait_time = 0;
    cs.bkl_hold_time = 0;
    cs.smi_stalls = 0;
    cs.oob_preemptions = 0;
    cs.softirq.reset_counts();
  }
  for (auto& l : locks_) l.reset_counters();
  for (auto& t : tasks_) t->syscalls = 0;
  auditor_.reset();
  ic_.reset_counters();
  engine_.telemetry().reset();
  // Observability residue from the first window: chain-tracer statistics
  // and the post-mortem ring would otherwise leak warmup events into the
  // second window's exports and flight dumps.
  engine_.chain_tracer().reset_stats();
  engine_.flight_recorder().clear();
}

// ---- procfs ---------------------------------------------------------------------------

void Kernel::register_proc_files() {
  for (hw::Irq irq = 0; irq < hw::kMaxIrq; ++irq) {
    const std::string path =
        "/proc/irq/" + std::to_string(irq) + "/smp_affinity";
    procfs_.register_file(
        path, [this, irq] { return ic_.affinity(irq).to_hex() + "\n"; },
        [this, irq](std::string_view data) {
          hw::CpuMask mask;
          if (!hw::CpuMask::parse_hex(data, mask)) return false;
          if ((mask & topo_.all_cpus()).empty()) return false;
          ic_.set_affinity(irq, mask);
          return true;
        });
  }
  procfs_.register_file("/proc/interrupts", [this] {
    std::string out = "           ";
    for (int c = 0; c < topo_.logical_cpus(); ++c) {
      out += "CPU" + std::to_string(c) + "        ";
    }
    out += "\n";
    for (hw::Irq irq = 0; irq < hw::kMaxIrq; ++irq) {
      if (ic_.raise_count(irq) == 0) continue;
      out += std::to_string(irq) + ":  ";
      for (int c = 0; c < topo_.logical_cpus(); ++c) {
        out += std::to_string(ic_.delivery_count(irq, c)) + "  ";
      }
      out += "\n";
    }
    return out;
  });
  // Per-CPU latency counters (the tracing subsystem's always-on half):
  // where each CPU's response-time budget went, in ns. Rendered from the
  // telemetry registry through the shared view table, so this file and the
  // registry's own exports cannot drift apart.
  for (hw::CpuId c = 0; c < topo_.logical_cpus(); ++c) {
    procfs_.register_file(
        "/proc/latency/cpu" + std::to_string(c), [this, c] {
          std::string out;
          for (const LatencyCounterView& v : latency_counter_views()) {
            out += std::string(v.key) + " " +
                   std::to_string(latency_counter(v.series, c)) + "\n";
          }
          return out;
        });
  }
  // The whole registry in Prometheus text exposition format.
  procfs_.register_file("/proc/telemetry",
                        [this] { return engine_.telemetry().prometheus_text(); });
  procfs_.register_file("/proc/latency/locks", [this] {
    std::string out =
        "lock        acquisitions contentions      wait_ns      hold_ns\n";
    for (std::size_t i = 0; i < locks_.size(); ++i) {
      const SpinLock& l = locks_[i];
      if (l.acquisitions() == 0) continue;
      std::string name = to_string(static_cast<LockId>(i));
      name.resize(12, ' ');
      out += name + std::to_string(l.acquisitions()) + " " +
             std::to_string(l.contentions()) + " " +
             std::to_string(l.total_wait()) + " " +
             std::to_string(l.total_hold()) + "\n";
    }
    return out;
  });
}

// ---- sleep rounding ---------------------------------------------------------------------

sim::Duration Kernel::round_sleep(sim::Duration requested) const {
  if (cfg_.posix_timers) return requested;
  // Classic 2.4: the wakeup lands on the next tick at or after expiry.
  const sim::Duration p = cfg_.local_timer_period;
  return (requested + p - 1) / p * p;
}

}  // namespace kernel
