// CPU execution machinery: segments, frames, interrupts, preemption,
// context switches, and the kernel-program interpreter.
//
// See the invariants documented in kernel.h. The central idea: a CPU always
// executes the top of its stack (context switch > interrupt frames > the
// current task's frames) as a timed "segment". Interrupts pause the
// segment, push frames, and the partially-consumed work resumes later —
// that resumed stretch *is* the jitter the paper measures.
#include <algorithm>
#include <variant>

#include "kernel/kernel.h"
#include "sim/assert.h"

namespace kernel {

using namespace sim::literals;

namespace {
/// Re-sample dilation at least this often during long stretches of work so
/// hyperthread/bus conditions are tracked.
constexpr sim::Duration kSegmentChunk = 500_us;
/// Effective memory intensity while spinning on a lock (cacheline polling).
constexpr double kSpinTraffic = 0.05;

/// Durations carried in flight-recorder detail words are 32-bit; clamp
/// (spans anywhere near 2s are pathological and the cap still shows that).
std::int32_t clamp_i32(sim::Duration d) {
  constexpr sim::Duration kMax = 0x7fffffff;
  return static_cast<std::int32_t>(std::min(d, kMax));
}
}  // namespace

// ---- segments ---------------------------------------------------------------------

void Kernel::start_segment(hw::CpuId cpu) {
  CpuState& cs = cpu_mut(cpu);
  SIM_ASSERT(!cs.seg_active && !cs.switching);

  sim::Duration remaining = 0;
  double mem = 0.0;
  if (!cs.irq_frames.empty()) {
    const IrqFrame& f = cs.irq_frames.back();
    remaining = f.remaining;
    mem = f.memory_intensity;
  } else {
    SIM_ASSERT(cs.current != nullptr && !cs.current->frames.empty());
    Task& t = *cs.current;
    TaskFrame& f = t.frames.back();
    if (f.kind == TaskFrame::Kind::kSpinWait) {
      // Busy-spinning: no timed segment; resolution comes from the lock
      // release. The CPU still looks busy to the HT sibling.
      mem_.set_traffic(cpu, kSpinTraffic);
      return;
    }
    if (f.kind == TaskFrame::Kind::kUserCompute && !t.mlocked) {
      // Unlocked memory: user code takes the occasional minor fault —
      // "preventing the jitter that would be caused when a program first
      // accesses a page not resident in memory" (§5) is exactly what
      // mlockall buys. Sample per upcoming chunk.
      const sim::Duration span = std::min(f.remaining, kSegmentChunk);
      const double p = static_cast<double>(span) /
                       static_cast<double>(cfg_.fault_mean_interval);
      if (rng_.chance(p)) {
        t.minor_faults++;
        t.frames.push_back(TaskFrame{
            TaskFrame::Kind::kFault,
            rng_.uniform_duration(cfg_.fault_cost_min, cfg_.fault_cost_max),
            0.5, LockId::kCount, false});
        start_segment(cpu);
        return;
      }
    }
    remaining = f.remaining;
    mem = f.memory_intensity;
  }
  SIM_ASSERT(remaining > 0);

  const hw::CpuId sibling = topo_.sibling_of(cpu);
  const bool sibling_busy = sibling >= 0 && cpu_busy(sibling);
  const double dilation = mem_.sample_dilation(cpu, sibling_busy, mem);
  mem_.set_traffic(cpu, mem);

  const sim::Duration span = std::min(remaining, kSegmentChunk);
  const auto wall = std::max<sim::Duration>(
      1, static_cast<sim::Duration>(static_cast<double>(span) * dilation));

  cs.seg_start = engine_.now();
  cs.seg_dilation = dilation;
  cs.seg_span = span;
  cs.seg_active = true;
  cs.seg_end = engine_.schedule(wall, [this, cpu] { on_segment_end(cpu); });
}

void Kernel::pause_segment(hw::CpuId cpu) {
  CpuState& cs = cpu_mut(cpu);
  if (!cs.seg_active) return;
  engine_.cancel(cs.seg_end);
  cs.seg_active = false;
  const sim::Duration elapsed = engine_.now() - cs.seg_start;
  auto consumed = static_cast<sim::Duration>(static_cast<double>(elapsed) /
                                             cs.seg_dilation);
  consumed = std::min(consumed, cs.seg_span);
  account_segment(cpu, elapsed);
  if (!cs.irq_frames.empty()) {
    IrqFrame& f = cs.irq_frames.back();
    f.remaining -= std::min(f.remaining, consumed);
  } else {
    SIM_ASSERT(cs.current != nullptr && !cs.current->frames.empty());
    TaskFrame& f = cs.current->frames.back();
    SIM_ASSERT(f.kind != TaskFrame::Kind::kSpinWait);
    f.remaining -= std::min(f.remaining, consumed);
    // A paused work frame must not vanish: resumption needs a frame, so
    // keep at least a sliver if the timing rounded to exactly zero.
    if (f.remaining == 0) f.remaining = 1;
  }
}

void Kernel::account_segment(hw::CpuId cpu, sim::Duration elapsed) {
  CpuState& cs = cpu_mut(cpu);
  if (!cs.irq_frames.empty()) {
    if (cs.irq_frames.back().kind == IrqFrame::Kind::kHardirq) {
      cs.irq_time += elapsed;
    } else {
      cs.softirq_time += elapsed;
    }
    return;
  }
  if (cs.current == nullptr || cs.current->frames.empty()) return;
  Task& t = *cs.current;
  // Fault handling and kernel work are system time; user compute is user
  // time (this is the precise accounting; the tick-sampled counters live
  // in the local-timer path).
  if (t.frames.back().kind == TaskFrame::Kind::kUserCompute) {
    t.utime += elapsed;
  } else {
    t.stime += elapsed;
  }
}

void Kernel::on_segment_end(hw::CpuId cpu) {
  CpuState& cs = cpu_mut(cpu);
  SIM_ASSERT(cs.seg_active);
  cs.seg_active = false;
  account_segment(cpu, engine_.now() - cs.seg_start);

  if (cs.switching) {
    finish_switch(cpu);
    return;
  }

  if (!cs.irq_frames.empty()) {
    IrqFrame& f = cs.irq_frames.back();
    f.remaining -= std::min(f.remaining, cs.seg_span);
    if (f.remaining == 0) {
      finish_irq_frame(cpu);
    } else {
      start_segment(cpu);
    }
    return;
  }

  SIM_ASSERT(cs.current != nullptr && !cs.current->frames.empty());
  Task& t = *cs.current;
  TaskFrame& f = t.frames.back();
  SIM_ASSERT(f.kind != TaskFrame::Kind::kSpinWait);
  f.remaining -= std::min(f.remaining, cs.seg_span);
  if (f.remaining > 0) {
    start_segment(cpu);
    return;
  }
  const TaskFrame::Kind kind = f.kind;
  t.frames.pop_back();
  if (kind == TaskFrame::Kind::kUserCompute) {
    next_action(cpu);
  } else if (kind == TaskFrame::Kind::kFault) {
    // Fault handled: fall back into the interrupted user compute.
    resume_task(cpu);
  } else {
    // Kernel work op complete: advance and continue the program.
    t.pc++;
    run_program(cpu);
  }
}

// ---- context switches --------------------------------------------------------------

void Kernel::begin_switch(hw::CpuId cpu) {
  CpuState& cs = cpu_mut(cpu);
  SIM_ASSERT(!cs.switching && cs.current == nullptr && cs.irq_frames.empty());
  SIM_ASSERT(!cs.seg_active);
  cs.switching = true;
  mask_irqs(cpu);  // schedule() runs with interrupts disabled
  // Switch cost varies with cache state: mostly near nominal, occasionally
  // a cache-cold switch that must refill the working set.
  sim::Duration switch_cost =
      rng_.uniform_duration(cfg_.ctx_switch_cost * 3 / 4,
                            cfg_.ctx_switch_cost * 5 / 4);
  if (rng_.chance(0.03)) switch_cost *= 3;
  const sim::Duration cost = sched_->pick_cost(cpu) + switch_cost;
  cs.seg_start = engine_.now();
  cs.seg_dilation = 1.0;
  cs.seg_span = cost;
  cs.seg_active = true;
  cs.seg_end = engine_.schedule(cost, [this, cpu] { on_segment_end(cpu); });
}

void Kernel::finish_switch(hw::CpuId cpu) {
  CpuState& cs = cpu_mut(cpu);
  SIM_ASSERT(cs.switching);
  cs.switching = false;
  cs.switches++;
  cs.need_resched = false;

  Task* next = sched_->pick_next(cpu);
  if (next == nullptr) {
    cs.current = nullptr;
    mem_.set_traffic(cpu, 0.0);
    unmask_irqs(cpu);
    // Deliver anything that arrived during the switch; otherwise idle.
    flush_one_pending(cpu);
    return;
  }

  SIM_ASSERT(next->state == TaskState::kReady);
  SIM_ASSERT(next->effective_affinity.test(cpu));
  engine_.flight_recorder().record(engine_.now(),
                                   telemetry::EventKind::kCtxSwitch, cpu,
                                   next->pid, next->is_rt() ? 1 : 0);
  next->state = TaskState::kRunning;
  if (next->cpu != cpu && next->cpu >= 0) next->migrations++;
  next->cpu = cpu;
  next->ctx_switches++;
  sched_->refresh_timeslice(*next);
  cs.current = next;
  if (next->freshly_woken) {
    next->freshly_woken = false;
    auditor_.task_scheduled_in(next->last_wake, engine_.now(), next->is_rt());
  }
  if (next->chain.valid()) {
    // Attribute the gap since the wakeup: waiting on the runqueue until the
    // switch began (cs.seg_start), then the switch cost itself.
    sim::ChainTracer& tracer = engine_.chain_tracer();
    tracer.mark(next->chain, sim::SegmentKind::kRunqueueWait, cpu,
                cs.seg_start);
    tracer.mark(next->chain, sim::SegmentKind::kContextSwitch, cpu,
                engine_.now());
  }

  unmask_irqs(cpu);
  if (flush_one_pending(cpu)) return;  // irq exit path resumes the task
  resume_task(cpu);
}

void Kernel::resume_task(hw::CpuId cpu) {
  CpuState& cs = cpu_mut(cpu);
  SIM_ASSERT(cs.current != nullptr && cs.irq_frames.empty() && !cs.switching);
  Task& t = *cs.current;
  if (!t.frames.empty()) {
    // Spin-wait frames resolve via lock release, not a segment.
    if (t.frames.back().kind == TaskFrame::Kind::kSpinWait) {
      mem_.set_traffic(cpu, kSpinTraffic);
      return;
    }
    start_segment(cpu);
    return;
  }
  if (t.in_syscall) {
    run_program(cpu);
    return;
  }
  next_action(cpu);
}

void Kernel::dispatch(hw::CpuId cpu) {
  // Entry point for "this idle CPU should schedule now".
  CpuState& cs = cpu_mut(cpu);
  SIM_ASSERT(cs.current == nullptr && !cs.switching && cs.irq_frames.empty());
  begin_switch(cpu);
}

void Kernel::preempt_current(hw::CpuId cpu) {
  CpuState& cs = cpu_mut(cpu);
  SIM_ASSERT(cs.current != nullptr && !cs.switching && cs.irq_frames.empty());
  pause_segment(cpu);
  Task* t = cs.current;
  cs.current = nullptr;
  t->state = TaskState::kReady;
  // Requeue; placement may move it to another allowed CPU.
  const hw::CpuId target = sched_->select_cpu(
      *t, t->effective_affinity, [this](hw::CpuId c) { return cpu_idle(c); });
  sched_->enqueue(*t, target);
  if (target != cpu) check_preempt(target, *t);
  begin_switch(cpu);
}

// ---- wake-time preemption ---------------------------------------------------------------

void Kernel::check_preempt(hw::CpuId cpu, Task& woken) {
  CpuState& cs = cpu_mut(cpu);
  if (!cpu_busy(cpu)) {
    dispatch(cpu);
    return;
  }
  if (cs.switching) {
    cs.need_resched = true;  // finish_switch re-picks and will see it
    return;
  }
  if (!cs.irq_frames.empty()) {
    if (cs.current == nullptr || sched_->preempts(woken, *cs.current)) {
      cs.need_resched = true;  // handled at interrupt exit
    }
    return;
  }
  SIM_ASSERT(cs.current != nullptr);
  Task& cur = *cs.current;
  if (!sched_->preempts(woken, cur)) return;
  if (cur.in_user_mode() || kernel_preemptible(cur)) {
    preempt_current(cpu);
  } else {
    cs.need_resched = true;  // syscall exit / preempt_enable will handle it
  }
}

bool Kernel::kernel_preemptible(const Task& t) const {
  if (!cfg_.preempt_kernel) return false;
  if (t.preempt_count > 0) return false;
  if (!t.frames.empty() && t.frames.back().kind == TaskFrame::Kind::kSpinWait) {
    return false;  // spinners hold the CPU until granted
  }
  return true;
}

void Kernel::preempt_enable_check(hw::CpuId cpu) {
  if (!cfg_.preempt_kernel) return;
  CpuState& cs = cpu_mut(cpu);
  if (!cs.need_resched || cs.current == nullptr) return;
  if (!cs.irq_frames.empty() || cs.switching) return;
  Task& t = *cs.current;
  if (t.in_user_mode() || kernel_preemptible(t)) preempt_current(cpu);
}

// ---- interrupts ------------------------------------------------------------------------

void Kernel::deliver_vector(hw::CpuId cpu, int vector) {
  CpuState& cs = cpu_mut(cpu);
  if (!cs.irqs_enabled()) {
    // One pending bit per vector, like a real local APIC.
    if (std::find(cs.pending_vectors.begin(), cs.pending_vectors.end(),
                  vector) == cs.pending_vectors.end()) {
      cs.pending_vectors.push_back(vector);
    }
    return;
  }
  begin_hardirq(cpu, vector);
}

void Kernel::begin_hardirq(hw::CpuId cpu, int vector) {
  CpuState& cs = cpu_mut(cpu);
  SIM_ASSERT(cs.irqs_enabled() && !cs.switching);
  pause_segment(cpu);
  cs.hardirqs++;
  // Shared dispatch bookkeeping (flight event, chain pickup with its
  // irq-raise segment covering wire delay plus any time the line sat
  // pending, auditor dispatch-latency sample) lives in the pipeline so both
  // mechanisms and both consumers read the same raise timestamp.
  const sim::ChainId chain = pipeline_->note_dispatch(cpu, vector);

  sim::Duration cost = cfg_.irq_entry_cost + cfg_.irq_exit_cost;
  if (vector >= 0) {
    const IrqHandler& h = irq_handlers_[static_cast<std::size_t>(vector)];
    SIM_ASSERT_MSG(static_cast<bool>(h.effects) || !h.name.empty(),
                   "interrupt with no registered handler");
    cost += rng_.uniform_duration(h.cost_min, h.cost_max);
  } else if (vector == kVectorLocalTimer) {
    cost += rng_.uniform_duration(cfg_.tick_cost_min, cfg_.tick_cost_max);
  } else if (vector == kVectorSmi) {
    // System-management mode: the CPU simply disappears for the budgeted
    // stall — no kernel entry/exit path is involved.
    cost = cs.smi_stall_budget > 0 ? cs.smi_stall_budget : 500_ns;
    cs.smi_stall_budget = 0;
    cs.smi_stalls++;
  } else if (vector == kVectorOobStage) {
    // The oob stage stole these cycles: like an SMI, no kernel entry/exit,
    // just time the in-band CPU does not get.
    cost = cs.oob_stall_budget > 0 ? cs.oob_stall_budget : 500_ns;
    cs.oob_stall_budget = 0;
    cs.oob_preemptions++;
  } else {
    cost += 500_ns;  // reschedule IPI: acknowledge and return
  }

  cs.irq_frames.push_back(IrqFrame{IrqFrame::Kind::kHardirq, vector, cost, 0.4});
  cs.irq_frames.back().started_at = engine_.now();
  if (vector >= 0) cs.irq_frames.back().chain = chain;
  mask_irqs(cpu);
  start_segment(cpu);
}

void Kernel::finish_irq_frame(hw::CpuId cpu) {
  CpuState& cs = cpu_mut(cpu);
  SIM_ASSERT(!cs.irq_frames.empty());
  const IrqFrame frame = cs.irq_frames.back();

  // Handler effects run at the tail of the handler, still in irq context.
  if (frame.kind == IrqFrame::Kind::kHardirq) {
    if (frame.vector >= 0) {
      const IrqHandler& h =
          irq_handlers_[static_cast<std::size_t>(frame.vector)];
      // Open the wakeup-attribution window: the first task these effects
      // make runnable inherits the frame's latency chain (make_runnable
      // consumes wake_chain_). A handler that wakes nobody abandons it.
      wake_chain_ = frame.chain;
      wake_chain_kind_ = sim::SegmentKind::kIrqHandler;
      wake_chain_cpu_ = cpu;
      if (h.effects) h.effects(*this, cpu);
      engine_.chain_tracer().abandon(wake_chain_);
      wake_chain_ = {};
    } else if (frame.vector == kVectorLocalTimer) {
      if (cs.current != nullptr) {
        Task& cur = *cs.current;
        // Tick-sampled CPU time accounting (§3: this is the functionality
        // lost when a CPU is shielded from the local timer).
        if (cur.in_user_mode()) {
          cur.utime_ticks++;
        } else {
          cur.stime_ticks++;
        }
        if (sched_->task_tick(cur, cpu)) cs.need_resched = true;
      }
      // Timer-wheel bottom half: small sampled amount of expiry work.
      cs.softirq.raise(SoftirqType::kTimer, rng_.uniform_duration(1_us, 15_us));
    }
    // Reschedule IPIs carry no payload: need_resched was set by the waker.
  }

  // Frame-completion span for the timeline: one record per finished frame,
  // wall duration (entry to exit, including any nested preemption).
  engine_.flight_recorder().record(
      engine_.now(),
      frame.kind == IrqFrame::Kind::kHardirq ? telemetry::EventKind::kIrqSpan
                                             : telemetry::EventKind::kSoftirqSpan,
      cpu, frame.kind == IrqFrame::Kind::kHardirq ? frame.vector : 0,
      clamp_i32(engine_.now() - frame.started_at));

  cs.irq_frames.pop_back();
  if (frame.kind == IrqFrame::Kind::kHardirq) unmask_irqs(cpu);

  if (!cs.irq_frames.empty()) {
    start_segment(cpu);  // resume the interrupted softirq (or nested frame)
    return;
  }
  if (flush_one_pending(cpu)) return;
  do_softirq(cpu);
  // do_softirq may have pushed a softirq frame, or a ksoftirqd wake may
  // have put this (idle) CPU straight into a context switch.
  if (!cs.irq_frames.empty() || cs.switching) return;
  irq_stack_empty(cpu);
}

bool Kernel::flush_one_pending(hw::CpuId cpu) {
  CpuState& cs = cpu_mut(cpu);
  if (!cs.irqs_enabled() || cs.pending_vectors.empty()) return false;
  const int vector = cs.pending_vectors.front();
  cs.pending_vectors.erase(cs.pending_vectors.begin());
  begin_hardirq(cpu, vector);
  return true;
}

void Kernel::do_softirq(hw::CpuId cpu) {
  CpuState& cs = cpu_mut(cpu);
  SIM_ASSERT(cs.irq_frames.empty());
  if (!cs.softirq.any_pending()) return;

  const int max_restart = cfg_.softirq_daemon_offload ? 1 : cfg_.softirq_max_restart;
  if (cs.softirq_restarts >= max_restart) {
    // Too much bottom-half work for interrupt context: kick ksoftirqd. The
    // wake may dispatch on this very CPU, so the callers re-check state.
    if (cs.ksoftirqd_wq != kNoWaitQueue) wake_up_one(cs.ksoftirqd_wq);
    return;
  }
  cs.softirq_restarts++;
  const sim::Duration take = cs.softirq.take(cfg_.softirq_budget_in_irq);
  SIM_ASSERT(take > 0);
  // Softirqs run with interrupts enabled — this is what perforates spinlock
  // hold times (§6.2). Push the frame before any wakeups so check_preempt
  // sees this CPU as being in interrupt context.
  cs.irq_frames.push_back(
      IrqFrame{IrqFrame::Kind::kSoftirq, /*vector=*/-100, take, 0.45});
  cs.irq_frames.back().started_at = engine_.now();
  if (cfg_.softirq_daemon_offload && cs.softirq.any_pending() &&
      cs.ksoftirqd_wq != kNoWaitQueue) {
    wake_up_one(cs.ksoftirqd_wq);
  }
  start_segment(cpu);
}

void Kernel::irq_stack_empty(hw::CpuId cpu) {
  CpuState& cs = cpu_mut(cpu);
  SIM_ASSERT(cs.irq_frames.empty());
  if (cs.switching) return;  // a wake during irq exit already rescheduled us
  cs.softirq_restarts = 0;

  if (cs.current == nullptr) {
    if (cs.need_resched) {
      begin_switch(cpu);
    } else {
      mem_.set_traffic(cpu, 0.0);
    }
    return;
  }
  Task& t = *cs.current;
  if (cs.need_resched && (t.in_user_mode() || kernel_preemptible(t))) {
    preempt_current(cpu);
    return;
  }
  resume_task(cpu);
}

void Kernel::local_timer_tick(hw::CpuId cpu) {
  deliver_vector(cpu, kVectorLocalTimer);
}

// ---- the kernel-program interpreter ----------------------------------------------------

void Kernel::run_program(hw::CpuId cpu) {
  CpuState& cs = cpu_mut(cpu);
  SIM_ASSERT(cs.current != nullptr);
  Task& t = *cs.current;
  SIM_ASSERT(t.in_syscall);
  SIM_ASSERT(t.frames.empty());

  if (t.needs_bkl_reacquire) {
    // Returning from a sleep that auto-dropped the BKL: reacquire first.
    if (!acquire_lock(cpu, t, LockId::kBkl, /*bkl_reacquire=*/true)) {
      return;  // spinning; the grant path resumes us
    }
    t.needs_bkl_reacquire = false;
  }

  while (true) {
    if (cs.current != &t || !cs.irq_frames.empty() || cs.switching) return;
    if (t.pc >= t.program.size()) {
      finish_syscall(cpu);
      return;
    }
    const KernelOp& op = t.program[t.pc];

    if (const auto* w = std::get_if<OpWork>(&op)) {
      if (w->duration == 0) {  // sampled-to-zero work: nothing to run
        t.pc++;
        continue;
      }
      t.frames.push_back(TaskFrame{TaskFrame::Kind::kKernelWork, w->duration,
                                   w->memory_intensity, LockId::kCount, false});
      start_segment(cpu);
      return;
    }
    if (const auto* l = std::get_if<OpLock>(&op)) {
      if (!acquire_lock(cpu, t, l->lock)) return;  // spinning
      t.pc++;
      continue;
    }
    if (const auto* u = std::get_if<OpUnlock>(&op)) {
      t.pc++;
      release_lock(cpu, t, u->lock);
      continue;
    }
    if (std::get_if<OpPreemptDisable>(&op) != nullptr) {
      preempt_count_inc(t);
      t.pc++;
      continue;
    }
    if (std::get_if<OpPreemptEnable>(&op) != nullptr) {
      SIM_ASSERT(t.preempt_count > 0);
      preempt_count_dec(t);
      t.pc++;
      preempt_enable_check(cpu);
      continue;
    }
    if (const auto* b = std::get_if<OpBlock>(&op)) {
      t.pc++;
      block_current(cpu, b->wq);
      return;
    }
    if (const auto* e = std::get_if<OpEffect>(&op)) {
      t.pc++;
      e->fn(*this, t);
      continue;
    }
    SIM_UNREACHABLE("unhandled kernel op");
  }
}

void Kernel::finish_syscall(hw::CpuId cpu) {
  CpuState& cs = cpu_mut(cpu);
  Task& t = *cs.current;
  SIM_ASSERT(t.in_syscall);
  SIM_ASSERT_MSG(t.preempt_count == 0 && t.bkl_depth == 0 &&
                     t.irq_disable_depth == 0,
                 "syscall exited holding a lock");
  t.in_syscall = false;
  t.program.clear();
  t.pc = 0;
  t.syscalls++;

  // The return-to-user reschedule point: every kernel honours need_resched
  // here, patched or not.
  if (cs.need_resched) {
    preempt_current(cpu);
    return;
  }
  next_action(cpu);
}

void Kernel::block_current(hw::CpuId cpu, WaitQueueId wq) {
  CpuState& cs = cpu_mut(cpu);
  Task& t = *cs.current;
  SIM_ASSERT(!cs.seg_active && cs.irq_frames.empty());

  // 2.4 semantics: sleeping drops the BKL, wakeup must retake it.
  if (t.bkl_depth > 0) {
    SIM_ASSERT(t.bkl_depth == 1);
    t.needs_bkl_reacquire = true;
    release_lock(cpu, t, LockId::kBkl);
    if (cs.current != &t) {
      // release_lock's preempt check moved us off already; we are on the
      // runqueue but must block instead.
      sched_->dequeue(t);
      t.state = TaskState::kBlocked;
      t.waiting_on = wq;
      wait_queue(wq).add(t);
      return;
    }
  }
  SIM_ASSERT_MSG(t.preempt_count == 0 && t.irq_disable_depth == 0,
                 "blocking inside a critical section");

  t.state = TaskState::kBlocked;
  t.waiting_on = wq;
  wait_queue(wq).add(t);
  cs.current = nullptr;
  begin_switch(cpu);
}

void Kernel::next_action(hw::CpuId cpu) {
  CpuState& cs = cpu_mut(cpu);
  SIM_ASSERT(cs.current != nullptr && cs.irq_frames.empty() && !cs.switching);
  Task& t = *cs.current;
  SIM_ASSERT(t.frames.empty() && !t.in_syscall);

  Action action = t.behavior->next_action(*this, t);

  if (cs.current != &t) return;  // behavior side effects preempted us

  if (auto* c = std::get_if<ComputeAction>(&action)) {
    SIM_ASSERT(c->work > 0);
    t.frames.push_back(TaskFrame{TaskFrame::Kind::kUserCompute, c->work,
                                 c->memory_intensity, LockId::kCount, false});
    start_segment(cpu);
    return;
  }
  if (auto* s = std::get_if<SyscallAction>(&action)) {
    t.in_syscall = true;
    // Wrap with the fixed entry/exit path costs, built into the task's own
    // buffer so its capacity carries from one syscall to the next.
    t.program.clear();
    t.program.reserve(s->program.size() + 2);
    t.program.push_back(OpWork{cfg_.syscall_entry_cost, 0.3});
    for (auto& op : s->program) t.program.push_back(std::move(op));
    t.program.push_back(OpWork{cfg_.syscall_exit_cost, 0.3});
    t.pc = 0;
    run_program(cpu);
    return;
  }
  if (auto* sl = std::get_if<SleepAction>(&action)) {
    const sim::Time wake_at = engine_.now() + round_sleep(sl->duration);
    sleep_current_until(cpu, wake_at);
    return;
  }
  SIM_ASSERT(std::get_if<ExitAction>(&action) != nullptr);
  t.state = TaskState::kExited;
  if (t.chain.valid()) {
    engine_.chain_tracer().abandon(t.chain);
    t.chain = {};
  }
  cs.current = nullptr;
  begin_switch(cpu);
}

void Kernel::sleep_current_until(hw::CpuId cpu, sim::Time wake_at) {
  CpuState& cs = cpu_mut(cpu);
  Task& t = *cs.current;
  t.state = TaskState::kBlocked;
  t.waiting_on = kNoWaitQueue;
  cs.current = nullptr;
  Task* tp = &t;
  engine_.schedule_at(std::max(wake_at, engine_.now() + 1),
                      [this, tp] { wake_task(*tp); });
  begin_switch(cpu);
}

// ---- locks -----------------------------------------------------------------------------

bool Kernel::acquire_lock(hw::CpuId cpu, Task& t, LockId id, bool bkl_reacquire) {
  SpinLock& l = lock(id);

  // spin_lock_irqsave: interrupts go off before the spin.
  if (l.irq_safe()) {
    mask_irqs(cpu);
    t.irq_disable_depth++;
  }
  if (id == LockId::kBkl) {
    SIM_ASSERT_MSG(t.bkl_depth == 0, "model limits BKL depth to 1");
  }

  if (l.try_acquire(t)) {
    // Holding any spinlock — the BKL included — disables preemption (the
    // preemption patch treats lock_kernel like every other spinlock; the
    // BKL's special power is being *dropped across sleeps*, not being
    // preemptible).
    preempt_count_inc(t);
    if (id == LockId::kBkl) t.bkl_depth = 1;
    l.note_acquired(engine_.now());
    engine_.flight_recorder().record(engine_.now(),
                                     telemetry::EventKind::kLockAcquire, cpu,
                                     static_cast<std::int32_t>(id));
    return true;
  }

  // Contended: spin. The task burns its CPU until the holder releases.
  engine_.flight_recorder().record(
      engine_.now(), telemetry::EventKind::kLockContend, cpu,
      static_cast<std::int32_t>(id),
      l.holder() != nullptr ? l.holder()->cpu : -1);
  l.add_waiter(t);
  t.frames.push_back(TaskFrame{TaskFrame::Kind::kSpinWait, 0, kSpinTraffic, id,
                               bkl_reacquire});
  t.spin_started_at = engine_.now();
  // Work done since the last chain mark was normal kernel-exit progress;
  // everything from here until the grant is spin time.
  engine_.chain_tracer().mark(t.chain, sim::SegmentKind::kKernelExit, cpu,
                              engine_.now());
  mem_.set_traffic(cpu, kSpinTraffic);
  return false;
}

void Kernel::release_lock(hw::CpuId cpu, Task& t, LockId id) {
  SpinLock& l = lock(id);
  SIM_ASSERT_MSG(l.holder() == &t, "unlock by non-holder");
  CpuState& cs = cpu_mut(cpu);

  SIM_ASSERT(t.preempt_count > 0);
  preempt_count_dec(t);
  const sim::Duration held = engine_.now() - l.acquired_at();
  if (held > 0) {
    lock_hold_counter_.add(cpu, static_cast<std::uint64_t>(held));
  }
  engine_.flight_recorder().record(engine_.now(),
                                   telemetry::EventKind::kLockRelease, cpu,
                                   static_cast<std::int32_t>(id),
                                   clamp_i32(held));
  if (id == LockId::kBkl) {
    t.bkl_depth = 0;
    cs.bkl_hold_time += held;
  }
  l.note_released(engine_.now());

  Task* granted = l.release_and_grant();

  if (l.irq_safe()) {
    SIM_ASSERT(t.irq_disable_depth > 0);
    t.irq_disable_depth--;
    unmask_irqs(cpu);
  }

  if (granted != nullptr) {
    // The spinner becomes the holder and continues on its own CPU.
    SIM_ASSERT(granted->state == TaskState::kRunning);
    const hw::CpuId gcpu = granted->cpu;
    SIM_ASSERT(!granted->frames.empty() &&
               granted->frames.back().kind == TaskFrame::Kind::kSpinWait);
    const bool reacquire = granted->frames.back().bkl_reacquire;
    granted->frames.pop_back();
    preempt_count_inc(*granted);
    if (id == LockId::kBkl) granted->bkl_depth = 1;
    l.note_acquired(engine_.now());
    const sim::Duration waited = engine_.now() - granted->spin_started_at;
    cpu_mut(gcpu).spin_wait_time += waited;
    l.add_wait_time(waited);
    engine_.chain_tracer().mark(granted->chain, sim::SegmentKind::kSpinWait,
                                gcpu, engine_.now(), to_string(id));
    if (reacquire) {
      granted->needs_bkl_reacquire = false;
    } else {
      granted->pc++;  // the OpLock completed
    }
    CpuState& gcs = cpu_mut(gcpu);
    if (gcs.current == granted && gcs.irq_frames.empty() && !gcs.switching) {
      run_program(gcpu);
    }
    // Otherwise the spinner's CPU is mid-interrupt; irq_stack_empty will
    // resume the program.
  }

  // Releasing a lock is a preemption point (preempt_enable inside
  // spin_unlock) — but only when *we* are the running context.
  if (cs.current == &t && cs.irq_frames.empty() && !cs.switching) {
    preempt_enable_check(cpu);
    // Interrupts pended while the lock was irq-safe arrive now; the irq
    // exit path resumes the program afterwards.
    if (cs.current == &t && !cs.switching) flush_one_pending(cpu);
  }
}

// ---- audited state transitions ---------------------------------------------------

void Kernel::mask_irqs(hw::CpuId cpu) {
  CpuState& cs = cpu_mut(cpu);
  if (cs.irq_off_depth++ == 0) {
    cs.irq_off_since = engine_.now();
    auditor_.irqs_masked(cpu, engine_.now());
  }
}

void Kernel::unmask_irqs(hw::CpuId cpu) {
  CpuState& cs = cpu_mut(cpu);
  SIM_ASSERT(cs.irq_off_depth > 0);
  if (--cs.irq_off_depth == 0) {
    // Timeline record for masked windows long enough to matter (≥ 1 µs):
    // sub-microsecond mask/unmask pairs are ubiquitous and would flood the
    // ring without explaining any tail sample.
    const sim::Duration span = engine_.now() - cs.irq_off_since;
    if (span >= 1000) {
      engine_.flight_recorder().record(engine_.now(),
                                       telemetry::EventKind::kIrqOffSpan, cpu,
                                       clamp_i32(span));
    }
    auditor_.irqs_unmasked(cpu, engine_.now());
  }
}

void Kernel::preempt_count_inc(Task& t) {
  // Non-preemptible stretches always belong to a running task that cannot
  // move CPUs until the count drops, so the interval is per-CPU pairable.
  if (t.preempt_count++ == 0 && t.cpu >= 0) {
    auditor_.preempt_disabled(t.cpu, engine_.now());
  }
}

void Kernel::preempt_count_dec(Task& t) {
  SIM_ASSERT(t.preempt_count > 0);
  if (--t.preempt_count == 0 && t.cpu >= 0) {
    auditor_.preempt_enabled(t.cpu, engine_.now());
  }
}

}  // namespace kernel
