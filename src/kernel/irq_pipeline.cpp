#include "kernel/irq_pipeline.h"

#include <algorithm>
#include <variant>

#include "kernel/kernel.h"
#include "kernel/task.h"
#include "sim/assert.h"

namespace kernel {

const char* to_string(MechanismKind kind) {
  switch (kind) {
    case MechanismKind::kInBand: return "inband";
    case MechanismKind::kOob: return "oob";
  }
  return "?";
}

// ---- shared dispatch bookkeeping -------------------------------------------------

bool IrqPipeline::owns(const Task& /*t*/) const { return false; }

bool IrqPipeline::owns_irq(int /*irq*/) const { return false; }

void IrqPipeline::on_runnable(Task& /*t*/) {
  SIM_UNREACHABLE("on_runnable on a pipeline that owns no tasks");
}

sim::ChainId IrqPipeline::note_dispatch(hw::CpuId cpu, int vector) {
  sim::Engine& eng = k_.engine();
  eng.flight_recorder().record(eng.now(), telemetry::EventKind::kIrqDispatch,
                               cpu, vector);
  if (vector < 0) return {};
  // One consumer per delivery: the chain leaves the controller here, so its
  // irq-raise segment covers wire delay plus any time the line sat pending.
  const sim::ChainId chain = k_.interrupt_controller().take_pending(vector);
  eng.chain_tracer().mark(chain, sim::SegmentKind::kIrqRaise, cpu, eng.now());
  return chain;
}

// ---- in-band ---------------------------------------------------------------------

void InBandPipeline::device_irq(hw::CpuId cpu, hw::Irq irq) {
  k_.deliver_vector(cpu, irq);
}

void InBandPipeline::timer_tick(hw::CpuId cpu) { k_.local_timer_tick(cpu); }

// ---- out-of-band -----------------------------------------------------------------

OobPipeline::OobPipeline(Kernel& kernel) : IrqPipeline(kernel) {
  // Registered here, not in Kernel::register_telemetry: an in-band kernel
  // must export exactly the pre-refactor series set (byte-identity gate),
  // so the oob series exist only when the stage does.
  telemetry::Registry& reg = k_.engine().telemetry();
  reg.gauge("oob.dispatches", "interrupts taken by the oob stage", 1, "",
            [this](int) { return dispatches_; });
  reg.gauge("oob.switches", "oob-stage task switch-ins", 1, "",
            [this](int) { return switches_; });
  reg.gauge("oob.timer_fires", "oob hardware-timer fast-path expiries", 1, "",
            [this](int) { return timer_fires_; });
  reg.gauge("oob.stall_ns", "ns the stage stole from the in-band kernel", 1,
            "", [this](int) { return stall_ns_; });
  reg.gauge("kernel.oob_preemptions", "oob-stage stall frames taken",
            k_.ncpus(), "cpu",
            [this](int c) { return k_.cpu(c).oob_preemptions; });
}

bool OobPipeline::owns(const Task& t) const {
  for (const auto& c : contexts_) {
    if (c->task == &t) return true;
  }
  return false;
}

bool OobPipeline::owns_irq(int irq) const {
  return std::find(irqs_.begin(), irqs_.end(), irq) != irqs_.end();
}

OobPipeline::Context* OobPipeline::context_of(const Task* t) {
  for (auto& c : contexts_) {
    if (c->task == t) return c.get();
  }
  return nullptr;
}

void OobPipeline::adopt_task(Task& t) {
  SIM_ASSERT_MSG(context_of(&t) == nullptr, "task already on the oob stage");
  SIM_ASSERT_MSG(t.state == TaskState::kNew,
                 "only tasks that have not started can move to the oob stage");
  contexts_.push_back(std::make_unique<Context>());
  Context& c = *contexts_.back();
  c.task = &t;
  c.cpu = t.effective_affinity.empty() ? 0 : t.effective_affinity.first();
  // Boot's make_runnable hands the task to on_runnable.
}

void OobPipeline::adopt_irq(int irq) {
  SIM_ASSERT(irq >= 0 && irq < hw::kMaxIrq);
  SIM_ASSERT_MSG(k_.irq_handler_registered(irq),
                 "adopting an IRQ line with no registered handler");
  if (!owns_irq(irq)) irqs_.push_back(irq);
}

void OobPipeline::charge_stall(hw::CpuId cpu, sim::Duration d) {
  if (d == 0) return;
  stall_ns_ += d;
  k_.engine().flight_recorder().record(
      k_.engine().now(), telemetry::EventKind::kOobStage, cpu,
      static_cast<std::int32_t>(
          std::min<sim::Duration>(d, 0x7fffffff)));
  // Same budget-and-coalesce shape as inject_cpu_stall: the in-band CPU
  // loses the cycles the stage executed, taken as an unmaskable frame when
  // its interrupts are (re-)enabled.
  k_.cpu_mut(cpu).oob_stall_budget += d;
  k_.deliver_vector(cpu, kVectorOobStage);
}

// -- delivery ----------------------------------------------------------------------

void OobPipeline::device_irq(hw::CpuId cpu, hw::Irq irq) {
  if (!owns_irq(irq)) {
    k_.deliver_vector(cpu, irq);  // everything else stays in-band
    return;
  }
  // The stage takes the interrupt immediately: in-band masking, frames and
  // softirqs are invisible to it. Fixed dispatch cost, no RNG.
  const sim::ChainId chain = note_dispatch(cpu, irq);
  dispatches_++;
  const sim::Duration dispatch = k_.config().oob_dispatch_cost;
  charge_stall(cpu, dispatch);
  k_.engine().schedule(
      dispatch, [this, cpu, irq, chain] { finish_dispatch(cpu, irq, chain); });
}

void OobPipeline::finish_dispatch(hw::CpuId cpu, hw::Irq irq,
                                  sim::ChainId chain) {
  const IrqHandler& h = k_.irq_handlers_[static_cast<std::size_t>(irq)];
  // Wakeup-attribution window, oob-restricted: handler effects may also
  // poke in-band machinery (deferred softirq raises wake ksoftirqd), and
  // those helpers must not steal the stage's chain.
  k_.wake_chain_ = chain;
  k_.wake_chain_kind_ = sim::SegmentKind::kOobDispatch;
  k_.wake_chain_cpu_ = cpu;
  k_.wake_chain_oob_only_ = true;
  if (h.effects) h.effects(k_, cpu);
  k_.engine().chain_tracer().abandon(k_.wake_chain_);
  k_.wake_chain_ = {};
  k_.wake_chain_oob_only_ = false;
}

void OobPipeline::timer_tick(hw::CpuId cpu) {
  // The per-CPU local timer (jiffies, timeslices, CPU accounting) is
  // in-band kernel business either way.
  k_.local_timer_tick(cpu);
}

// -- the stage scheduler -----------------------------------------------------------

void OobPipeline::on_runnable(Task& t) {
  Context* c = context_of(&t);
  SIM_ASSERT(c != nullptr);
  const sim::Time now = k_.engine().now();
  t.state = TaskState::kReady;
  t.on_runqueue = false;
  t.last_wake = now;
  t.freshly_woken = true;
  k_.take_wake_chain(t);
  switches_++;
  const sim::Duration cost = k_.config().oob_switch_cost;
  charge_stall(c->cpu, cost);
  k_.engine().schedule(cost, [this, c] { switch_in(*c); });
}

void OobPipeline::switch_in(Context& c) {
  Task& t = *c.task;
  const sim::Time now = k_.engine().now();
  k_.engine().chain_tracer().mark(t.chain, sim::SegmentKind::kOobSwitch, c.cpu,
                                  now);
  t.state = TaskState::kRunning;
  t.cpu = c.cpu;
  t.ctx_switches++;
  if (t.freshly_woken) {
    t.freshly_woken = false;
    k_.auditor().task_scheduled_in(t.last_wake, now, t.is_rt());
  }
  advance(c);
}

void OobPipeline::begin_span(Context& c, sim::Duration d) {
  SIM_ASSERT(d > 0);
  c.span = d;
  charge_stall(c.cpu, d);
  k_.engine().schedule(d, [this, &c] { end_span(c); });
}

void OobPipeline::end_span(Context& c) {
  Task& t = *c.task;
  if (t.in_syscall) {
    t.stime += c.span;
    t.pc++;  // the completed OpWork
  } else {
    t.utime += c.span;
  }
  c.span = 0;
  advance(c);
}

void OobPipeline::advance(Context& c) {
  Task& t = *c.task;
  while (true) {
    SIM_ASSERT(t.state == TaskState::kRunning);
    if (t.in_syscall) {
      if (t.pc >= t.program.size()) {
        // Return to user space. The stage's syscall path is its own trap
        // gate: no in-band entry/exit work is charged.
        t.in_syscall = false;
        t.program.clear();
        t.pc = 0;
        t.syscalls++;
        continue;
      }
      const KernelOp& op = t.program[t.pc];
      if (const auto* w = std::get_if<OpWork>(&op)) {
        if (w->duration <= 0) {
          t.pc++;
          continue;
        }
        begin_span(c, w->duration);
        return;
      }
      if (std::get_if<OpLock>(&op) != nullptr ||
          std::get_if<OpUnlock>(&op) != nullptr ||
          std::get_if<OpPreemptDisable>(&op) != nullptr ||
          std::get_if<OpPreemptEnable>(&op) != nullptr) {
        // Oob driver paths take no in-band spinlocks and need no preempt
        // control: the stage itself is the serialization domain, and
        // in-band contenders cannot spin it out anyway.
        t.pc++;
        continue;
      }
      if (const auto* b = std::get_if<OpBlock>(&op)) {
        t.pc++;
        maybe_capture_timer(c, b->wq);
        t.state = TaskState::kBlocked;
        t.waiting_on = b->wq;
        k_.wait_queue(b->wq).add(t);
        return;
      }
      const auto* e = std::get_if<OpEffect>(&op);
      SIM_ASSERT_MSG(e != nullptr, "unhandled kernel op on the oob stage");
      t.pc++;
      e->fn(k_, t);
      continue;
    }

    Action action = t.behavior->next_action(k_, t);
    if (const auto* cp = std::get_if<ComputeAction>(&action)) {
      if (cp->work <= 0) continue;
      begin_span(c, cp->work);
      return;
    }
    if (auto* s = std::get_if<SyscallAction>(&action)) {
      t.in_syscall = true;
      t.program = std::move(s->program);
      t.pc = 0;
      continue;
    }
    if (const auto* sl = std::get_if<SleepAction>(&action)) {
      // Exact wakeup: the stage's timer hardware is not jiffy-quantized.
      t.state = TaskState::kBlocked;
      t.waiting_on = kNoWaitQueue;
      Task* tp = &t;
      const sim::Time now = k_.engine().now();
      k_.engine().schedule_at(std::max(now + sl->duration, now + 1),
                              [this, tp] { k_.wake_task(*tp); });
      return;
    }
    SIM_ASSERT(std::get_if<ExitAction>(&action) != nullptr);
    k_.engine().chain_tracer().abandon(t.chain);
    t.chain = {};
    t.state = TaskState::kExited;
    return;
  }
}

// -- hardware-timer fast path ------------------------------------------------------

void OobPipeline::maybe_capture_timer(Context& c, WaitQueueId wq) {
  for (std::size_t i = 0; i < k_.timers_.size(); ++i) {
    Kernel::KernelTimer& kt = k_.timers_[i];
    const int id = static_cast<int>(i);
    if (!kt.armed || kt.wq != wq) continue;
    if (std::find(captured_timers_.begin(), captured_timers_.end(), id) !=
        captured_timers_.end()) {
      continue;
    }
    captured_timers_.push_back(id);
    // Move the timer off the in-band wheel: cancel the pending (possibly
    // jiffy-quantized) expiry and run exact periods from here. armed stays
    // true so cancel_timer / timer_expirations keep working.
    k_.engine().cancel(kt.pending);
    const sim::Time at =
        std::max(k_.engine().now() + kt.period, k_.engine().now() + 1);
    const hw::CpuId cpu = c.cpu;
    k_.engine().schedule_at(at, [this, id, cpu] { oob_timer_fire(id, cpu); });
  }
}

void OobPipeline::oob_timer_fire(int timer_id, hw::CpuId cpu) {
  Kernel::KernelTimer& kt = k_.timers_[static_cast<std::size_t>(timer_id)];
  if (!kt.armed) return;
  const sim::Time now = k_.engine().now();
  kt.expirations++;
  kt.last_expiry = now;
  timer_fires_++;
  // Expiry processing runs on the stage: fixed dispatch cost, then the
  // wakeup. No kTimer softirq — the in-band bottom half has no part here.
  const sim::Duration dispatch = k_.config().oob_dispatch_cost;
  charge_stall(cpu, dispatch);
  sim::ChainTracer& tracer = k_.engine().chain_tracer();
  sim::ChainId chain{};
  if (tracer.enabled()) chain = tracer.open("oob-timer", now);
  k_.engine().schedule(dispatch, [this, timer_id, cpu, chain] {
    Kernel::KernelTimer& t = k_.timers_[static_cast<std::size_t>(timer_id)];
    const WaitQueueId wq = t.wq;
    if (!t.armed) {
      k_.engine().chain_tracer().abandon(chain);
      return;
    }
    k_.wake_chain_ = chain;
    k_.wake_chain_kind_ = sim::SegmentKind::kTimerExpiry;
    k_.wake_chain_cpu_ = cpu;
    k_.wake_chain_oob_only_ = true;
    k_.wake_up_all(wq);
    k_.engine().chain_tracer().abandon(k_.wake_chain_);
    k_.wake_chain_ = {};
    k_.wake_chain_oob_only_ = false;
  });
  const sim::Time at = std::max(now + kt.period, now + 1);
  k_.engine().schedule_at(at,
                          [this, timer_id, cpu] { oob_timer_fire(timer_id, cpu); });
}

}  // namespace kernel
