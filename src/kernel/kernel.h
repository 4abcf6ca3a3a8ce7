// The kernel model: tasks, scheduling, interrupts, locks, softirqs,
// syscalls.
//
// One Kernel instance models one booted machine. The execution machinery
// (segments, frames, preemption) lives in cpu_exec.cpp; setup, wakeups,
// locks and softirq policy live in kernel.cpp. Everything is driven by the
// shared sim::Engine — the kernel never advances time itself.
//
// Execution invariants:
//  * A CPU runs at most one timed "segment" at a time, belonging to the top
//    of its stack: context switch > top interrupt frame > current task's
//    top frame.
//  * Task frames (user compute / kernel work / spin-wait) persist across
//    preemption; interrupt frames belong to the CPU and must drain before a
//    context switch can happen (as in real Linux).
//  * Preemption policy is exactly the paper's taxonomy: user code is always
//    preemptible; kernel code is never preemptible on vanilla 2.4, and is
//    preemptible outside critical sections (preempt_count == 0) with the
//    preemption patch.
#pragma once

#include <array>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "config/kernel_config.h"
#include "hw/cpu_mask.h"
#include "hw/interrupt_controller.h"
#include "hw/local_timer.h"
#include "hw/memory_system.h"
#include "hw/topology.h"
#include "hw/types.h"
#include "kernel/irq_pipeline.h"
#include "kernel/kernel_ops.h"
#include "kernel/latency_auditor.h"
#include "kernel/procfs.h"
#include "kernel/scheduler.h"
#include "kernel/softirq.h"
#include "kernel/spinlock.h"
#include "kernel/task.h"
#include "kernel/wait_queue.h"
#include "sim/assert.h"
#include "sim/engine.h"

namespace telemetry {
class BlameCollector;
}  // namespace telemetry

namespace kernel {

/// Pseudo interrupt vectors for CPU-local events that bypass the IO-APIC.
inline constexpr int kVectorLocalTimer = -1;
inline constexpr int kVectorReschedIpi = -2;
/// SMI-like stall injected by fault::Injector: unmaskable by shielding,
/// consumes the CPU's accumulated stall budget (see inject_cpu_stall).
inline constexpr int kVectorSmi = -3;
/// Cycles stolen from the in-band kernel by out-of-band stage execution
/// (OobPipeline). Like an SMI: unmaskable by shielding, budget-based, but
/// accounted separately so oob interference is visible as its own counter.
inline constexpr int kVectorOobStage = -4;

/// A registered device interrupt handler: sampled top-half cost plus
/// effects applied when the handler completes (wakeups, softirq raises).
struct IrqHandler {
  std::string name;
  sim::Duration cost_min = 1 * sim::kMicrosecond;
  sim::Duration cost_max = 3 * sim::kMicrosecond;
  std::function<void(Kernel&, hw::CpuId)> effects;
};

/// An interrupt-context execution frame on a CPU.
struct IrqFrame {
  enum class Kind { kHardirq, kSoftirq };
  Kind kind = Kind::kHardirq;
  int vector = 0;  ///< IRQ number or pseudo vector
  sim::Duration remaining = 0;
  double memory_intensity = 0.4;
  sim::ChainId chain{};       ///< latency chain taken from the controller
  sim::Time started_at = 0;   ///< frame entry time, for flight span records
};

/// Per-CPU kernel state.
struct CpuState {
  hw::CpuId id = -1;
  Task* current = nullptr;
  std::vector<IrqFrame> irq_frames;
  std::vector<int> pending_vectors;  ///< raised while interrupts were masked
  int irq_off_depth = 0;             ///< > 0: interrupts masked
  sim::Time irq_off_since = 0;       ///< depth 0→1 transition time
  bool need_resched = false;

  // Active timed segment (for the top frame or the context switch).
  sim::EventId seg_end{};
  sim::Time seg_start = 0;
  double seg_dilation = 1.0;
  sim::Duration seg_span = 0;  ///< work covered by this segment
  bool seg_active = false;

  // Context switch in flight.
  bool switching = false;
  Task* switch_from = nullptr;  ///< informational

  SoftirqPending softirq;
  int softirq_restarts = 0;
  Task* ksoftirqd = nullptr;
  WaitQueueId ksoftirqd_wq = kNoWaitQueue;

  // Accounting.
  sim::Duration irq_time = 0;
  sim::Duration softirq_time = 0;
  std::uint64_t switches = 0;
  std::uint64_t hardirqs = 0;
  sim::Duration spin_wait_time = 0;  ///< time tasks on this CPU spun on locks
  sim::Duration bkl_hold_time = 0;   ///< time the BKL was held from this CPU
  sim::Duration smi_stall_budget = 0;  ///< pending injected SMI stall time
  std::uint64_t smi_stalls = 0;        ///< injected stalls taken
  sim::Duration oob_stall_budget = 0;  ///< pending oob-stage steal time
  std::uint64_t oob_preemptions = 0;   ///< oob-stage stall frames taken

  [[nodiscard]] bool irqs_enabled() const { return irq_off_depth == 0; }
};

/// One per-CPU latency counter exposed through `/proc/latency/cpuN`. `key`
/// is the procfs field name; `series` is the telemetry-registry metric it
/// renders from, so procfs, the registry's Prometheus text and stat's
/// telemetry-v1 document agree by construction.
struct LatencyCounterView {
  const char* key;
  const char* series;
};
[[nodiscard]] const std::vector<LatencyCounterView>& latency_counter_views();

class Kernel {
 public:
  Kernel(sim::Engine& engine, const hw::Topology& topo, hw::MemorySystem& mem,
         hw::InterruptController& ic, config::KernelConfig cfg);
  ~Kernel();

  Kernel(const Kernel&) = delete;
  Kernel& operator=(const Kernel&) = delete;

  // ---- setup ---------------------------------------------------------------

  struct TaskParams {
    std::string name = "task";
    SchedPolicy policy = SchedPolicy::kOther;
    int rt_priority = 0;
    int nice = 0;
    hw::CpuMask affinity;  ///< empty = all CPUs
    bool mlocked = false;
    double memory_intensity = 0.2;
  };

  /// Create a task; it becomes runnable when `start()` has been called (or
  /// immediately if the kernel is already running).
  Task& create_task(TaskParams params, std::unique_ptr<Behavior> behavior);

  /// Reap exited tasks: remove them (and their /proc files) from the
  /// system. Invalidates Task pointers to the reaped tasks — callers that
  /// cache pointers must not reap. Returns how many were collected.
  std::size_t reap_exited();

  void register_irq_handler(hw::Irq irq, IrqHandler handler);
  /// Whether a driver has claimed this line (fault injection uses this to
  /// avoid raising spurious interrupts on unclaimed lines, which the model
  /// treats as a fatal "no registered handler" condition).
  [[nodiscard]] bool irq_handler_registered(hw::Irq irq) const;

  /// Fault hook: steal `stall` of CPU time via an SMI-like frame —
  /// unmaskable, invisible to the scheduler, survives shielding (real SMIs
  /// do). Safe while the CPU has interrupts masked: the stall is budgeted
  /// and taken when interrupts re-enable.
  void inject_cpu_stall(hw::CpuId cpu, sim::Duration stall);

  /// Boot: spawn ksoftirqd threads, arm local timers, make created tasks
  /// runnable, hook the interrupt controller.
  void start();
  [[nodiscard]] bool started() const { return started_; }

  // ---- administrative plane (zero simulated time) ---------------------------

  /// sched_setaffinity(): records the requested mask and applies shield
  /// semantics. Fails (like EINVAL) on an empty or fully-invalid mask.
  bool sched_setaffinity(Task& t, hw::CpuMask mask);

  /// sched_setscheduler().
  void set_policy(Task& t, SchedPolicy policy, int rt_priority);

  /// Shield mask for processes (set by shield::ShieldController only).
  void set_process_shield_mask(hw::CpuMask mask);
  [[nodiscard]] hw::CpuMask process_shield_mask() const { return proc_shield_; }

  /// Recompute every task's effective affinity against the current shield
  /// mask, migrating queued/running tasks off CPUs they may no longer use.
  void reapply_affinities();

  ProcFs& procfs() { return procfs_; }

  /// Read one latency counter as the procfs/JSON views render it (a thin
  /// lookup into the engine's telemetry registry).
  [[nodiscard]] std::uint64_t latency_counter(std::string_view series,
                                              hw::CpuId cpu) const;

  /// Zero every latency counter so a reused kernel starts a second
  /// measurement run from a clean slate: per-CPU accounting, softirq raise
  /// counts, lock statistics, auditor histograms, interrupt-controller
  /// raise/delivery counts, and the registry's owned counters/histograms.
  /// Pending work (softirq backlog, held locks, queued irqs) is untouched.
  void reset_latency_counters();

  // ---- for drivers and workload effects -------------------------------------

  WaitQueueId create_wait_queue(std::string name);
  WaitQueue& wait_queue(WaitQueueId id);

  // ---- kernel timers (the POSIX-timers patch surface, §4) --------------------

  using TimerId = int;

  /// Arm a periodic timer that wakes everyone on `wq` each period. Without
  /// the POSIX-timers patch, expirations are quantized up to the next
  /// 10 ms jiffy boundary (classic 2.4 itimers); with it they are exact.
  TimerId arm_periodic_timer(WaitQueueId wq, sim::Duration period);

  /// Disarm; idempotent.
  void cancel_timer(TimerId id);

  [[nodiscard]] std::uint64_t timer_expirations(TimerId id) const;
  /// Instant of the timer's most recent expiry (0 before the first).
  [[nodiscard]] sim::Time timer_last_expiry(TimerId id) const;

  /// Wake the longest sleeper / all sleepers on a queue.
  void wake_up_one(WaitQueueId id);
  void wake_up_all(WaitQueueId id);

  /// Queue bottom-half work on a CPU (normally the CPU the irq ran on).
  void raise_softirq(hw::CpuId cpu, SoftirqType type, sim::Duration work);

  SpinLock& lock(LockId id);

  [[nodiscard]] sim::Time now() const { return engine_.now(); }
  sim::Engine& engine() { return engine_; }
  sim::Rng& rng() { return rng_; }
  [[nodiscard]] const config::KernelConfig& config() const { return cfg_; }
  [[nodiscard]] const hw::Topology& topology() const { return topo_; }
  hw::InterruptController& interrupt_controller() { return ic_; }
  hw::LocalTimer& local_timer() { return *local_timer_; }

  // ---- delivery mechanism ---------------------------------------------------

  /// Switch the interrupt-delivery mechanism. Only the inband→oob
  /// transition is supported (a stage, once brought up, stays up for the
  /// kernel's lifetime); selecting the current mechanism is a no-op. Legal
  /// before or after start().
  void set_mechanism(MechanismKind kind);
  [[nodiscard]] MechanismKind mechanism() const { return pipeline_->kind(); }
  IrqPipeline& pipeline() { return *pipeline_; }

  /// Sample a critical-section hold time from this kernel's distribution
  /// (vanilla: heavy tail to tens of ms; low-latency: capped near 1 ms).
  sim::Duration sample_section();
  /// Sample non-critical in-kernel work for a generic syscall body.
  sim::Duration sample_syscall_body(sim::Duration typical);

  // ---- introspection ----------------------------------------------------------

  [[nodiscard]] const CpuState& cpu(hw::CpuId id) const {
    SIM_ASSERT(topo_.valid_cpu(id));
    return cpus_[static_cast<std::size_t>(id)];
  }
  [[nodiscard]] int ncpus() const { return topo_.logical_cpus(); }
  [[nodiscard]] bool cpu_busy(hw::CpuId id) const {
    const CpuState& cs = cpu(id);
    return cs.current != nullptr || !cs.irq_frames.empty() || cs.switching;
  }
  [[nodiscard]] bool cpu_idle(hw::CpuId id) const { return !cpu_busy(id); }
  [[nodiscard]] const std::vector<std::unique_ptr<Task>>& tasks() const {
    return tasks_;
  }
  Task* find_task(Pid pid);
  Task* find_task(const std::string& name);

  // ---- internals shared between kernel.cpp and cpu_exec.cpp -----------------
  // (public to the library's .cpp files, not part of the user-facing API)

  void deliver_vector(hw::CpuId cpu, int vector);
  void make_runnable(Task& t);
  void check_preempt(hw::CpuId cpu, Task& woken);
  void dispatch(hw::CpuId cpu);
  void preempt_current(hw::CpuId cpu);
  void start_segment(hw::CpuId cpu);
  void pause_segment(hw::CpuId cpu);
  void on_segment_end(hw::CpuId cpu);
  void run_program(hw::CpuId cpu);
  void next_action(hw::CpuId cpu);
  void resume_task(hw::CpuId cpu);
  void begin_hardirq(hw::CpuId cpu, int vector);
  void finish_irq_frame(hw::CpuId cpu);
  bool flush_one_pending(hw::CpuId cpu);
  void irq_stack_empty(hw::CpuId cpu);
  void do_softirq(hw::CpuId cpu);
  void block_current(hw::CpuId cpu, WaitQueueId wq);
  void finish_syscall(hw::CpuId cpu);
  void begin_switch(hw::CpuId cpu);
  void finish_switch(hw::CpuId cpu);
  bool acquire_lock(hw::CpuId cpu, Task& t, LockId id, bool bkl_reacquire = false);
  void release_lock(hw::CpuId cpu, Task& t, LockId id);
  void local_timer_tick(hw::CpuId cpu);
  void preempt_enable_check(hw::CpuId cpu);
  [[nodiscard]] bool kernel_preemptible(const Task& t) const;
  CpuState& cpu_mut(hw::CpuId id) {
    SIM_ASSERT(topo_.valid_cpu(id));
    return cpus_[static_cast<std::size_t>(id)];
  }
  void account_segment(hw::CpuId cpu, sim::Duration elapsed);
  void wake_task(Task& t);
  /// Adjust per-CPU interrupt masking depth; auditor hooks fire on the
  /// 0↔1 transitions.
  void mask_irqs(hw::CpuId cpu);
  void unmask_irqs(hw::CpuId cpu);
  /// Adjust a running task's preempt_count with auditor hooks.
  void preempt_count_inc(Task& t);
  void preempt_count_dec(Task& t);
  /// Holdoff and scheduling-latency instrumentation (the preempt-off /
  /// irq-off tracer equivalent).
  LatencyAuditor& auditor() { return auditor_; }
  void sleep_current_until(hw::CpuId cpu, sim::Time wake_at);
  [[nodiscard]] sim::Duration round_sleep(sim::Duration requested) const;
  Scheduler& scheduler() { return *sched_; }

  /// Close the latency chain riding on `t` (attached by the wakeup that made
  /// it runnable) at the current time, stamping the trailing in-kernel work
  /// as kernel-exit, and offer the completed chain to the blame collector.
  /// No-op when chain tracing is off / no chain was attached. rt tests call
  /// this from their behaviors at each sample's observation point.
  void finish_latency_chain(Task& t);

  /// Attach (or detach, with nullptr) the blame collector that observes
  /// every latency chain closed through finish_latency_chain. Strictly
  /// passive — the collector only copies the completed chain.
  void set_blame_collector(telemetry::BlameCollector* collector) {
    blame_ = collector;
  }
  [[nodiscard]] telemetry::BlameCollector* blame_collector() const {
    return blame_;
  }

  /// Consume the wakeup-attribution window onto `t`: mark the pending
  /// chain's current segment and hand the chain to the task. No-op when no
  /// window is open, or when the window is oob-restricted and `t` is not a
  /// stage-owned task.
  void take_wake_chain(Task& t);

 private:
  friend class OobPipeline;


  void spawn_ksoftirqd(hw::CpuId cpu);
  void register_proc_files();
  void register_telemetry();

  sim::Engine& engine_;
  const hw::Topology& topo_;
  hw::MemorySystem& mem_;
  hw::InterruptController& ic_;
  config::KernelConfig cfg_;
  sim::Rng rng_;

  std::unique_ptr<Scheduler> sched_;
  std::unique_ptr<hw::LocalTimer> local_timer_;
  std::vector<CpuState> cpus_;
  std::vector<std::unique_ptr<Task>> tasks_;
  std::array<SpinLock, static_cast<std::size_t>(LockId::kCount)> locks_;
  std::vector<std::unique_ptr<WaitQueue>> wait_queues_;
  std::array<IrqHandler, hw::kMaxIrq> irq_handlers_{};
  hw::CpuMask proc_shield_;
  ProcFs procfs_;
  LatencyAuditor auditor_;
  /// Registry-owned counter: ns of lock hold time released from each CPU
  /// (all locks; the only latency counter with no pre-existing CpuState
  /// field, so it lives in the registry directly).
  telemetry::Registry::Counter lock_hold_counter_;
  Pid next_pid_ = 1;
  bool started_ = false;
  telemetry::BlameCollector* blame_ = nullptr;

  /// Wakeup-attribution window: set around irq-handler effects and timer
  /// expiry processing so make_runnable can hand the in-flight latency
  /// chain to the first task the wakeup makes runnable.
  sim::ChainId wake_chain_{};
  sim::SegmentKind wake_chain_kind_ = sim::SegmentKind::kIrqHandler;
  hw::CpuId wake_chain_cpu_ = -1;
  /// When true the open window may only be consumed by oob-stage tasks
  /// (oob handler effects can wake in-band helpers — e.g. ksoftirqd via a
  /// deferred softirq raise — which must not steal the stage's chain).
  bool wake_chain_oob_only_ = false;

  /// The active delivery mechanism; hw edges route through it. Never null.
  std::unique_ptr<IrqPipeline> pipeline_;

  struct KernelTimer {
    WaitQueueId wq = kNoWaitQueue;
    sim::Duration period = 0;
    sim::EventId pending{};
    std::uint64_t expirations = 0;
    sim::Time last_expiry = 0;
    bool armed = false;
  };
  void timer_fire(TimerId id);
  [[nodiscard]] sim::Time quantize_expiry(sim::Time ideal) const;
  std::vector<KernelTimer> timers_;
};

}  // namespace kernel
