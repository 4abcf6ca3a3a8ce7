// Task (process/thread) model.
#pragma once

#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "hw/cpu_mask.h"
#include "hw/types.h"
#include "kernel/kernel_ops.h"
#include "sim/time.h"
#include "sim/trace.h"

namespace kernel {

class Kernel;

using Pid = int;

enum class SchedPolicy { kOther, kFifo, kRr };
enum class TaskState { kNew, kReady, kRunning, kBlocked, kExited };

const char* to_string(SchedPolicy p);
const char* to_string(TaskState s);

// ---- user-level actions ------------------------------------------------------

/// Burn CPU in user space (always preemptible).
struct ComputeAction {
  sim::Duration work;
  double memory_intensity = 0.2;
};

/// Enter the kernel and run `program`.
struct SyscallAction {
  KernelProgram program;
};

/// nanosleep()-style sleep. Without the POSIX-timers patch the wakeup is
/// rounded up to the next local-timer tick.
struct SleepAction {
  sim::Duration duration;
};

/// Terminate the task.
struct ExitAction {};

using Action = std::variant<ComputeAction, SyscallAction, SleepAction, ExitAction>;

/// A task's user-level program: called each time the previous action
/// finishes to obtain the next one.
class Behavior {
 public:
  virtual ~Behavior() = default;
  virtual Action next_action(Kernel& kernel, Task& task) = 0;
};

// ---- execution frames ---------------------------------------------------------

/// One level of a task's (possibly paused) execution stack. The bottom frame
/// is user compute or kernel work; a SpinWait frame sits on top while the
/// task spins for a contended lock.
struct TaskFrame {
  enum class Kind {
    kUserCompute,
    kKernelWork,
    kSpinWait,
    kFault,  ///< page-fault handling interposed on user compute
  };
  Kind kind;
  sim::Duration remaining = 0;     ///< work left (compute/kernel work)
  double memory_intensity = 0.2;
  LockId lock = LockId::kCount;    ///< for kSpinWait
  /// kSpinWait only: this spin is the implicit BKL reacquisition after a
  /// sleep, not an OpLock — the program counter must not advance on grant.
  bool bkl_reacquire = false;
};

// ---- the task struct -----------------------------------------------------------

struct Task {
  Pid pid = 0;
  std::string name;

  SchedPolicy policy = SchedPolicy::kOther;
  int rt_priority = 0;  ///< 1..99 for FIFO/RR
  int nice = 0;         ///< -20..19 for OTHER

  /// Affinity the task asked for (sched_setaffinity) and the mask actually
  /// used after shield interaction (§3 semantics).
  hw::CpuMask user_affinity;
  hw::CpuMask effective_affinity;

  TaskState state = TaskState::kNew;
  hw::CpuId cpu = -1;       ///< CPU currently on (running) or last ran on
  bool mlocked = false;     ///< mlockall'd: no page-fault jitter

  std::unique_ptr<Behavior> behavior;

  /// Nominal memory intensity of this task's working set (informational;
  /// the per-action/per-op values are what the execution model samples).
  double nominal_memory_intensity = 0.2;

  // -- in-kernel execution state --
  bool in_syscall = false;
  KernelProgram program;
  std::size_t pc = 0;
  std::vector<TaskFrame> frames;
  int preempt_count = 0;       ///< locks held + explicit disables
  int bkl_depth = 0;           ///< BKL recursion (dropped across sleeps)
  int irq_disable_depth = 0;   ///< irq-safe locks held by this task
  WaitQueueId waiting_on = kNoWaitQueue;
  bool needs_bkl_reacquire = false;  ///< woke up owing a BKL reacquisition

  // -- scheduling bookkeeping --
  sim::Duration timeslice_remaining = 0;
  bool on_runqueue = false;
  /// Set at wakeup, cleared at the first subsequent dispatch: marks that
  /// the next switch-in measures true wakeup→run scheduling latency (a
  /// preempted task being re-dispatched does not).
  bool freshly_woken = false;

  // -- accounting --
  std::uint64_t ctx_switches = 0;
  std::uint64_t migrations = 0;
  std::uint64_t syscalls = 0;
  sim::Duration utime = 0;   ///< user time (precise, from segment accounting)
  sim::Duration stime = 0;   ///< system time
  sim::Time last_wake = 0;   ///< when last made runnable
  sim::Time spin_started_at = 0;  ///< when the current spin-wait began

  /// Latency chain riding on this task: attached by the wakeup that made it
  /// runnable, closed (or superseded) when the task reaches its observation
  /// point. Invalid when chain tracing is off.
  sim::ChainId chain{};

  /// Static priority for preemption decisions: FIFO/RR beat OTHER; higher
  /// rt_priority beats lower; among OTHER, lower nice is higher.
  [[nodiscard]] int static_priority() const {
    if (policy == SchedPolicy::kOther) return 19 - nice;  // 0..39
    return 100 + rt_priority;                             // 101..199
  }

  [[nodiscard]] bool is_rt() const { return policy != SchedPolicy::kOther; }

  /// True when the task is executing pure user code (no syscall in flight
  /// and not inside a page-fault handler).
  [[nodiscard]] bool in_user_mode() const {
    if (in_syscall) return false;
    return frames.empty() || frames.back().kind == TaskFrame::Kind::kUserCompute;
  }

  // -- fault accounting --
  std::uint64_t minor_faults = 0;
  /// Tick-sampled CPU time (what `/proc/<pid>/stat` reports): counts local
  /// timer ticks that landed while this task ran. Shielding a CPU from the
  /// local timer freezes these — the §3 accounting trade-off.
  std::uint64_t utime_ticks = 0;
  std::uint64_t stime_ticks = 0;
};

}  // namespace kernel
