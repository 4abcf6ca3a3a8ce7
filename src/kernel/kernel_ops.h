// Kernel-path programs.
//
// A syscall (or kernel-thread body) is modelled as a small program of ops:
// timed kernel work, spinlock acquire/release, explicit preemption control,
// blocking on a wait queue, and zero-time side effects (submit disk I/O,
// raise a softirq, ...). Drivers and workloads build these programs; the
// executor in cpu_exec.cpp runs them with the configured preemption
// semantics. This is what makes "a critical section of 40 ms inside cat()"
// and "an ioctl that skips the BKL" the same kind of object.
#pragma once

#include <functional>
#include <string>
#include <variant>
#include <vector>

#include "sim/time.h"

namespace kernel {

class Kernel;
struct Task;

/// Identities of the contended kernel locks in the model. Hold-time comes
/// from the op that guards the lock; identity determines *who contends*.
enum class LockId : int {
  kBkl = 0,     ///< Big Kernel Lock (special: dropped while sleeping)
  kFs,          ///< generic file-system / buffer-cache lock (not irq-safe)
  kDcache,      ///< dentry cache lock (not irq-safe)
  kRtc,         ///< RTC driver lock
  kSocket,      ///< socket/net stack lock (not irq-safe)
  kPipe,        ///< pipe/FIFO lock
  kMm,          ///< mm/page-table lock
  kIoRequest,   ///< block-layer request queue lock (irq-safe)
  kRcim,        ///< RCIM driver lock (irq-safe, multithreaded driver: tiny holds)
  kCount
};

const char* to_string(LockId id);

/// Index into the kernel's wait-queue table.
using WaitQueueId = int;
inline constexpr WaitQueueId kNoWaitQueue = -1;

enum class SoftirqType : int {
  kTimer = 0,
  kNetRx,
  kNetTx,
  kBlock,
  kTasklet,
  kCount
};

const char* to_string(SoftirqType t);

// ---- ops -------------------------------------------------------------------

/// Timed kernel work; preemptible between ops iff the kernel has the
/// preemption patch and no lock is held.
struct OpWork {
  sim::Duration duration;
  double memory_intensity = 0.35;
};

/// spin_lock(id). Spins (burning CPU) if contended.
struct OpLock {
  LockId lock;
};

/// spin_unlock(id).
struct OpUnlock {
  LockId lock;
};

/// preempt_disable() / preempt_enable() without a lock.
struct OpPreemptDisable {};
struct OpPreemptEnable {};

/// Block on a wait queue until wake_up. If the task holds the BKL it is
/// dropped across the sleep and reacquired on wakeup (2.4 semantics).
struct OpBlock {
  WaitQueueId wq;
};

/// Zero-time side effect executed inline (submit I/O, wake another queue,
/// raise a softirq, record a measurement).
struct OpEffect {
  std::function<void(Kernel&, Task&)> fn;
};

using KernelOp =
    std::variant<OpWork, OpLock, OpUnlock, OpPreemptDisable, OpPreemptEnable,
                 OpBlock, OpEffect>;

using KernelProgram = std::vector<KernelOp>;

/// Fluent builder so driver/workload code reads like annotated kernel paths:
///   ProgramBuilder{}.work(2_us).lock(LockId::kFs).work(hold).unlock(...)
class ProgramBuilder {
 public:
  /// Reserves room for the longest syscall path the builtin registry builds
  /// (15 ops), so building one costs a single allocation instead of one
  /// per doubling.
  ProgramBuilder() { ops_.reserve(kReserve); }

  ProgramBuilder& work(sim::Duration d, double mem = 0.35) {
    ops_.push_back(OpWork{d, mem});
    return *this;
  }
  ProgramBuilder& lock(LockId id) {
    ops_.push_back(OpLock{id});
    return *this;
  }
  ProgramBuilder& unlock(LockId id) {
    ops_.push_back(OpUnlock{id});
    return *this;
  }
  /// lock + hold work + unlock in one call.
  ProgramBuilder& section(LockId id, sim::Duration hold, double mem = 0.35) {
    return lock(id).work(hold, mem).unlock(id);
  }
  ProgramBuilder& preempt_off(sim::Duration hold, double mem = 0.35) {
    ops_.push_back(OpPreemptDisable{});
    ops_.push_back(OpWork{hold, mem});
    ops_.push_back(OpPreemptEnable{});
    return *this;
  }
  ProgramBuilder& block(WaitQueueId wq) {
    ops_.push_back(OpBlock{wq});
    return *this;
  }
  ProgramBuilder& effect(std::function<void(Kernel&, Task&)> fn) {
    ops_.push_back(OpEffect{std::move(fn)});
    return *this;
  }
  ProgramBuilder& append(const KernelProgram& other) {
    ops_.insert(ops_.end(), other.begin(), other.end());
    return *this;
  }

  /// Consumes the builder (chainable on temporaries and lvalues alike).
  [[nodiscard]] KernelProgram build() { return std::move(ops_); }
  [[nodiscard]] const KernelProgram& ops() const { return ops_; }

 private:
  static constexpr std::size_t kReserve = 16;

  KernelProgram ops_;
};

}  // namespace kernel
