// Interrupt-delivery mechanism layer.
//
// The hardware edges (hw::InterruptController device vectors, hw::LocalTimer
// ticks) no longer call into kernel::Kernel directly: they deliver into an
// IrqPipeline, the stage descriptor that decides *which kernel* services the
// interrupt. Two mechanisms exist:
//
//   * InBandPipeline — the paper's world. Every delivery lands in the
//     ordinary in-band kernel: hardirq frames, softirq bottom halves,
//     spinlock/BKL sections, the scheduler. This is a pure extraction of the
//     pre-refactor dispatch path and is bit-identical to it.
//   * OobPipeline — the dual-kernel rival (Dovetail/RROS-style out-of-band
//     stage). A second, minimal scheduler runs adopted RT tasks and adopted
//     IRQ lines *ahead of* the whole in-band kernel: no interrupt masking,
//     no runqueue, no spinlocks — in-band activity (softirqs, BKL holders,
//     storms) simply cannot delay it. Execution time spent in the oob stage
//     is charged back to the in-band CPU as a stall (kVectorOobStage),
//     modelling the cycles the oob core steals.
//
// The pipeline also owns the one shared piece of dispatch bookkeeping
// (note_dispatch): the flight-recorder dispatch event and the latency
// chain's irq-raise segment are written at the same call, by whichever
// stage services the vector, so the ring and the chain agree by
// construction instead of by parallel hand-rolled call sites.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "hw/types.h"
#include "kernel/kernel_ops.h"
#include "sim/time.h"
#include "sim/trace.h"

namespace kernel {

class Kernel;
struct Task;

/// Which delivery mechanism a kernel runs. kInBand is the default and the
/// only mechanism whose outputs are covered by the paper-reproduction
/// byte-identity gates.
enum class MechanismKind : std::uint8_t { kInBand, kOob };

[[nodiscard]] const char* to_string(MechanismKind kind);

class IrqPipeline {
 public:
  explicit IrqPipeline(Kernel& kernel) : k_(kernel) {}
  virtual ~IrqPipeline() = default;
  IrqPipeline(const IrqPipeline&) = delete;
  IrqPipeline& operator=(const IrqPipeline&) = delete;

  [[nodiscard]] virtual MechanismKind kind() const = 0;

  /// A device vector arrived from the InterruptController (post wire
  /// delay). The pipeline decides which stage services it.
  virtual void device_irq(hw::CpuId cpu, hw::Irq irq) = 0;

  /// The per-CPU local timer ticked.
  virtual void timer_tick(hw::CpuId cpu) = 0;

  /// Whether this task executes on the oob stage (never true in-band).
  [[nodiscard]] virtual bool owns(const Task& t) const;

  /// Whether this IRQ line is adopted by the oob stage.
  [[nodiscard]] virtual bool owns_irq(int irq) const;

  /// A stage-owned task became runnable (wakeup, boot, fork adoption).
  /// Only called for tasks where owns() is true.
  virtual void on_runnable(Task& t);

  /// Shared dispatch bookkeeping, called exactly once per delivered vector
  /// by whichever stage services it: records the flight-recorder dispatch
  /// event, collects the pending latency chain opened at raise time and
  /// marks its irq-raise segment. Returns the chain (invalid for pseudo
  /// vectors or when tracing is off).
  sim::ChainId note_dispatch(hw::CpuId cpu, int vector);

 protected:
  Kernel& k_;
};

/// The ordinary in-band kernel: a pure pass-through into the pre-refactor
/// dispatch path. Constructing a Kernel installs this mechanism.
class InBandPipeline final : public IrqPipeline {
 public:
  explicit InBandPipeline(Kernel& kernel) : IrqPipeline(kernel) {}
  [[nodiscard]] MechanismKind kind() const override {
    return MechanismKind::kInBand;
  }
  void device_irq(hw::CpuId cpu, hw::Irq irq) override;
  void timer_tick(hw::CpuId cpu) override;
};

/// The out-of-band stage: a minimal second scheduler for adopted RT tasks
/// and adopted IRQ lines. Adopted interrupts dispatch in a fixed
/// oob_dispatch_cost with no masking or frames; adopted tasks run their
/// kernel programs on the stage directly (spinlock/BKL/preempt ops are
/// no-ops — the stage itself is the serialization domain; softirqs raised
/// by oob handlers stay in-band-deferrable). Kernel timers whose wait queue
/// an adopted task blocks on are captured onto a hardware-timer fast path
/// with exact (unquantized) expiries. Every nanosecond executed on the
/// stage is charged to the underlying CPU as an in-band stall.
class OobPipeline final : public IrqPipeline {
 public:
  explicit OobPipeline(Kernel& kernel);

  [[nodiscard]] MechanismKind kind() const override {
    return MechanismKind::kOob;
  }
  void device_irq(hw::CpuId cpu, hw::Irq irq) override;
  void timer_tick(hw::CpuId cpu) override;
  [[nodiscard]] bool owns(const Task& t) const override;
  [[nodiscard]] bool owns_irq(int irq) const override;
  void on_runnable(Task& t) override;

  /// Move a task onto the oob stage. Legal only for tasks that have not
  /// started (kNew): started tasks cannot migrate stages.
  void adopt_task(Task& t);

  /// Route an IRQ line to the oob stage.
  void adopt_irq(int irq);

  // Stage statistics (also exported as oob.* telemetry gauges).
  [[nodiscard]] std::uint64_t dispatches() const { return dispatches_; }
  [[nodiscard]] std::uint64_t switches() const { return switches_; }
  [[nodiscard]] std::uint64_t timer_fires() const { return timer_fires_; }
  [[nodiscard]] sim::Duration stall_ns() const { return stall_ns_; }

 private:
  /// Per-adopted-task execution context. Stable address (unique_ptr'd):
  /// engine callbacks capture pointers to it, which the snapshot layer's
  /// in-place restore keeps valid.
  struct Context {
    Task* task = nullptr;
    hw::CpuId cpu = 0;          ///< CPU whose cycles the stage steals
    sim::Duration span = 0;     ///< length of the in-flight timed span
  };

  Context* context_of(const Task* t);
  void advance(Context& c);
  void begin_span(Context& c, sim::Duration d);
  void end_span(Context& c);
  void switch_in(Context& c);
  void finish_dispatch(hw::CpuId cpu, hw::Irq irq, sim::ChainId chain);
  void maybe_capture_timer(Context& c, WaitQueueId wq);
  void oob_timer_fire(int timer_id, hw::CpuId cpu);
  void charge_stall(hw::CpuId cpu, sim::Duration d);

  std::vector<std::unique_ptr<Context>> contexts_;
  std::vector<int> irqs_;
  std::vector<int> captured_timers_;
  std::uint64_t dispatches_ = 0;
  std::uint64_t switches_ = 0;
  std::uint64_t timer_fires_ = 0;
  sim::Duration stall_ns_ = 0;
};

}  // namespace kernel
