// IO-APIC-like interrupt controller.
//
// Each IRQ line carries an affinity mask — the hardware half of the
// `/proc/irq/N/smp_affinity` interface the paper builds on. When a device
// raises a line, the controller picks one CPU from the mask (preferring an
// idle CPU, else rotating) and delivers after a short wire delay. Masked
// delivery (per-CPU interrupt disabling) is the kernel's job; the controller
// only routes.
#pragma once

#include <array>
#include <cstdint>
#include <functional>

#include "hw/cpu_mask.h"
#include "hw/topology.h"
#include "hw/types.h"
#include "sim/engine.h"

namespace hw {

class InterruptController {
 public:
  /// Called when an IRQ arrives at a CPU.
  using DeliverFn = std::function<void(CpuId, Irq)>;
  /// Lets routing prefer idle CPUs (lowest-priority delivery heuristic).
  using IdleQueryFn = std::function<bool(CpuId)>;
  /// Fault hook: invoked per raise, returns how many copies of the edge to
  /// deliver (0 = lost on the wire, 1 = normal, 2+ = ringing edge). The
  /// raise is still counted either way — the device did assert the line.
  using RaiseFilter = std::function<int(Irq)>;

  InterruptController(sim::Engine& engine, const Topology& topo);

  void set_deliver_fn(DeliverFn fn) { deliver_ = std::move(fn); }
  void set_idle_query(IdleQueryFn fn) { is_idle_ = std::move(fn); }
  /// Install (or clear, with nullptr) the fault-injection raise filter.
  void set_raise_filter(RaiseFilter fn) { raise_filter_ = std::move(fn); }
  /// Enable idle-CPU-preferring delivery (not the 2003 default; exposed for
  /// ablation studies of routing policy).
  void set_prefer_idle(bool on) { prefer_idle_ = on; }

  /// Program the line's affinity. An empty or invalid mask is clamped to
  /// all CPUs, as Linux does for smp_affinity writes with no online CPU.
  void set_affinity(Irq irq, CpuMask mask);
  [[nodiscard]] CpuMask affinity(Irq irq) const;

  /// Device edge: route and deliver after the wire delay.
  void raise(Irq irq);

  /// Detach the latency chain the most recent raise of this line opened
  /// (invalid id when chain tracing is off or the raise was already
  /// consumed). The dispatching pipeline calls this exactly once per
  /// delivery, so the chain's first segment covers wire delay plus any time
  /// the line sat masked.
  sim::ChainId take_pending(Irq irq);

  /// Total raises per line (for accounting like /proc/interrupts).
  [[nodiscard]] std::uint64_t raise_count(Irq irq) const;
  /// Deliveries per (line, cpu).
  [[nodiscard]] std::uint64_t delivery_count(Irq irq, CpuId cpu) const;
  /// Deliveries summed over CPUs.
  [[nodiscard]] std::uint64_t delivery_total(Irq irq) const;

  /// Zero raise/delivery accounting (routing state is untouched).
  void reset_counters();

  [[nodiscard]] const Topology& topology() const { return topo_; }

 private:
  CpuId route(Irq irq);

  sim::Engine& engine_;
  const Topology& topo_;
  sim::Rng rng_;
  DeliverFn deliver_;
  IdleQueryFn is_idle_;
  RaiseFilter raise_filter_;
  bool prefer_idle_ = false;
  std::array<CpuMask, kMaxIrq> affinity_{};
  std::array<CpuId, kMaxIrq> last_target_{};
  std::array<sim::ChainId, kMaxIrq> chains_{};  ///< pending latency chains
  std::array<std::uint64_t, kMaxIrq> raises_{};
  std::array<std::array<std::uint64_t, 64>, kMaxIrq> deliveries_{};
};

}  // namespace hw
