#include "hw/interrupt_controller.h"

#include <string>
#include <utility>

#include "sim/assert.h"

namespace hw {

using namespace sim::literals;

InterruptController::InterruptController(sim::Engine& engine,
                                         const Topology& topo)
    : engine_(engine), topo_(topo), rng_(engine.rng().split()) {
  affinity_.fill(topo.all_cpus());
  last_target_.fill(0);
  telemetry::Registry& reg = engine_.telemetry();
  reg.gauge("irq.raised", "device edges asserted per IRQ line", kMaxIrq,
            "irq", [this](int irq) {
              return raises_[static_cast<std::size_t>(irq)];
            });
  reg.gauge("irq.delivered", "edges delivered to a CPU per IRQ line",
            kMaxIrq, "irq", [this](int irq) {
              return delivery_total(static_cast<Irq>(irq));
            });
}

void InterruptController::set_affinity(Irq irq, CpuMask mask) {
  SIM_ASSERT(irq >= 0 && irq < kMaxIrq);
  mask = mask & topo_.all_cpus();
  if (mask.empty()) mask = topo_.all_cpus();
  affinity_[static_cast<std::size_t>(irq)] = mask;
}

CpuMask InterruptController::affinity(Irq irq) const {
  SIM_ASSERT(irq >= 0 && irq < kMaxIrq);
  return affinity_[static_cast<std::size_t>(irq)];
}

CpuId InterruptController::route(Irq irq) {
  const CpuMask mask = affinity_[static_cast<std::size_t>(irq)];
  SIM_ASSERT(!mask.empty());
  // Lowest-priority delivery with an idle preference only if enabled. The
  // 2003-era chipsets the paper ran on did NOT steer interrupts away from
  // busy CPUs (Linux 2.4 never programmed the TPR), so the default is a
  // plain rotation — a running RT task takes its share of interrupts,
  // which is the very problem shielding solves.
  if (prefer_idle_ && is_idle_) {
    CpuId idle_pick = -1;
    mask.for_each([&](CpuId cpu) {
      if (idle_pick < 0 && is_idle_(cpu)) idle_pick = cpu;
    });
    if (idle_pick >= 0) return idle_pick;
  }
  // Rotate through the mask so no CPU monopolises the line.
  CpuId prev = last_target_[static_cast<std::size_t>(irq)];
  for (int i = 0; i < 64; ++i) {
    prev = (prev + 1) % topo_.logical_cpus();
    if (mask.test(prev)) {
      last_target_[static_cast<std::size_t>(irq)] = prev;
      return prev;
    }
  }
  return mask.first();
}

void InterruptController::raise(Irq irq) {
  SIM_ASSERT(irq >= 0 && irq < kMaxIrq);
  SIM_ASSERT_MSG(static_cast<bool>(deliver_), "no delivery function installed");
  raises_[static_cast<std::size_t>(irq)]++;
  engine_.flight_recorder().record(engine_.now(),
                                   telemetry::EventKind::kIrqRaise, -1, irq);
  int copies = 1;
  if (raise_filter_) {
    copies = raise_filter_(irq);
    SIM_ASSERT(copies >= 0);
    if (copies == 0) return;  // edge lost on the wire: no chain, no delivery
  }
  sim::ChainTracer& tracer = engine_.chain_tracer();
  if (tracer.enabled()) {
    // One chain per line: a re-raise before the kernel entered the previous
    // hardirq supersedes it (the line is edge-triggered in this model).
    sim::ChainId& pending = chains_[static_cast<std::size_t>(irq)];
    tracer.abandon(pending);
    pending = tracer.open("irq" + std::to_string(irq), engine_.now());
  }
  for (int c = 0; c < copies; ++c) {
    const CpuId target = route(irq);
    deliveries_[static_cast<std::size_t>(irq)]
               [static_cast<std::size_t>(target)]++;
    // APIC message + pin-to-vector latency: a few hundred nanoseconds.
    const sim::Duration wire = rng_.uniform_duration(200_ns, 600_ns);
    engine_.schedule(wire, [this, target, irq] { deliver_(target, irq); });
  }
}

sim::ChainId InterruptController::take_pending(Irq irq) {
  SIM_ASSERT(irq >= 0 && irq < kMaxIrq);
  return std::exchange(chains_[static_cast<std::size_t>(irq)], {});
}

std::uint64_t InterruptController::raise_count(Irq irq) const {
  SIM_ASSERT(irq >= 0 && irq < kMaxIrq);
  return raises_[static_cast<std::size_t>(irq)];
}

std::uint64_t InterruptController::delivery_count(Irq irq, CpuId cpu) const {
  SIM_ASSERT(irq >= 0 && irq < kMaxIrq);
  SIM_ASSERT(topo_.valid_cpu(cpu));
  return deliveries_[static_cast<std::size_t>(irq)][static_cast<std::size_t>(cpu)];
}

std::uint64_t InterruptController::delivery_total(Irq irq) const {
  SIM_ASSERT(irq >= 0 && irq < kMaxIrq);
  std::uint64_t sum = 0;
  for (auto d : deliveries_[static_cast<std::size_t>(irq)]) sum += d;
  return sum;
}

void InterruptController::reset_counters() {
  raises_.fill(0);
  for (auto& row : deliveries_) row.fill(0);
}

}  // namespace hw
