#include "kernel/latency_auditor.h"

#include <algorithm>

#include "sim/assert.h"

namespace kernel {

LatencyAuditor::LatencyAuditor(int ncpus)
    : cpus_(static_cast<std::size_t>(ncpus)) {}

void LatencyAuditor::irqs_masked(int cpu, sim::Time now) {
  PerCpu& c = cpus_[static_cast<std::size_t>(cpu)];
  SIM_ASSERT(!c.irq_off_active);
  c.irq_off_active = true;
  c.irq_off_since = now;
}

void LatencyAuditor::irqs_unmasked(int cpu, sim::Time now) {
  PerCpu& c = cpus_[static_cast<std::size_t>(cpu)];
  SIM_ASSERT(c.irq_off_active);
  c.irq_off_active = false;
  c.irq_off.add(now - c.irq_off_since);
}

void LatencyAuditor::preempt_disabled(int cpu, sim::Time now) {
  PerCpu& c = cpus_[static_cast<std::size_t>(cpu)];
  SIM_ASSERT(!c.preempt_off_active);
  c.preempt_off_active = true;
  c.preempt_off_since = now;
}

void LatencyAuditor::preempt_enabled(int cpu, sim::Time now) {
  PerCpu& c = cpus_[static_cast<std::size_t>(cpu)];
  SIM_ASSERT(c.preempt_off_active);
  c.preempt_off_active = false;
  c.preempt_off.add(now - c.preempt_off_since);
}

void LatencyAuditor::task_scheduled_in(sim::Time wake_time, sim::Time now,
                                       bool rt) {
  // now < wake_time: the task was never off the CPU.
  if (rt && now >= wake_time) rt_sched_latency_.add(now - wake_time);
}

const metrics::LatencyHistogram& LatencyAuditor::irq_off(int cpu) const {
  return cpus_[static_cast<std::size_t>(cpu)].irq_off;
}

const metrics::LatencyHistogram& LatencyAuditor::preempt_off(int cpu) const {
  return cpus_[static_cast<std::size_t>(cpu)].preempt_off;
}

sim::Duration LatencyAuditor::worst_irq_off() const {
  sim::Duration worst = 0;
  for (const auto& c : cpus_) {
    if (c.irq_off.count() > 0) worst = std::max(worst, c.irq_off.max());
  }
  return worst;
}

void LatencyAuditor::reset() {
  for (auto& c : cpus_) {
    c.irq_off.clear();
    c.preempt_off.clear();
  }
  rt_sched_latency_.clear();
}

sim::Duration LatencyAuditor::worst_preempt_off() const {
  sim::Duration worst = 0;
  for (const auto& c : cpus_) {
    if (c.preempt_off.count() > 0) {
      worst = std::max(worst, c.preempt_off.max());
    }
  }
  return worst;
}

}  // namespace kernel
