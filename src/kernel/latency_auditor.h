// Latency auditor: the simulator's equivalent of the preempt-off /
// irq-off latency tracers the low-latency patch effort was built around.
//
// It watches each CPU for the two holdoff intervals that bound worst-case
// response (§6's analysis):
//  * interrupts-off stretches (spin_lock_irqsave sections, hardirq
//    handlers, context switches), and
//  * non-preemptible stretches as seen by a waiting RT task — on a
//    preemptible kernel that is preempt_count > 0; on vanilla every
//    in-kernel interval counts.
//
// plus RT scheduling latency (wakeup → first run). Benches use it to
// report "worst observed holdoff" per kernel configuration, the number the
// low-latency work optimised directly.
#pragma once

#include <vector>

#include "metrics/histogram.h"
#include "sim/time.h"

namespace kernel {

class LatencyAuditor {
 public:
  explicit LatencyAuditor(int ncpus);

  // ---- hooks called by the kernel core ---------------------------------------
  void irqs_masked(int cpu, sim::Time now);
  void irqs_unmasked(int cpu, sim::Time now);
  void preempt_disabled(int cpu, sim::Time now);
  void preempt_enabled(int cpu, sim::Time now);
  void task_scheduled_in(sim::Time wake_time, sim::Time now, bool rt);

  // ---- results ------------------------------------------------------------------
  [[nodiscard]] const metrics::LatencyHistogram& irq_off(int cpu) const;
  [[nodiscard]] const metrics::LatencyHistogram& preempt_off(int cpu) const;
  /// Wakeup→run latency over all CPUs, RT tasks only.
  [[nodiscard]] const metrics::LatencyHistogram& rt_sched_latency() const {
    return rt_sched_latency_;
  }

  /// Worst irq-off / preempt-off interval across all CPUs.
  [[nodiscard]] sim::Duration worst_irq_off() const;
  [[nodiscard]] sim::Duration worst_preempt_off() const;

  /// Clear every histogram. Holdoff intervals currently in flight keep
  /// their start stamps and complete into the fresh histograms.
  void reset();

 private:
  struct PerCpu {
    metrics::LatencyHistogram irq_off;
    metrics::LatencyHistogram preempt_off;
    sim::Time irq_off_since = 0;
    sim::Time preempt_off_since = 0;
    bool irq_off_active = false;
    bool preempt_off_active = false;
  };
  std::vector<PerCpu> cpus_;
  metrics::LatencyHistogram rt_sched_latency_;
};

}  // namespace kernel
