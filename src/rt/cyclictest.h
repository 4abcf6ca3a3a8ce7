// cyclictest-equivalent: periodic-timer wakeup latency.
//
// The third classic RT measurement (alongside the paper's realfeel and
// RCIM tests): a SCHED_FIFO task sleeps on a kernel periodic timer and
// measures how late each wakeup ran relative to the timer's ideal expiry.
// Exercises the timer subsystem + scheduler wake path with no device
// interrupt involved, so it isolates *scheduling* latency:
//   latency = (actual run time) - (ideal expiry time)
// On a 2.4 kernel without the POSIX-timers patch the ideal expiries are
// themselves jiffy-quantized; the measurement is against the quantized
// schedule, as the real cyclictest sees through clock_nanosleep.
#pragma once

#include <cstdint>

#include "kernel/kernel.h"
#include "metrics/histogram.h"

namespace rt {

class CyclicTest {
 public:
  struct Params {
    sim::Duration period = sim::kMillisecond;
    std::uint64_t cycles = 100'000;
    int rt_priority = 95;
    hw::CpuMask affinity;  ///< empty = all CPUs
  };

  CyclicTest(kernel::Kernel& kernel, Params params);

  /// Arm the periodic timer. Call after boot.
  void start();

  [[nodiscard]] kernel::Task& task() { return *task_; }
  [[nodiscard]] bool done() const { return collected_ >= params_.cycles; }
  [[nodiscard]] std::uint64_t collected() const { return collected_; }

  /// Wakeup latency vs the timer's actual expiry instants.
  [[nodiscard]] const metrics::LatencyHistogram& latencies() const {
    return latencies_;
  }

 private:
  class Behavior;

  kernel::Kernel& kernel_;
  Params params_;
  kernel::Task* task_ = nullptr;
  kernel::WaitQueueId wq_;
  kernel::Kernel::TimerId timer_ = -1;
  sim::Time last_expiry_ = 0;
  metrics::LatencyHistogram latencies_;
  std::uint64_t collected_ = 0;
};

}  // namespace rt
