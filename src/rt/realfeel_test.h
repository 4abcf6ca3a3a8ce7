// realfeel (§6.1): Andrew Morton's interrupt-response benchmark.
//
// The RTC fires periodically at 2048 Hz; the test loops reading /dev/rtc
// (which blocks until the next interrupt) and timestamps each return with
// the TSC. The latency metric is the paper's: the gap between consecutive
// returns minus the expected period — a late wakeup stretches one gap.
#pragma once

#include <cstdint>

#include "kernel/drivers/rtc_driver.h"
#include "kernel/kernel.h"
#include "metrics/histogram.h"

namespace rt {

class RealfeelTest {
 public:
  struct Params {
    int rate_hz = 2048;
    std::uint64_t samples = 1'000'000;
    int rt_priority = 95;
    hw::CpuMask affinity;  ///< empty = all CPUs
  };

  RealfeelTest(kernel::Kernel& kernel, kernel::RtcDriver& driver,
               Params params);

  /// Arms the RTC at the configured rate. Call after boot.
  void start();

  [[nodiscard]] kernel::Task& task() { return *task_; }
  [[nodiscard]] bool done() const { return collected_ >= params_.samples; }
  [[nodiscard]] std::uint64_t collected() const { return collected_; }

  /// Histogram of (gap - period) latencies, the figures' metric.
  [[nodiscard]] const metrics::LatencyHistogram& latencies() const {
    return latencies_;
  }
  /// Cross-check: wakeup latency measured against the device's actual fire
  /// time (not observable on real hardware, but exact in the simulator).
  [[nodiscard]] const metrics::LatencyHistogram& wake_latencies() const {
    return wake_latencies_;
  }

 private:
  class Behavior;

  kernel::Kernel& kernel_;
  kernel::RtcDriver& driver_;
  Params params_;
  kernel::Task* task_ = nullptr;
  metrics::LatencyHistogram latencies_;
  metrics::LatencyHistogram wake_latencies_;
  std::uint64_t collected_ = 0;
};

}  // namespace rt
