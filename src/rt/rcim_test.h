// The §6.3 RCIM interrupt-response test.
//
// The RCIM timer is programmed periodic; the test loops on the wait ioctl.
// On wakeup it reads the memory-mapped count register: since the register
// auto-reloaded when the interrupt fired, (initial - count) * tick is the
// elapsed time since the interrupt — an almost-free latency measurement.
#pragma once

#include <cstdint>

#include "kernel/drivers/rcim_driver.h"
#include "kernel/kernel.h"
#include "metrics/histogram.h"

namespace rt {

class RcimTest {
 public:
  struct Params {
    /// RCIM count register load; period = count * device tick (400 ns).
    /// 2500 ticks = 1 ms.
    std::uint32_t count = 2'500;
    std::uint64_t samples = 1'000'000;
    int rt_priority = 95;
    hw::CpuMask affinity;  ///< empty = all CPUs
  };

  RcimTest(kernel::Kernel& kernel, kernel::RcimDriver& driver, Params params);

  /// Program the RCIM periodic timer. Call after boot.
  void start();

  [[nodiscard]] kernel::Task& task() { return *task_; }
  [[nodiscard]] bool done() const { return collected_ >= params_.samples; }
  [[nodiscard]] std::uint64_t collected() const { return collected_; }

  /// Latencies as the paper measures them: the mmap'd count register read.
  [[nodiscard]] const metrics::LatencyHistogram& latencies() const {
    return latencies_;
  }
  /// Simulator ground truth (now - actual fire time) — identical to the
  /// register method unless an overrun wrapped the counter.
  [[nodiscard]] const metrics::LatencyHistogram& true_latencies() const {
    return true_latencies_;
  }
  [[nodiscard]] std::uint64_t overruns() const { return overruns_; }

 private:
  class Behavior;

  kernel::Kernel& kernel_;
  kernel::RcimDriver& driver_;
  Params params_;
  kernel::Task* task_ = nullptr;
  metrics::LatencyHistogram latencies_;
  metrics::LatencyHistogram true_latencies_;
  std::uint64_t collected_ = 0;
  std::uint64_t overruns_ = 0;
};

}  // namespace rt
