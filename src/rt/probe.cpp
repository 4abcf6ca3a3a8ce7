#include "rt/probe.h"

#include <algorithm>
#include <functional>
#include <stdexcept>
#include <utility>

#include "kernel/latency_auditor.h"
#include "rt/cyclictest.h"
#include "rt/determinism_test.h"
#include "rt/rcim_test.h"
#include "rt/realfeel_test.h"
#include "workload/workload.h"

namespace rt {
namespace {

using config::json::Value;

std::uint64_t scaled(std::uint64_t n, double scale) {
  const auto s =
      static_cast<std::uint64_t>(static_cast<double>(n) * scale);
  return s == 0 ? 1 : s;
}

[[noreturn]] void unknown_key(const std::string& probe,
                              const std::string& key) {
  throw std::runtime_error("probe '" + probe + "': unknown parameter '" +
                           key + "'");
}

void require_object(const std::string& probe, const Value& params) {
  if (!params.is_object()) {
    throw std::runtime_error("probe '" + probe +
                             "': params must be a JSON object");
  }
}

hw::CpuMask cpu_mask(std::int64_t cpu) {
  return cpu < 0 ? hw::CpuMask{} : hw::CpuMask::single(static_cast<int>(cpu));
}

// ---- determinism ----------------------------------------------------------

class DeterminismProbe final : public Probe {
 public:
  DeterminismProbe(config::Platform& p, const Value& params, double scale) {
    DeterminismTest::Params dp;
    bool mlocked = true;
    for (const auto& [key, v] : params.members()) {
      if (key == "loop_work_ns") {
        dp.loop_work = static_cast<sim::Duration>(v.as_u64());
      } else if (key == "iterations") {
        dp.iterations = static_cast<int>(v.as_u64());
      } else if (key == "memory_intensity") {
        dp.memory_intensity = v.as_double();
      } else if (key == "rt_priority") {
        dp.rt_priority = static_cast<int>(v.as_i64());
      } else if (key == "affinity_cpu") {
        dp.affinity = cpu_mask(v.as_i64());
      } else if (key == "mlocked") {
        mlocked = v.as_bool();
      } else {
        unknown_key("determinism", key);
      }
    }
    dp.iterations = static_cast<int>(
        scaled(static_cast<std::uint64_t>(dp.iterations), scale));
    params_ = dp;
    test_ = std::make_unique<DeterminismTest>(p.kernel(), dp);
    test_->task().mlocked = mlocked;
  }

  kernel::Task* task() override { return &test_->task(); }
  sim::Duration base_duration() const override {
    return params_.loop_work *
           static_cast<sim::Duration>(params_.iterations);
  }
  bool done() const override { return test_->done(); }

  ProbeResult result() const override {
    ProbeResult r;
    r.primary = test_->excess_histogram();
    r.ideal = test_->ideal();
    r.collected = test_->samples().size();
    r.expected = static_cast<std::uint64_t>(params_.iterations);
    r.complete = test_->done();
    r.stats["max_observed_ns"] = static_cast<double>(test_->max_observed());
    r.stats["minor_faults"] = static_cast<double>(
        const_cast<DeterminismTest&>(*test_).task().minor_faults);
    return r;
  }

 private:
  DeterminismTest::Params params_;
  std::unique_ptr<DeterminismTest> test_;
};

// ---- realfeel -------------------------------------------------------------

class RealfeelProbe final : public Probe {
 public:
  RealfeelProbe(config::Platform& p, const Value& params, double scale)
      : irq_(p.rtc_device().irq()) {
    RealfeelTest::Params rp;
    for (const auto& [key, v] : params.members()) {
      if (key == "rate_hz") {
        rp.rate_hz = static_cast<int>(v.as_i64());
      } else if (key == "samples") {
        rp.samples = v.as_u64();
      } else if (key == "rt_priority") {
        rp.rt_priority = static_cast<int>(v.as_i64());
      } else if (key == "affinity_cpu") {
        rp.affinity = cpu_mask(v.as_i64());
      } else {
        unknown_key("realfeel", key);
      }
    }
    rp.samples = scaled(rp.samples, scale);
    params_ = rp;
    test_ = std::make_unique<RealfeelTest>(p.kernel(), p.rtc_driver(), rp);
  }

  kernel::Task* task() override { return &test_->task(); }
  int irq() const override { return irq_; }
  void start() override { test_->start(); }
  sim::Duration base_duration() const override {
    return sim::from_seconds(static_cast<double>(params_.samples) /
                             static_cast<double>(params_.rate_hz));
  }
  bool done() const override { return test_->done(); }

  ProbeResult result() const override {
    ProbeResult r;
    r.primary = test_->latencies();
    r.secondary = test_->wake_latencies();
    r.collected = test_->collected();
    r.expected = params_.samples;
    r.complete = test_->done();
    return r;
  }

 private:
  int irq_;
  RealfeelTest::Params params_;
  std::unique_ptr<RealfeelTest> test_;
};

// ---- rcim -----------------------------------------------------------------

class RcimProbe final : public Probe {
 public:
  RcimProbe(config::Platform& p, const Value& params, double scale) {
    if (!p.has_rcim()) {
      throw std::runtime_error(
          "probe 'rcim': the machine has no RCIM card (or the kernel has "
          "no driver)");
    }
    irq_ = p.rcim_device().irq();
    tick_ = p.rcim_device().tick();
    RcimTest::Params rp;
    for (const auto& [key, v] : params.members()) {
      if (key == "count") {
        rp.count = static_cast<std::uint32_t>(v.as_u64());
      } else if (key == "samples") {
        rp.samples = v.as_u64();
      } else if (key == "rt_priority") {
        rp.rt_priority = static_cast<int>(v.as_i64());
      } else if (key == "affinity_cpu") {
        rp.affinity = cpu_mask(v.as_i64());
      } else if (key == "measure") {
        const std::string& m = v.as_string();
        if (m == "truth") {
          truth_ = true;
        } else if (m != "register") {
          throw std::runtime_error(
              "probe 'rcim': measure must be 'register' or 'truth'");
        }
      } else {
        unknown_key("rcim", key);
      }
    }
    rp.samples = scaled(rp.samples, scale);
    params_ = rp;
    test_ = std::make_unique<RcimTest>(p.kernel(), p.rcim_driver(), rp);
  }

  kernel::Task* task() override { return &test_->task(); }
  int irq() const override { return irq_; }
  void start() override { test_->start(); }
  sim::Duration base_duration() const override {
    return static_cast<sim::Duration>(params_.count) * tick_ *
           params_.samples;
  }
  bool done() const override { return test_->done(); }

  ProbeResult result() const override {
    ProbeResult r;
    r.primary = truth_ ? test_->true_latencies() : test_->latencies();
    r.secondary = truth_ ? test_->latencies() : test_->true_latencies();
    r.collected = test_->collected();
    r.expected = params_.samples;
    r.complete = test_->done();
    r.stats["overruns"] = static_cast<double>(test_->overruns());
    return r;
  }

 private:
  int irq_ = -1;
  sim::Duration tick_ = 400;
  bool truth_ = false;
  RcimTest::Params params_;
  std::unique_ptr<RcimTest> test_;
};

// ---- cyclictest -----------------------------------------------------------

class CyclicProbe final : public Probe {
 public:
  CyclicProbe(config::Platform& p, const Value& params, double scale) {
    CyclicTest::Params cp;
    for (const auto& [key, v] : params.members()) {
      if (key == "period_ns") {
        cp.period = static_cast<sim::Duration>(v.as_u64());
      } else if (key == "cycles") {
        cp.cycles = v.as_u64();
      } else if (key == "rt_priority") {
        cp.rt_priority = static_cast<int>(v.as_i64());
      } else if (key == "affinity_cpu") {
        cp.affinity = cpu_mask(v.as_i64());
      } else {
        unknown_key("cyclictest", key);
      }
    }
    cp.cycles = scaled(cp.cycles, scale);
    params_ = cp;
    test_ = std::make_unique<CyclicTest>(p.kernel(), cp);
  }

  kernel::Task* task() override { return &test_->task(); }
  void start() override { test_->start(); }
  sim::Duration base_duration() const override {
    return params_.period * params_.cycles;
  }
  bool done() const override { return test_->done(); }

  ProbeResult result() const override {
    ProbeResult r;
    r.primary = test_->latencies();
    r.collected = test_->collected();
    // Duration-bound: a jiffy-quantized kernel stretches the effective
    // period ~10x, so "cycles collected in the window" is the measurement,
    // not a completion target (the cycles param only caps fast kernels).
    r.expected = 0;
    r.complete = true;
    return r;
  }

 private:
  CyclicTest::Params params_;
  std::unique_ptr<CyclicTest> test_;
};

// ---- timer-gap ------------------------------------------------------------

// The posix-timers measurement: a SCHED_FIFO task sleeps on a kernel
// periodic timer and records |inter-wakeup gap - requested period|. On a
// jiffy-wheel kernel the error is millisecond-scale quantization; on a
// high-res kernel it is the microsecond wake-path cost. Duration-bound:
// pair it with a fixed-duration policy.
class TimerGapProbe final : public Probe {
 public:
  TimerGapProbe(config::Platform& p, const Value& params, double /*scale*/)
      : kernel_(p.kernel()) {
    sim::Duration period = 10 * sim::kMillisecond;
    int rt_priority = 90;
    for (const auto& [key, v] : params.members()) {
      if (key == "period_ns") {
        period = static_cast<sim::Duration>(v.as_u64());
      } else if (key == "rt_priority") {
        rt_priority = static_cast<int>(v.as_i64());
      } else {
        unknown_key("timer-gap", key);
      }
    }
    period_ = period;
    wq_ = kernel_.create_wait_queue("periodic");
    state_ = std::make_shared<State>();

    kernel::Kernel::TaskParams tp;
    tp.name = "periodic";
    tp.policy = kernel::SchedPolicy::kFifo;
    tp.rt_priority = rt_priority;
    tp.mlocked = true;
    auto st = state_;
    const auto wq = wq_;
    task_ = &workload::spawn(
        kernel_, std::move(tp),
        [st, wq, period](kernel::Kernel& kk, kernel::Task&) -> kernel::Action {
          const sim::Time now = kk.now();
          if (st->have_prev) {
            const sim::Duration gap = now - st->prev;
            st->err.add(gap > period ? gap - period : period - gap);
          }
          st->prev = now;
          st->have_prev = true;
          return kernel::SyscallAction{
              kernel::ProgramBuilder{}.block(wq).build()};
        });
  }

  kernel::Task* task() override { return task_; }
  void start() override { kernel_.arm_periodic_timer(wq_, period_); }
  sim::Duration base_duration() const override { return 0; }
  bool done() const override { return false; }

  ProbeResult result() const override {
    ProbeResult r;
    r.primary = state_->err;
    r.collected = state_->err.count();
    r.expected = 0;
    r.complete = true;
    return r;
  }

 private:
  struct State {
    metrics::LatencyHistogram err;
    sim::Time prev = 0;
    bool have_prev = false;
  };

  kernel::Kernel& kernel_;
  kernel::WaitQueueId wq_;
  sim::Duration period_ = 0;
  kernel::Task* task_ = nullptr;
  std::shared_ptr<State> state_;
};

// ---- holdoff --------------------------------------------------------------

// No measuring task at all: run the workloads for the horizon, then read
// the kernel's latency auditor — worst irq-off / preempt-off holdoffs and
// the merged preempt-off distribution. Duration-bound.
class HoldoffProbe final : public Probe {
 public:
  HoldoffProbe(config::Platform& p, const Value& params, double /*scale*/)
      : platform_(p) {
    if (!params.members().empty()) {
      unknown_key("holdoff", params.members().front().first);
    }
  }

  sim::Duration base_duration() const override { return 0; }
  bool done() const override { return false; }

  ProbeResult result() const override {
    auto& k = platform_.kernel();
    const auto& a = k.auditor();
    ProbeResult r;
    for (int c = 0; c < k.ncpus(); ++c) r.primary.merge(a.preempt_off(c));
    r.collected = r.primary.count();
    r.expected = 0;
    r.complete = true;
    r.stats["worst_irq_off_ns"] = static_cast<double>(a.worst_irq_off());
    r.stats["worst_preempt_off_ns"] =
        static_cast<double>(a.worst_preempt_off());
    return r;
  }

 private:
  config::Platform& platform_;
};

using Factory = std::function<std::unique_ptr<Probe>(
    config::Platform&, const Value&, double)>;

template <typename P>
Factory make_factory() {
  return [](config::Platform& p, const Value& params,
            double scale) -> std::unique_ptr<Probe> {
    return std::make_unique<P>(p, params, scale);
  };
}

const std::map<std::string, Factory>& table() {
  static const std::map<std::string, Factory> t = {
      {"determinism", make_factory<DeterminismProbe>()},
      {"realfeel", make_factory<RealfeelProbe>()},
      {"rcim", make_factory<RcimProbe>()},
      {"cyclictest", make_factory<CyclicProbe>()},
      {"timer-gap", make_factory<TimerGapProbe>()},
      {"holdoff", make_factory<HoldoffProbe>()},
  };
  return t;
}

}  // namespace

std::vector<std::string> probe_names() {
  std::vector<std::string> names;
  names.reserve(table().size());
  for (const auto& [name, factory] : table()) names.push_back(name);
  return names;
}

bool probe_contains(const std::string& name) {
  return table().count(name) != 0;
}

bool probe_duration_bound(const std::string& name) {
  return name == "timer-gap" || name == "holdoff" || name == "cyclictest";
}

std::unique_ptr<Probe> make_probe(const std::string& name,
                                  config::Platform& platform,
                                  const config::json::Value& params,
                                  double scale) {
  require_object(name, params);
  const auto it = table().find(name);
  if (it == table().end()) {
    throw std::runtime_error("unknown probe '" + name + "'");
  }
  return it->second(platform, params, scale);
}

}  // namespace rt
