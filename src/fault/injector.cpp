#include "fault/injector.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "config/platform.h"
#include "config/telemetry_export.h"
#include "fault/host_fault.h"
#include "kernel/kernel.h"
#include "kernel/task.h"
#include "sim/assert.h"

namespace fault {
namespace {

using config::json::Value;

/// The saboteur task behind kLockHolderDelay: sleeps Poisson intervals,
/// then enters the kernel and holds the target lock. Runs as an ordinary
/// nice-0 task so it competes like the stress scripts do.
class LockHolderBehavior : public kernel::Behavior {
 public:
  LockHolderBehavior(const FaultSpec& spec, sim::Time begin, sim::Time end,
                     std::uint64_t seed, Injector* injector)
      : lock_(lock_from_token(spec.lock)),
        min_(spec.min_ns),
        max_(spec.max_ns),
        mean_(static_cast<sim::Duration>(1e9 / spec.rate_hz)),
        begin_(begin),
        end_(end),
        rng_(seed),
        injector_(injector) {}

  kernel::Action next_action(kernel::Kernel& kernel,
                             kernel::Task& /*task*/) override {
    const sim::Time now = kernel.now();
    if (now < begin_) return kernel::SleepAction{begin_ - now};
    if (now >= end_) return kernel::ExitAction{};
    if (!slept_) {
      slept_ = true;
      return kernel::SleepAction{
          std::max<sim::Duration>(1, rng_.exponential_duration(mean_))};
    }
    slept_ = false;
    injector_->note_lock_hold();
    const sim::Duration hold = rng_.uniform_duration(min_, max_);
    return kernel::SyscallAction{
        kernel::ProgramBuilder{}.work(500, 0.3).section(lock_, hold).build()};
  }

 private:
  kernel::LockId lock_;
  sim::Duration min_, max_, mean_;
  sim::Time begin_, end_;
  sim::Rng rng_;
  Injector* injector_;
  bool slept_ = false;
};

}  // namespace

Value Injector::Stats::to_json() const {
  Value v = Value::object();
  v.set("storm_raises", storm_raises);
  v.set("spurious_raises", spurious_raises);
  v.set("lost_irqs", lost_irqs);
  v.set("duplicated_irqs", duplicated_irqs);
  v.set("cpu_stalls", cpu_stalls);
  v.set("device_delays", device_delays);
  v.set("softirq_raises", softirq_raises);
  v.set("lock_holds", lock_holds);
  v.set("skipped_specs", skipped_specs);
  return v;
}

Injector::Injector(config::Platform& platform, const FaultPlan& plan,
                   std::uint64_t seed)
    : platform_(platform),
      plan_(plan),
      seed_(sim::derive_seed(seed, "fault-injector")),
      filter_rng_(sim::derive_seed(seed_, "raise-filter")),
      delay_rng_(sim::derive_seed(seed_, "device-delay")) {}

Injector::~Injector() {
  // Uninstall everything that points back into this object so a platform
  // that outlives the injector cannot call through dangling hooks.
  if (hooked_filter_) platform_.interrupt_controller().set_raise_filter(nullptr);
  if (hooked_disk_) platform_.disk_device().set_fault_delay(nullptr);
  if (hooked_nic_) platform_.nic_device().set_fault_delay(nullptr);
  if (hooked_rtc_) platform_.rtc_device().set_fault_delay(nullptr);
  if (hooked_rcim_ && platform_.has_rcim()) {
    platform_.rcim_device().set_fault_delay(nullptr);
  }
  if (touched_drift_) platform_.kernel().local_timer().set_drift(0.0);
}

void Injector::note_lock_hold() {
  stats_.lock_holds++;
  note(Event::kLockHold);
  sim::Engine& engine = platform_.engine();
  engine.flight_recorder().record(
      engine.now(), telemetry::EventKind::kFaultFire, -1,
      static_cast<std::int32_t>(FaultKind::kLockHolderDelay));
}

void Injector::arm(sim::Time horizon_end) {
  SIM_ASSERT_MSG(!armed_, "Injector::arm called twice");
  armed_ = true;
  horizon_ = horizon_end;
  if (plan_.empty()) return;

  sim::Engine& engine = platform_.engine();
  kernel::Kernel& kernel = platform_.kernel();

  // Registered only for a live plan so an empty-plan injector stays
  // observationally identical to no injector at all (same registry series,
  // same digests). Cells mirror the Stats fields one-for-one.
  events_ = engine.telemetry().counter(
      "fault.events", "fault-injector actions by kind",
      static_cast<int>(Event::kCount), "event",
      {"storm_raises", "spurious_raises", "lost_irqs", "duplicated_irqs",
       "cpu_stalls", "device_delays", "softirq_raises", "lock_holds",
       "skipped_specs"});
  engine.flight_recorder().record(engine.now(),
                                  telemetry::EventKind::kFaultArm, -1,
                                  static_cast<std::int32_t>(plan_.faults.size()));

  for (std::size_t i = 0; i < plan_.faults.size(); ++i) {
    const FaultSpec& f = plan_.faults[i];
    const sim::Time begin = std::min(f.start, horizon_end);
    const sim::Time end =
        f.duration == 0 ? horizon_end
                        : std::min(horizon_end, f.start + f.duration);
    if (begin >= end) {
      stats_.skipped_specs++;
      note(Event::kSkippedSpec);
      continue;
    }
    switch (f.kind) {
      case FaultKind::kIrqStorm:
      case FaultKind::kSpuriousIrq:
      case FaultKind::kCpuStall:
      case FaultKind::kSoftirqFlood: {
        // Raising an unclaimed line is fatal in the kernel model (as a real
        // spurious interrupt on an unclaimed vector would be a bug report,
        // not a latency blip), so only storm lines with drivers behind them.
        const bool needs_handler = f.kind == FaultKind::kIrqStorm ||
                                   f.kind == FaultKind::kSpuriousIrq;
        if (needs_handler && !kernel.irq_handler_registered(f.irq)) {
          stats_.skipped_specs++;
          note(Event::kSkippedSpec);
          break;
        }
        Chain c;
        c.spec = &f;
        c.begin = begin;
        c.end = end;
        c.mean = std::max<sim::Duration>(
            1, static_cast<sim::Duration>(1e9 / f.rate_hz));
        c.rng = sim::Rng(
            sim::derive_seed(seed_, "chain#" + std::to_string(i)));
        chains_.push_back(c);
        start_chain(chains_.size() - 1);
        break;
      }
      case FaultKind::kLostIrq:
      case FaultKind::kDuplicateIrq:
        filter_rules_.push_back(FilterRule{
            f.irq, f.kind == FaultKind::kLostIrq, f.probability, begin, end});
        break;
      case FaultKind::kClockDrift: {
        touched_drift_ = true;
        hw::LocalTimer& timer = kernel.local_timer();
        const double drift = f.drift;
        engine.schedule_at(begin,
                           [&timer, drift] { timer.set_drift(drift); });
        if (end < horizon_end) {
          engine.schedule_at(end, [&timer] { timer.set_drift(0.0); });
        }
        break;
      }
      case FaultKind::kDeviceDelay: {
        const DelayRule rule{f.probability, f.min_ns, f.max_ns, begin, end};
        if (f.device == "disk") {
          disk_rules_.push_back(rule);
        } else if (f.device == "nic") {
          nic_rules_.push_back(rule);
        } else if (f.device == "rtc") {
          rtc_rules_.push_back(rule);
        } else if (f.device == "rcim") {
          if (!platform_.has_rcim()) {
            stats_.skipped_specs++;
            note(Event::kSkippedSpec);
            break;
          }
          rcim_rules_.push_back(rule);
        }
        break;
      }
      case FaultKind::kLockHolderDelay: {
        kernel::Kernel::TaskParams p;
        p.name = "fault-holder/" + std::string(to_string(f.kind)) + "#" +
                 std::to_string(i);
        if (f.cpu >= 0) p.affinity = hw::CpuMask::single(f.cpu);
        kernel.create_task(
            std::move(p),
            std::make_unique<LockHolderBehavior>(
                f, begin, end,
                sim::derive_seed(seed_, "holder#" + std::to_string(i)),
                this));
        break;
      }
      case FaultKind::kHostCrash:
      case FaultKind::kHostHang: {
        // One-shot: a taken host fault never lets the process continue past
        // the first firing, so only the window start matters.
        const FaultKind kind = f.kind;
        engine.schedule_at(begin, [this, kind] { fire_host_fault(kind); });
        break;
      }
    }
  }

  install_filter();
  install_device_delays();
}

void Injector::start_chain(std::size_t index) {
  Chain& c = chains_[index];
  const sim::Time first = c.begin + c.rng.exponential_duration(c.mean);
  if (first >= c.end) return;
  platform_.engine().schedule_at(first, [this, index] { chain_fire(index); });
}

void Injector::chain_fire(std::size_t index) {
  Chain& c = chains_[index];
  fire_once(c);
  const sim::Time next =
      platform_.engine().now() + c.rng.exponential_duration(c.mean);
  if (next < c.end) {
    platform_.engine().schedule_at(next, [this, index] { chain_fire(index); });
  }
}

void Injector::fire_once(Chain& c) {
  const FaultSpec& f = *c.spec;
  kernel::Kernel& kernel = platform_.kernel();
  platform_.engine().flight_recorder().record(
      platform_.engine().now(), telemetry::EventKind::kFaultFire, f.cpu,
      static_cast<std::int32_t>(f.kind));
  switch (f.kind) {
    case FaultKind::kIrqStorm:
      stats_.storm_raises++;
      note(Event::kStormRaise);
      platform_.interrupt_controller().raise(f.irq);
      break;
    case FaultKind::kSpuriousIrq:
      stats_.spurious_raises++;
      note(Event::kSpuriousRaise);
      platform_.interrupt_controller().raise(f.irq);
      break;
    case FaultKind::kCpuStall: {
      const sim::Duration stall = c.rng.uniform_duration(f.min_ns, f.max_ns);
      if (f.cpu >= 0) {
        stats_.cpu_stalls++;
        note(Event::kCpuStall);
        kernel.inject_cpu_stall(f.cpu, stall);
      } else {
        // A chipset-wide SMI: every CPU disappears for the same window.
        for (hw::CpuId cpu = 0; cpu < kernel.ncpus(); ++cpu) {
          stats_.cpu_stalls++;
          note(Event::kCpuStall);
          kernel.inject_cpu_stall(cpu, stall);
        }
      }
      break;
    }
    case FaultKind::kSoftirqFlood: {
      hw::CpuId cpu = static_cast<hw::CpuId>(f.cpu);
      if (cpu < 0) {
        cpu = static_cast<hw::CpuId>(c.rr_cpu % kernel.ncpus());
        c.rr_cpu++;
      }
      stats_.softirq_raises++;
      note(Event::kSoftirqRaise);
      kernel.raise_softirq(cpu, kernel::SoftirqType::kNetRx, f.work_ns);
      break;
    }
    default:
      SIM_ASSERT_MSG(false, "fault kind is not chain-driven");
  }
}

void Injector::fire_host_fault(FaultKind kind) {
  sim::Engine& engine = platform_.engine();
  engine.flight_recorder().record(engine.now(), telemetry::EventKind::kFaultFire,
                                  -1, static_cast<std::int32_t>(kind));
  const HostFaultHandler& handler = host_fault_handler();
  if (handler) {
    const Value flight = engine.flight_recorder().enabled()
                             ? config::flight_dump_json(engine.flight_recorder())
                             : Value();
    if (handler(kind, flight)) return;  // taken handlers typically don't return
  }
  // No handler (in-process run) or the handler declined (a respawned worker
  // surviving a fault that already fired once): same accounting as any other
  // spec that could not be armed, so results stay bit-identical either way.
  stats_.skipped_specs++;
  note(Event::kSkippedSpec);
}

void Injector::install_filter() {
  if (filter_rules_.empty()) return;
  hooked_filter_ = true;
  sim::Engine& engine = platform_.engine();
  platform_.interrupt_controller().set_raise_filter([this,
                                                     &engine](hw::Irq irq) {
    const sim::Time now = engine.now();
    int copies = 1;
    for (const FilterRule& r : filter_rules_) {
      if (r.irq != irq || now < r.begin || now >= r.end) continue;
      if (!filter_rng_.chance(r.probability)) continue;
      if (r.lose) {
        copies = 0;
      } else if (copies > 0) {
        copies++;
      }
    }
    if (copies == 0) {
      stats_.lost_irqs++;
      note(Event::kLostIrq);
      engine.flight_recorder().record(
          now, telemetry::EventKind::kFaultFire, -1,
          static_cast<std::int32_t>(FaultKind::kLostIrq));
    } else if (copies > 1) {
      stats_.duplicated_irqs += static_cast<std::uint64_t>(copies - 1);
      note(Event::kDuplicatedIrq, static_cast<std::uint64_t>(copies - 1));
      engine.flight_recorder().record(
          now, telemetry::EventKind::kFaultFire, -1,
          static_cast<std::int32_t>(FaultKind::kDuplicateIrq), copies - 1);
    }
    return copies;
  });
}

sim::Duration Injector::sample_device_delay(std::vector<DelayRule>& rules,
                                            sim::Rng& rng) {
  const sim::Time now = platform_.engine().now();
  sim::Duration extra = 0;
  for (const DelayRule& r : rules) {
    if (now < r.begin || now >= r.end) continue;
    if (!rng.chance(r.probability)) continue;
    stats_.device_delays++;
    note(Event::kDeviceDelay);
    platform_.engine().flight_recorder().record(
        now, telemetry::EventKind::kFaultFire, -1,
        static_cast<std::int32_t>(FaultKind::kDeviceDelay));
    extra += rng.uniform_duration(r.min_ns, r.max_ns);
  }
  return extra;
}

void Injector::install_device_delays() {
  if (!disk_rules_.empty()) {
    hooked_disk_ = true;
    platform_.disk_device().set_fault_delay(
        [this] { return sample_device_delay(disk_rules_, delay_rng_); });
  }
  if (!nic_rules_.empty()) {
    hooked_nic_ = true;
    platform_.nic_device().set_fault_delay(
        [this] { return sample_device_delay(nic_rules_, delay_rng_); });
  }
  if (!rtc_rules_.empty()) {
    hooked_rtc_ = true;
    platform_.rtc_device().set_fault_delay(
        [this] { return sample_device_delay(rtc_rules_, delay_rng_); });
  }
  if (!rcim_rules_.empty()) {
    hooked_rcim_ = true;
    platform_.rcim_device().set_fault_delay(
        [this] { return sample_device_delay(rcim_rules_, delay_rng_); });
  }
}

}  // namespace fault
