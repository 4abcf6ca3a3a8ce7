// A 1 kHz closed-loop controller — the "tasks that must be run at very
// high frequencies" use case from §2 — with hard deadline accounting.
//
// Each cycle the controller waits for the RCIM tick, reads sensors
// (mmap'd: free), computes the control law (~120 us of math), and actuates.
// A cycle that finishes after 40% of the period counts as a deadline miss.
// The program runs the same controller unshielded and shielded and prints
// the miss rates side by side.
#include <cstdio>
#include <memory>

#include "config/platform.h"
#include "metrics/histogram.h"
#include "workload/stress_kernel.h"
#include "workload/workload.h"

using namespace sim::literals;

namespace {

struct ControlStats {
  metrics::LatencyHistogram cycle_completion;  // time from tick to actuation
  std::uint64_t cycles = 0;
  std::uint64_t deadline_misses = 0;
};

/// Install the controller task; returns its stats holder.
std::shared_ptr<ControlStats> install_controller(config::Platform& p,
                                                 sim::Duration deadline) {
  auto stats = std::make_shared<ControlStats>();
  auto& k = p.kernel();
  auto& rcim = p.rcim_device();
  auto& driver = p.rcim_driver();

  kernel::Kernel::TaskParams tp;
  tp.name = "servo-control";
  tp.policy = kernel::SchedPolicy::kFifo;
  tp.rt_priority = 97;
  tp.affinity = hw::CpuMask::single(1);
  tp.mlocked = true;
  tp.memory_intensity = 0.3;

  struct Phase {
    int step = 0;
  };
  auto phase = std::make_shared<Phase>();
  workload::spawn(
      k, std::move(tp),
      [stats, phase, &driver, &rcim, deadline](
          kernel::Kernel& kk, kernel::Task&) -> kernel::Action {
        switch (phase->step) {
          case 0:  // wait for the next control tick
            phase->step = 1;
            return kernel::SyscallAction{driver.wait_ioctl_program()};
          case 1:  // sensor read is an mmap'd register: free; now compute
            phase->step = 2;
            return kernel::ComputeAction{120_us, 0.3};
          default: {  // actuate: measure tick→done, account the deadline
            phase->step = 0;
            const sim::Duration elapsed = kk.now() - rcim.last_fire();
            stats->cycle_completion.add(elapsed);
            stats->cycles++;
            if (elapsed > deadline) stats->deadline_misses++;
            return kernel::SyscallAction{
                kernel::ProgramBuilder{}
                    .section(kernel::LockId::kRcim, 300_ns, 0.3)
                    .build()};
          }
        }
      });
  return stats;
}

std::shared_ptr<ControlStats> run_case(bool shielded, sim::Duration seconds) {
  config::Platform p(config::MachineConfig::dual_p4_xeon_2000_rcim(),
                     config::KernelConfig::redhawk_1_4(), 2026);
  workload::StressKernel{}.install(p);
  const sim::Duration period = 1_ms;
  const sim::Duration deadline = period * 2 / 5;  // 400 us
  auto stats = install_controller(p, deadline);
  p.boot();
  if (shielded) {
    p.kernel().procfs().write("/proc/irq/5/smp_affinity", "2");  // RCIM → CPU 1
    p.shield().shield_all(hw::CpuMask::single(1));
  }
  p.rcim_device().program_periodic(2'500);  // 1 ms at 400 ns/tick
  p.run_for(seconds);
  return stats;
}

}  // namespace

int main() {
  const sim::Duration run_time = 60_s;
  std::printf("1 kHz servo loop, 400 us deadline, stress-kernel load, 60 s\n\n");
  std::printf("  %-12s %10s %10s %12s %14s\n", "config", "cycles", "misses",
              "worst", "p99.99");
  std::printf("  %s\n", std::string(64, '-').c_str());
  for (const bool shielded : {false, true}) {
    const auto s = run_case(shielded, run_time);
    std::printf("  %-12s %10llu %10llu %12s %14s\n",
                shielded ? "shielded" : "unshielded",
                static_cast<unsigned long long>(s->cycles),
                static_cast<unsigned long long>(s->deadline_misses),
                sim::format_duration(s->cycle_completion.max()).c_str(),
                sim::format_duration(s->cycle_completion.percentile(0.9999))
                    .c_str());
  }
  std::printf(
      "\nThe shielded configuration should run every cycle inside the\n"
      "deadline; the unshielded one misses whenever interrupts or kernel\n"
      "activity land on the control CPU at the wrong moment.\n");
  return 0;
}
