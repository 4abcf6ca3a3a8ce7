// Model fuzzing: random task populations doing random action mixes for
// seconds of simulated time, across seeds and kernel configs. The
// simulator's internal SIM_ASSERT contracts are the primary oracle; the
// checks below verify global invariants survive arbitrary interleavings.
#include <gtest/gtest.h>

#include <memory>

#include "fault/fault_plan.h"
#include "fault/injector.h"
#include "hw/interrupt_controller.h"
#include "kernel/syscalls.h"
#include "kernel_test_util.h"

using namespace testutil;
using namespace sim::literals;

namespace {

/// A task that performs a random mix of every action type the model has.
class ChaoticBehavior final : public kernel::Behavior {
 public:
  explicit ChaoticBehavior(sim::Rng rng, kernel::WaitQueueId shared_wq)
      : rng_(rng), shared_wq_(shared_wq) {}

  kernel::Action next_action(kernel::Kernel& k, kernel::Task& t) override {
    switch (rng_.uniform(0, 9)) {
      case 0:
      case 1:
        return kernel::ComputeAction{rng_.uniform_duration(10_us, 5_ms),
                                     rng_.next_double()};
      case 2:
        return kernel::SleepAction{rng_.uniform_duration(100_us, 20_ms)};
      case 3:
        return kernel::SyscallAction{kernel::sys::fs_op(k, 100_us)};
      case 4:
        return kernel::SyscallAction{kernel::sys::mm_op(k, 80_us)};
      case 5:
        return kernel::SyscallAction{kernel::sys::fault_storm(k)};
      case 6:
        return kernel::SyscallAction{kernel::sys::socket_op(
            k, 50_us, [](kernel::Kernel& kk, kernel::Task& tt) {
              kk.raise_softirq(tt.cpu, kernel::SoftirqType::kNetRx, 30'000);
            })};
      case 7: {
        // Wake anyone parked on the shared queue, then maybe park.
        kernel::ProgramBuilder b;
        const auto wq = shared_wq_;
        b.work(1_us, 0.3).effect([wq](kernel::Kernel& kk, kernel::Task&) {
          kk.wake_up_one(wq);
        });
        return kernel::SyscallAction{std::move(b).build()};
      }
      case 8: {
        // Change own affinity at random (never to an empty mask).
        const auto ncpus = k.ncpus();
        hw::CpuMask mask(rng_.uniform(1, (1u << ncpus) - 1));
        k.sched_setaffinity(t, mask);
        return kernel::ComputeAction{10_us, 0.2};
      }
      default: {
        kernel::ProgramBuilder b;
        b.section(kernel::LockId::kBkl, rng_.uniform_duration(1_us, 200_us));
        return kernel::SyscallAction{std::move(b).build()};
      }
    }
  }

 private:
  sim::Rng rng_;
  kernel::WaitQueueId shared_wq_;
};

/// A random-but-valid small FaultPlan: 1-4 specs drawn from every kind the
/// injector supports, with random windows and moderate rates. The fuzz runs
/// half its seeds with one of these armed so the injector's hooks and
/// saboteurs face arbitrary interleavings too.
fault::FaultPlan random_fault_plan(sim::Rng& rng) {
  fault::FaultPlan plan;
  const int n = 1 + static_cast<int>(rng.uniform(0, 3));
  for (int i = 0; i < n; ++i) {
    fault::FaultSpec f;
    if (rng.chance(0.5)) {
      f.start = rng.uniform_duration(0, 2_s);
      f.duration = rng.uniform_duration(10_ms, 1_s);
    }
    switch (rng.uniform(0, 8)) {
      case 0:
        f.kind = fault::FaultKind::kIrqStorm;
        f.irq = rng.chance(0.5) ? hw::kIrqNic : hw::kIrqDisk;
        f.rate_hz = 100.0 + static_cast<double>(rng.uniform(0, 4900));
        break;
      case 1:
        f.kind = fault::FaultKind::kSpuriousIrq;
        f.irq = rng.chance(0.5) ? hw::kIrqNic : hw::kIrqGpu;
        f.rate_hz = 50.0 + static_cast<double>(rng.uniform(0, 950));
        break;
      case 2:
        f.kind = fault::FaultKind::kLostIrq;
        f.irq = rng.chance(0.5) ? hw::kIrqNic : hw::kIrqDisk;
        f.probability = 0.1 + 0.8 * rng.next_double();
        break;
      case 3:
        f.kind = fault::FaultKind::kDuplicateIrq;
        f.irq = rng.chance(0.5) ? hw::kIrqNic : hw::kIrqDisk;
        f.probability = 0.1 + 0.8 * rng.next_double();
        break;
      case 4:
        f.kind = fault::FaultKind::kCpuStall;
        f.rate_hz = 10.0 + static_cast<double>(rng.uniform(0, 190));
        f.min_ns = 1_us;
        f.max_ns = rng.uniform_duration(10_us, 300_us);
        f.cpu = rng.chance(0.5) ? -1 : 1;
        break;
      case 5:
        f.kind = fault::FaultKind::kClockDrift;
        f.drift = rng.chance(0.5) ? 0.01 : -0.01;
        break;
      case 6:
        f.kind = fault::FaultKind::kDeviceDelay;
        f.device = rng.chance(0.5) ? "disk" : "nic";
        f.probability = 0.1 + 0.8 * rng.next_double();
        f.min_ns = 10_us;
        f.max_ns = rng.uniform_duration(100_us, 5_ms);
        break;
      case 7:
        f.kind = fault::FaultKind::kSoftirqFlood;
        f.rate_hz = 100.0 + static_cast<double>(rng.uniform(0, 900));
        f.work_ns = rng.uniform_duration(1_us, 100_us);
        break;
      default:
        f.kind = fault::FaultKind::kLockHolderDelay;
        f.lock = rng.chance(0.5) ? "dcache" : "fs";
        f.rate_hz = 10.0 + static_cast<double>(rng.uniform(0, 90));
        f.min_ns = 10_us;
        f.max_ns = rng.uniform_duration(50_us, 1_ms);
        break;
    }
    plan.faults.push_back(std::move(f));
  }
  plan.validate("fuzz");  // the generator must only emit valid plans
  return plan;
}

// gtest names each case by a byte dump of its param. Both fields are full
// words so the struct has no padding: a bool here would leave seven
// uninitialized bytes in every case name, changing it from build to build.
struct FuzzParams {
  std::uint64_t seed;
  std::uint64_t redhawk;  // 0 = vanilla kernel, 1 = RedHawk
};
static_assert(sizeof(FuzzParams) == 2 * sizeof(std::uint64_t),
              "FuzzParams must have no padding bytes");

class ModelFuzz : public ::testing::TestWithParam<FuzzParams> {};

}  // namespace

TEST_P(ModelFuzz, InvariantsHoldUnderChaos) {
  const auto [seed, redhawk] = GetParam();
  auto p = redhawk ? redhawk_rig(seed) : vanilla_rig(seed);
  auto& k = p->kernel();
  sim::Rng rng(seed * 71);
  const auto shared_wq = k.create_wait_queue("chaos");

  const int ntasks = 6 + static_cast<int>(rng.uniform(0, 6));
  for (int i = 0; i < ntasks; ++i) {
    kernel::Kernel::TaskParams tp;
    tp.name = "chaos" + std::to_string(i);
    tp.policy = rng.chance(0.25) ? kernel::SchedPolicy::kFifo
                                 : kernel::SchedPolicy::kOther;
    tp.rt_priority = tp.policy == kernel::SchedPolicy::kFifo
                         ? static_cast<int>(rng.uniform(1, 80))
                         : 0;
    tp.nice = static_cast<int>(rng.uniform(0, 19));
    tp.mlocked = rng.chance(0.5);
    k.create_task(std::move(tp),
                  std::make_unique<ChaoticBehavior>(rng.split(), shared_wq));
  }

  p->boot();
  // Half the seeds also run under a random FaultPlan: injector hooks,
  // filters and saboteur tasks must uphold the same invariants.
  fault::FaultPlan plan;
  if (seed % 2 == 1) plan = random_fault_plan(rng);
  fault::Injector injector(*p, plan, seed);
  if (!plan.empty()) injector.arm(p->engine().now() + 4_s);
  // Toggle shielding mid-run on shield-capable kernels.
  if (redhawk) {
    p->engine().schedule(1_s, [&] {
      p->shield().shield_all(hw::CpuMask::single(1));
    });
    p->engine().schedule(2_s, [&] { p->shield().unshield_all(); });
  }
  p->run_for(4_s);

  // Global invariants after arbitrary interleavings:
  sim::Duration total_cpu = 0;
  for (const auto& t : k.tasks()) {
    // 1. No task stuck in a transitional state.
    EXPECT_NE(t->state, kernel::TaskState::kNew) << t->name;
    // 2. Balanced lock usage whenever a task is out of the kernel.
    if (!t->in_syscall) {
      EXPECT_EQ(t->preempt_count, 0) << t->name;
      EXPECT_EQ(t->bkl_depth, 0) << t->name;
      EXPECT_EQ(t->irq_disable_depth, 0) << t->name;
    }
    // 3. Accounted CPU time can't exceed wall clock.
    EXPECT_LE(t->utime, p->engine().now()) << t->name;
    total_cpu += t->utime + t->stime;
  }
  // 4. Total CPU time across tasks bounded by ncpus × wall clock.
  EXPECT_LE(total_cpu,
            p->engine().now() * static_cast<sim::Duration>(k.ncpus()));
  // 5. The system made real progress.
  EXPECT_GT(p->engine().events_executed(), 1000u);
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, ModelFuzz,
    ::testing::Values(FuzzParams{1, 0}, FuzzParams{2, 0}, FuzzParams{3, 0},
                      FuzzParams{4, 0}, FuzzParams{5, 0}, FuzzParams{6, 1},
                      FuzzParams{7, 1}, FuzzParams{8, 1}, FuzzParams{9, 1},
                      FuzzParams{10, 1}, FuzzParams{11, 0}, FuzzParams{12, 1},
                      FuzzParams{13, 0}, FuzzParams{14, 1}, FuzzParams{15, 0},
                      FuzzParams{16, 1}));
