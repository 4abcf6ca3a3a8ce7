// Molnar's O(1) scheduler (as adopted in 2.5 and in RedHawk 1.4).
//
// Per-CPU runqueues with 140 priority levels and a find-first-set bitmap:
// pick is constant time and takes only the local queue's lock. SCHED_OTHER
// tasks rotate through active/expired arrays on timeslice expiry; RT tasks
// sit at their fixed priority in the active array. An idle CPU pulls from
// the busiest queue (simplified load balancing) so background load still
// spreads across the machine.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <unordered_map>
#include <vector>

#include "kernel/scheduler.h"
#include "sim/rng.h"

namespace kernel {

class O1Scheduler final : public Scheduler {
 public:
  static constexpr int kPrioLevels = 140;  // 0..99 RT, 100..139 OTHER

  O1Scheduler(const config::KernelConfig& cfg, sim::Rng rng)
      : cfg_(cfg), rng_(rng) {}

  void init(int ncpus) override;
  void enqueue(Task& t, hw::CpuId cpu) override;
  void dequeue(Task& t) override;
  Task* pick_next(hw::CpuId cpu) override;
  sim::Duration pick_cost(hw::CpuId cpu) override;
  hw::CpuId select_cpu(const Task& t, hw::CpuMask allowed,
                       const std::function<bool(hw::CpuId)>& is_idle) override;
  bool task_tick(Task& t, hw::CpuId cpu) override;
  void refresh_timeslice(Task& t) override;
  std::size_t nr_runnable(hw::CpuId cpu) const override;
  const char* name() const override { return "O(1)"; }

  /// Kernel-internal priority slot: 0 is highest (RT 99), 139 lowest.
  [[nodiscard]] static int prio_slot(const Task& t);

 private:
  static constexpr std::size_t kBitmapWords = (kPrioLevels + 63) / 64;

  struct Runqueue {
    std::array<std::deque<Task*>, kPrioLevels> active;
    /// Bit s is set iff active[s] is non-empty (the kernel's find-first-set
    /// priority bitmap).
    std::array<std::uint64_t, kBitmapWords> bitmap{};
    std::size_t nr = 0;
  };

  Task* steal_for(hw::CpuId cpu);
  /// Remove and return the first task in (slot, FIFO) order that may run on
  /// `cpu`, visiting only non-empty levels; nullptr if none may.
  Task* take_first_allowed(Runqueue& rq, hw::CpuId cpu);

  const config::KernelConfig& cfg_;
  sim::Rng rng_;
  std::vector<Runqueue> queues_;
  std::unordered_map<const Task*, hw::CpuId> queue_of_;  // which CPU's queue holds it
};

}  // namespace kernel
