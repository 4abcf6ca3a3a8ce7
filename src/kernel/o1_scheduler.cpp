#include "kernel/o1_scheduler.h"

#include <algorithm>
#include <bit>

#include "sim/assert.h"

namespace kernel {

int O1Scheduler::prio_slot(const Task& t) {
  if (t.is_rt()) return 99 - t.rt_priority;  // RT 99 → slot 0
  return 100 + t.nice + 20;                  // nice -20..19 → 100..139
}

void O1Scheduler::init(int ncpus) {
  queues_.clear();
  queues_.resize(static_cast<std::size_t>(ncpus));
}

void O1Scheduler::enqueue(Task& t, hw::CpuId cpu) {
  SIM_ASSERT(!t.on_runqueue);
  SIM_ASSERT(cpu >= 0 && static_cast<std::size_t>(cpu) < queues_.size());
  auto& rq = queues_[static_cast<std::size_t>(cpu)];
  const auto slot = static_cast<std::size_t>(prio_slot(t));
  rq.active[slot].push_back(&t);
  rq.bitmap[slot / 64] |= std::uint64_t{1} << (slot % 64);
  rq.nr++;
  t.on_runqueue = true;
  queue_of_[&t] = cpu;
}

void O1Scheduler::dequeue(Task& t) {
  if (!t.on_runqueue) return;
  const auto it = queue_of_.find(&t);
  SIM_ASSERT(it != queue_of_.end());
  auto& rq = queues_[static_cast<std::size_t>(it->second)];
  const auto slot = static_cast<std::size_t>(prio_slot(t));
  auto& level = rq.active[slot];
  const auto size_before = level.size();
  std::erase(level, &t);
  SIM_ASSERT(level.size() + 1 == size_before);
  if (level.empty()) rq.bitmap[slot / 64] &= ~(std::uint64_t{1} << (slot % 64));
  rq.nr--;
  t.on_runqueue = false;
  queue_of_.erase(it);
}

Task* O1Scheduler::pick_next(hw::CpuId cpu) {
  Task* t = take_first_allowed(queues_[static_cast<std::size_t>(cpu)], cpu);
  return t != nullptr ? t : steal_for(cpu);
}

Task* O1Scheduler::take_first_allowed(Runqueue& rq, hw::CpuId cpu) {
  for (std::size_t w = 0; w < kBitmapWords; ++w) {
    for (std::uint64_t bits = rq.bitmap[w]; bits != 0; bits &= bits - 1) {
      const auto bit = static_cast<std::size_t>(std::countr_zero(bits));
      auto& level = rq.active[w * 64 + bit];
      const auto it = std::find_if(level.begin(), level.end(), [cpu](Task* t) {
        return t->effective_affinity.test(cpu);
      });
      if (it == level.end()) continue;
      Task* t = *it;
      level.erase(it);
      if (level.empty()) rq.bitmap[w] &= ~(std::uint64_t{1} << bit);
      rq.nr--;
      t->on_runqueue = false;
      queue_of_.erase(t);
      return t;
    }
  }
  return nullptr;
}

Task* O1Scheduler::steal_for(hw::CpuId cpu) {
  // Idle pull: scan other queues, busiest first, for a migratable task.
  hw::CpuId busiest = -1;
  std::size_t best_nr = 0;
  for (std::size_t q = 0; q < queues_.size(); ++q) {
    if (static_cast<hw::CpuId>(q) == cpu) continue;
    if (queues_[q].nr > best_nr) {
      best_nr = queues_[q].nr;
      busiest = static_cast<hw::CpuId>(q);
    }
  }
  if (busiest < 0) return nullptr;
  Task* t = take_first_allowed(queues_[static_cast<std::size_t>(busiest)], cpu);
  if (t != nullptr) t->migrations++;
  return t;
}

sim::Duration O1Scheduler::pick_cost(hw::CpuId /*cpu*/) {
  // Constant: bitmap ffs + local lock.
  return cfg_.sched_pick_base + rng_.uniform_duration(0, 300);
}

hw::CpuId O1Scheduler::select_cpu(const Task& t, hw::CpuMask allowed,
                                  const std::function<bool(hw::CpuId)>& is_idle) {
  SIM_ASSERT(!allowed.empty());
  // Prefer cache-warm last CPU, then any idle CPU, then the least loaded.
  if (t.cpu >= 0 && allowed.test(t.cpu) && is_idle(t.cpu)) return t.cpu;
  hw::CpuId idle_pick = -1;
  allowed.for_each([&](hw::CpuId cpu) {
    if (idle_pick < 0 && is_idle(cpu)) idle_pick = cpu;
  });
  if (idle_pick >= 0) return idle_pick;
  hw::CpuId least = -1;
  std::size_t least_nr = ~std::size_t{0};
  allowed.for_each([&](hw::CpuId cpu) {
    const std::size_t nr = queues_[static_cast<std::size_t>(cpu)].nr;
    if (nr < least_nr) {
      least_nr = nr;
      least = cpu;
    }
  });
  return least;
}

bool O1Scheduler::task_tick(Task& t, hw::CpuId /*cpu*/) {
  if (t.policy == SchedPolicy::kFifo) return false;
  const sim::Duration slice = t.policy == SchedPolicy::kRr
                                  ? cfg_.rr_timeslice
                                  : cfg_.other_timeslice;
  if (t.timeslice_remaining <= cfg_.local_timer_period) {
    t.timeslice_remaining = t.policy == SchedPolicy::kRr ? slice : 0;
    return true;
  }
  t.timeslice_remaining -= cfg_.local_timer_period;
  return false;
}

void O1Scheduler::refresh_timeslice(Task& t) {
  if (t.policy == SchedPolicy::kFifo) return;
  if (t.timeslice_remaining == 0) {
    // O(1) scales timeslice by static priority (nice).
    const auto scale = static_cast<sim::Duration>(
        t.policy == SchedPolicy::kRr ? 20 : 20 - t.nice);
    const sim::Duration base =
        t.policy == SchedPolicy::kRr ? cfg_.rr_timeslice : cfg_.other_timeslice;
    t.timeslice_remaining = base * scale / 20;
    if (t.timeslice_remaining == 0) t.timeslice_remaining = sim::kMillisecond;
  }
}

std::size_t O1Scheduler::nr_runnable(hw::CpuId cpu) const {
  SIM_ASSERT(cpu >= 0 && static_cast<std::size_t>(cpu) < queues_.size());
  return queues_[static_cast<std::size_t>(cpu)].nr;
}

}  // namespace kernel
