// Scheduler-specific behaviour: goodness (2.4) vs O(1).
#include <gtest/gtest.h>

#include "kernel/goodness_scheduler.h"
#include "kernel/o1_scheduler.h"
#include "kernel_test_util.h"

using namespace testutil;
using namespace sim::literals;

namespace {

kernel::Task make_task(kernel::Pid pid, kernel::SchedPolicy policy,
                       int rt_prio, int nice, hw::CpuMask affinity) {
  kernel::Task t;
  t.pid = pid;
  t.policy = policy;
  t.rt_priority = rt_prio;
  t.nice = nice;
  t.user_affinity = affinity;
  t.effective_affinity = affinity;
  t.state = kernel::TaskState::kReady;
  return t;
}

}  // namespace

class SchedulerKindTest
    : public ::testing::TestWithParam<config::SchedulerKind> {
 protected:
  std::unique_ptr<kernel::Scheduler> make(const config::KernelConfig& cfg) {
    if (GetParam() == config::SchedulerKind::kGoodness24) {
      return std::make_unique<kernel::GoodnessScheduler>(cfg, sim::Rng(1));
    }
    return std::make_unique<kernel::O1Scheduler>(cfg, sim::Rng(1));
  }
  config::KernelConfig cfg_ = config::KernelConfig::vanilla_2_4_20();
};

TEST_P(SchedulerKindTest, PicksHighestPriority) {
  auto s = make(cfg_);
  s->init(2);
  auto rt = make_task(1, kernel::SchedPolicy::kFifo, 50, 0, hw::CpuMask(0b11));
  auto other = make_task(2, kernel::SchedPolicy::kOther, 0, 0, hw::CpuMask(0b11));
  s->enqueue(other, 0);
  s->enqueue(rt, 0);
  EXPECT_EQ(s->pick_next(0), &rt);
  EXPECT_EQ(s->pick_next(0), &other);
  EXPECT_EQ(s->pick_next(0), nullptr);
}

TEST_P(SchedulerKindTest, HigherRtPriorityFirst) {
  auto s = make(cfg_);
  s->init(1);
  auto lo = make_task(1, kernel::SchedPolicy::kFifo, 10, 0, hw::CpuMask(0b1));
  auto hi = make_task(2, kernel::SchedPolicy::kFifo, 90, 0, hw::CpuMask(0b1));
  s->enqueue(lo, 0);
  s->enqueue(hi, 0);
  EXPECT_EQ(s->pick_next(0), &hi);
}

TEST_P(SchedulerKindTest, HonorsAffinity) {
  auto s = make(cfg_);
  s->init(2);
  auto pinned = make_task(1, kernel::SchedPolicy::kOther, 0, 0, hw::CpuMask(0b10));
  s->enqueue(pinned, 1);
  EXPECT_EQ(s->pick_next(0), nullptr);  // pinned to CPU 1
  EXPECT_EQ(s->pick_next(1), &pinned);
}

TEST_P(SchedulerKindTest, DequeueRemoves) {
  auto s = make(cfg_);
  s->init(1);
  auto t = make_task(1, kernel::SchedPolicy::kOther, 0, 0, hw::CpuMask(0b1));
  s->enqueue(t, 0);
  s->dequeue(t);
  EXPECT_FALSE(t.on_runqueue);
  EXPECT_EQ(s->pick_next(0), nullptr);
}

TEST_P(SchedulerKindTest, PreemptsRules) {
  auto s = make(cfg_);
  auto rt_hi = make_task(1, kernel::SchedPolicy::kFifo, 90, 0, hw::CpuMask(0b1));
  auto rt_lo = make_task(2, kernel::SchedPolicy::kFifo, 10, 0, hw::CpuMask(0b1));
  auto other_a = make_task(3, kernel::SchedPolicy::kOther, 0, 0, hw::CpuMask(0b1));
  auto other_b = make_task(4, kernel::SchedPolicy::kOther, 0, -10, hw::CpuMask(0b1));
  EXPECT_TRUE(s->preempts(rt_hi, rt_lo));
  EXPECT_FALSE(s->preempts(rt_lo, rt_hi));
  EXPECT_FALSE(s->preempts(rt_hi, rt_hi));  // equal prio: FIFO, no preempt
  EXPECT_TRUE(s->preempts(rt_lo, other_a));
  EXPECT_FALSE(s->preempts(other_a, rt_lo));
  // OTHER never wake-preempts OTHER, regardless of nice.
  EXPECT_FALSE(s->preempts(other_b, other_a));
}

TEST_P(SchedulerKindTest, SelectCpuPrefersIdle) {
  auto s = make(cfg_);
  s->init(2);
  auto t = make_task(1, kernel::SchedPolicy::kOther, 0, 0, hw::CpuMask(0b11));
  const auto cpu = s->select_cpu(t, hw::CpuMask(0b11),
                                 [](hw::CpuId c) { return c == 1; });
  EXPECT_EQ(cpu, 1);
}

TEST_P(SchedulerKindTest, SelectCpuPrefersLastCpuWhenIdle) {
  auto s = make(cfg_);
  s->init(2);
  auto t = make_task(1, kernel::SchedPolicy::kOther, 0, 0, hw::CpuMask(0b11));
  t.cpu = 1;
  const auto cpu =
      s->select_cpu(t, hw::CpuMask(0b11), [](hw::CpuId) { return true; });
  EXPECT_EQ(cpu, 1);
}

TEST_P(SchedulerKindTest, PickCostIsPositive) {
  auto s = make(cfg_);
  s->init(1);
  auto t = make_task(1, kernel::SchedPolicy::kOther, 0, 0, hw::CpuMask(0b1));
  s->enqueue(t, 0);
  EXPECT_GT(s->pick_cost(0), 0u);
}

INSTANTIATE_TEST_SUITE_P(BothSchedulers, SchedulerKindTest,
                         ::testing::Values(config::SchedulerKind::kGoodness24,
                                           config::SchedulerKind::kO1));

// ---- scheduler-specific characteristics --------------------------------------

TEST(GoodnessScheduler, PickCostGrowsWithQueueLength) {
  auto cfg = config::KernelConfig::vanilla_2_4_20();
  kernel::GoodnessScheduler s(cfg, sim::Rng(1));
  s.init(1);
  std::vector<kernel::Task> tasks;
  tasks.reserve(64);
  for (int i = 0; i < 64; ++i) {
    tasks.push_back(make_task(i + 1, kernel::SchedPolicy::kOther, 0, 0,
                              hw::CpuMask(0b1)));
  }
  sim::Duration short_cost = 0, long_cost = 0;
  s.enqueue(tasks[0], 0);
  for (int i = 0; i < 20; ++i) short_cost += s.pick_cost(0);
  for (int i = 1; i < 64; ++i) s.enqueue(tasks[static_cast<std::size_t>(i)], 0);
  for (int i = 0; i < 20; ++i) long_cost += s.pick_cost(0);
  EXPECT_GT(long_cost, short_cost + 20 * 63 * cfg.sched_pick_per_task / 2);
}

TEST(O1Scheduler, PickCostIsConstant) {
  auto cfg = config::KernelConfig::redhawk_1_4();
  kernel::O1Scheduler s(cfg, sim::Rng(1));
  s.init(1);
  std::vector<kernel::Task> tasks;
  tasks.reserve(64);
  for (int i = 0; i < 64; ++i) {
    tasks.push_back(make_task(i + 1, kernel::SchedPolicy::kOther, 0, 0,
                              hw::CpuMask(0b1)));
    s.enqueue(tasks.back(), 0);
  }
  for (int i = 0; i < 50; ++i) {
    EXPECT_LE(s.pick_cost(0), cfg.sched_pick_base + 300);
  }
}

TEST(O1Scheduler, PrioSlotMapping) {
  auto rt99 = make_task(1, kernel::SchedPolicy::kFifo, 99, 0, hw::CpuMask(1));
  auto rt1 = make_task(2, kernel::SchedPolicy::kFifo, 1, 0, hw::CpuMask(1));
  auto nice0 = make_task(3, kernel::SchedPolicy::kOther, 0, 0, hw::CpuMask(1));
  auto nice19 = make_task(4, kernel::SchedPolicy::kOther, 0, 19, hw::CpuMask(1));
  EXPECT_EQ(kernel::O1Scheduler::prio_slot(rt99), 0);
  EXPECT_EQ(kernel::O1Scheduler::prio_slot(rt1), 98);
  EXPECT_EQ(kernel::O1Scheduler::prio_slot(nice0), 120);
  EXPECT_EQ(kernel::O1Scheduler::prio_slot(nice19), 139);
}

TEST(O1Scheduler, IdleCpuStealsFromBusiest) {
  auto cfg = config::KernelConfig::redhawk_1_4();
  kernel::O1Scheduler s(cfg, sim::Rng(1));
  s.init(2);
  auto a = make_task(1, kernel::SchedPolicy::kOther, 0, 0, hw::CpuMask(0b11));
  auto b = make_task(2, kernel::SchedPolicy::kOther, 0, 0, hw::CpuMask(0b11));
  s.enqueue(a, 0);
  s.enqueue(b, 0);
  // CPU 1 has an empty queue but can pull from CPU 0.
  kernel::Task* stolen = s.pick_next(1);
  ASSERT_NE(stolen, nullptr);
  EXPECT_EQ(stolen->migrations, 1u);
  EXPECT_EQ(s.nr_runnable(0), 1u);
}

TEST(O1Scheduler, StealHonorsAffinity) {
  auto cfg = config::KernelConfig::redhawk_1_4();
  kernel::O1Scheduler s(cfg, sim::Rng(1));
  s.init(2);
  auto pinned = make_task(1, kernel::SchedPolicy::kOther, 0, 0, hw::CpuMask(0b1));
  s.enqueue(pinned, 0);
  EXPECT_EQ(s.pick_next(1), nullptr);  // cannot steal a CPU-0-pinned task
}

// The priority bitmap must track each level through empty and back: a level
// emptied by dequeue, or by a pick, and then refilled is found again ahead
// of lower levels, and a level that loses a task to a dequeue or a pick
// keeps the rest.
TEST(O1Scheduler, RefilledLevelIsFoundAgain) {
  auto cfg = config::KernelConfig::redhawk_1_4();
  kernel::O1Scheduler s(cfg, sim::Rng(1));
  s.init(1);
  auto rt = make_task(1, kernel::SchedPolicy::kFifo, 50, 0, hw::CpuMask(0b1));
  auto a = make_task(2, kernel::SchedPolicy::kOther, 0, 0, hw::CpuMask(0b1));
  auto b = make_task(3, kernel::SchedPolicy::kOther, 0, 0, hw::CpuMask(0b1));
  auto c = make_task(4, kernel::SchedPolicy::kOther, 0, 0, hw::CpuMask(0b1));
  s.enqueue(rt, 0);
  s.enqueue(a, 0);
  s.enqueue(b, 0);
  s.enqueue(c, 0);
  s.dequeue(rt);  // empties the RT level
  s.enqueue(rt, 0);
  EXPECT_EQ(s.pick_next(0), &rt);  // emptied by the pick this time
  s.enqueue(rt, 0);
  EXPECT_EQ(s.pick_next(0), &rt);
  s.dequeue(a);  // the OTHER level still holds b and c
  EXPECT_EQ(s.pick_next(0), &b);
  EXPECT_EQ(s.pick_next(0), &c);
  EXPECT_EQ(s.pick_next(0), nullptr);
  EXPECT_EQ(s.nr_runnable(0), 0u);
}

// A non-empty level whose only tasks may not run on the picking CPU is
// passed over, and the pick comes back with the next level's task.
TEST(O1Scheduler, LevelOfDisallowedTasksIsSkipped) {
  auto cfg = config::KernelConfig::redhawk_1_4();
  kernel::O1Scheduler s(cfg, sim::Rng(1));
  s.init(2);
  auto elsewhere = make_task(1, kernel::SchedPolicy::kFifo, 90, 0,
                             hw::CpuMask(0b10));
  auto here = make_task(2, kernel::SchedPolicy::kFifo, 10, 0, hw::CpuMask(0b11));
  s.enqueue(elsewhere, 0);
  s.enqueue(here, 0);
  EXPECT_EQ(s.pick_next(0), &here);
  EXPECT_TRUE(elsewhere.on_runqueue);
  EXPECT_EQ(s.nr_runnable(0), 1u);
  EXPECT_EQ(s.pick_next(1), &elsewhere);  // a steal: CPU 1's queue is empty
}

// A steal from a busiest queue that holds only tasks the idle CPU may not
// run finds nothing, and leaves that queue as it was.
TEST(O1Scheduler, StealFromQueueOfDisallowedTasksReturnsNull) {
  auto cfg = config::KernelConfig::redhawk_1_4();
  kernel::O1Scheduler s(cfg, sim::Rng(1));
  s.init(2);
  auto rt = make_task(1, kernel::SchedPolicy::kFifo, 50, 0, hw::CpuMask(0b1));
  auto other = make_task(2, kernel::SchedPolicy::kOther, 0, 0, hw::CpuMask(0b1));
  s.enqueue(rt, 0);
  s.enqueue(other, 0);
  EXPECT_EQ(s.pick_next(1), nullptr);
  EXPECT_EQ(s.nr_runnable(0), 2u);
  EXPECT_EQ(rt.migrations + other.migrations, 0u);
  EXPECT_EQ(s.pick_next(0), &rt);
  EXPECT_EQ(s.pick_next(0), &other);
}

TEST(GoodnessScheduler, EpochRefillsExhaustedCounters) {
  auto cfg = config::KernelConfig::vanilla_2_4_20();
  kernel::GoodnessScheduler s(cfg, sim::Rng(1));
  s.init(1);
  auto a = make_task(1, kernel::SchedPolicy::kOther, 0, 0, hw::CpuMask(0b1));
  auto b = make_task(2, kernel::SchedPolicy::kOther, 0, 0, hw::CpuMask(0b1));
  a.timeslice_remaining = 0;
  b.timeslice_remaining = 0;
  a.cpu = 0;  // a has the cache-affinity bonus
  s.enqueue(a, 0);
  s.enqueue(b, 0);
  kernel::Task* first = s.pick_next(0);
  ASSERT_NE(first, nullptr);
  // Epoch refilled both counters.
  EXPECT_GT(a.timeslice_remaining + b.timeslice_remaining, 0u);
}
