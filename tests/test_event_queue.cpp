#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <tuple>
#include <unordered_set>
#include <utility>
#include <vector>

#include "sim/event_queue.h"

using sim::EventId;
using sim::EventQueue;

TEST(EventQueue, EmptyInitially) {
  EventQueue q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
}

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule_at(30, [&] { order.push_back(3); });
  q.schedule_at(10, [&] { order.push_back(1); });
  q.schedule_at(20, [&] { order.push_back(2); });
  while (!q.empty()) {
    auto [t, cb] = q.pop();
    cb();
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, EqualTimesFifo) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.schedule_at(5, [&order, i] { order.push_back(i); });
  }
  while (!q.empty()) q.pop().second();
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
  }
}

TEST(EventQueue, NextTimeReflectsEarliest) {
  EventQueue q;
  q.schedule_at(100, [] {});
  EXPECT_EQ(q.next_time(), 100u);
  q.schedule_at(50, [] {});
  EXPECT_EQ(q.next_time(), 50u);
}

TEST(EventQueue, CancelRemovesEvent) {
  EventQueue q;
  bool fired = false;
  const EventId id = q.schedule_at(10, [&] { fired = true; });
  EXPECT_TRUE(q.cancel(id));
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(fired);
}

TEST(EventQueue, CancelIsIdempotent) {
  EventQueue q;
  const EventId id = q.schedule_at(10, [] {});
  EXPECT_TRUE(q.cancel(id));
  EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueue, CancelAfterFireIsNoop) {
  EventQueue q;
  const EventId id = q.schedule_at(10, [] {});
  q.pop().second();
  EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueue, InvalidIdCancelIsNoop) {
  EventQueue q;
  EXPECT_FALSE(q.cancel(EventId{}));
}

TEST(EventQueue, CancelledEventsSkippedOnPop) {
  EventQueue q;
  std::vector<int> order;
  q.schedule_at(1, [&] { order.push_back(1); });
  const EventId mid = q.schedule_at(2, [&] { order.push_back(2); });
  q.schedule_at(3, [&] { order.push_back(3); });
  q.cancel(mid);
  EXPECT_EQ(q.size(), 2u);
  while (!q.empty()) q.pop().second();
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
}

TEST(EventQueue, NextTimeSkipsCancelledPrefix) {
  EventQueue q;
  const EventId early = q.schedule_at(1, [] {});
  q.schedule_at(10, [] {});
  q.cancel(early);
  EXPECT_EQ(q.next_time(), 10u);
}

namespace {

/// A plain (time, seq) min-heap with a lazy-cancellation set — the
/// simplest correct calendar — kept as the ordering oracle for the
/// randomized cross-checks below.
class ReferenceQueue {
 public:
  std::uint64_t schedule_at(sim::Time at, int tag) {
    const std::uint64_t seq = next_seq_++;
    heap_.push_back(Entry{at, seq, tag});
    std::push_heap(heap_.begin(), heap_.end());
    pending_.insert(seq);
    return seq;
  }

  bool cancel(std::uint64_t seq) { return pending_.erase(seq) > 0; }

  [[nodiscard]] std::size_t size() const { return pending_.size(); }

  sim::Time next_time() {
    drop_dead_prefix();
    return heap_.front().at;
  }

  std::pair<sim::Time, int> pop() {
    drop_dead_prefix();
    std::pop_heap(heap_.begin(), heap_.end());
    const Entry e = heap_.back();
    heap_.pop_back();
    pending_.erase(e.seq);
    return {e.at, e.tag};
  }

 private:
  struct Entry {
    sim::Time at;
    std::uint64_t seq;
    int tag;

    friend bool operator<(const Entry& a, const Entry& b) {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;
    }
  };

  void drop_dead_prefix() {
    while (!heap_.empty() && !pending_.contains(heap_.front().seq)) {
      std::pop_heap(heap_.begin(), heap_.end());
      heap_.pop_back();
    }
  }

  std::vector<Entry> heap_;
  std::unordered_set<std::uint64_t> pending_;
  std::uint64_t next_seq_ = 1;
};

}  // namespace

// Property test: on randomized schedule/cancel/pop sequences the calendar
// pops exactly the events the reference heap pops, at the same times, in
// the same order. Offsets span zero (equal-time FIFO against `now`) to
// beyond 2^40 ns, and the live count grows into the thousands, so sifts
// run over deep heaps as well as shallow ones.
TEST(EventQueue, MatchesReferenceHeapOnRandomizedOps) {
  std::mt19937_64 rng(20030415);
  for (int round = 0; round < 10; ++round) {
    EventQueue q;
    ReferenceQueue ref;
    struct LiveEvent {
      EventId id;
      std::uint64_t ref_seq;
    };
    std::vector<LiveEvent> live;
    std::vector<int> popped;  // filled by calendar callbacks
    sim::Time now = 0;
    int next_tag = 0;

    for (int op = 0; op < 20'000; ++op) {
      const auto dice = rng() % 100;
      if (dice < 55) {
        // Schedule at now + an offset spanning from 0 ns to past 2^40 ns
        // (~18 minutes), biased small like the simulator.
        const int magnitude = static_cast<int>(rng() % 15);
        const sim::Time offset = rng() % (sim::Time{1} << magnitude * 3);
        const int tag = next_tag++;
        const EventId id =
            q.schedule_at(now + offset, [tag, &popped] { popped.push_back(tag); });
        const std::uint64_t ref_seq = ref.schedule_at(now + offset, tag);
        live.push_back(LiveEvent{id, ref_seq});
      } else if (dice < 80 && !live.empty()) {
        const std::size_t pick = rng() % live.size();
        const LiveEvent victim = live[pick];
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
        ASSERT_EQ(q.cancel(victim.id), ref.cancel(victim.ref_seq));
      } else if (ref.size() > 0) {
        ASSERT_EQ(q.size(), ref.size());
        ASSERT_EQ(q.next_time(), ref.next_time());
        auto [at, cb] = q.pop();
        const auto [ref_at, ref_tag] = ref.pop();
        ASSERT_EQ(at, ref_at);
        cb();
        ASSERT_FALSE(popped.empty());
        ASSERT_EQ(popped.back(), ref_tag);
        now = std::max(now, at);
        // Fired events stay in `live` on purpose: a later "cancel" of one
        // checks that both implementations agree it is a no-op.
      }
    }
    // Drain: the remaining pop order must match exactly.
    while (ref.size() > 0) {
      ASSERT_EQ(q.size(), ref.size());
      auto [at, cb] = q.pop();
      const auto [ref_at, ref_tag] = ref.pop();
      ASSERT_EQ(at, ref_at);
      cb();
      ASSERT_EQ(popped.back(), ref_tag);
    }
    EXPECT_TRUE(q.empty());
  }
}

// The same cross-check at the depth the simulator runs at: never more than
// 16 live events, with cancels from the middle of the heap and pops from
// its root (half of them through the engine's pop_before) doing most of
// the work — the two paths that refill a hole with the last key.
TEST(EventQueue, MatchesReferenceHeapAtSimulatorDepth) {
  std::mt19937_64 rng(20031015);
  EventQueue q;
  ReferenceQueue ref;
  struct Pending {
    EventId id;
    std::uint64_t ref_seq;
    int tag;
  };
  std::vector<Pending> pending;
  std::vector<int> popped;
  sim::Time now = 0;
  int next_tag = 0;
  for (int op = 0; op < 200'000; ++op) {
    const auto dice = rng() % 100;
    if (pending.empty() || (dice < 50 && pending.size() < 16)) {
      // A quarter land exactly at `now`, ties broken by insertion order.
      const sim::Time at = now + (rng() % 4 == 0 ? 0 : rng() % 100'000);
      const int tag = next_tag++;
      pending.push_back(
          Pending{q.schedule_at(at, [tag, &popped] { popped.push_back(tag); }),
                  ref.schedule_at(at, tag), tag});
    } else if (dice < 75) {
      const std::size_t pick = rng() % pending.size();
      const Pending victim = pending[pick];
      pending.erase(pending.begin() + static_cast<std::ptrdiff_t>(pick));
      ASSERT_TRUE(q.cancel(victim.id));
      ASSERT_TRUE(ref.cancel(victim.ref_seq));
      ASSERT_FALSE(q.cancel(victim.id));
    } else {
      const sim::Time first = ref.next_time();
      ASSERT_EQ(q.next_time(), first);
      sim::Time at = 0;
      EventQueue::Callback cb;
      if (dice % 2 == 0) {
        // A deadline just short of the front must leave the queue alone.
        if (first > now) {
          ASSERT_FALSE(q.pop_before(first - 1, at, cb));
        }
        ASSERT_TRUE(q.pop_before(first, at, cb));
      } else {
        std::tie(at, cb) = q.pop();
      }
      const auto [ref_at, ref_tag] = ref.pop();
      ASSERT_EQ(at, ref_at);
      cb();
      ASSERT_EQ(popped.back(), ref_tag);
      std::erase_if(pending, [&](const Pending& p) { return p.tag == ref_tag; });
      now = at;
    }
    ASSERT_LE(q.size(), 16u);
    ASSERT_EQ(q.size(), ref.size());
    ASSERT_EQ(q.size(), pending.size());
    if (!q.empty()) {
      ASSERT_EQ(q.next_time(), ref.next_time());
    }
  }
  EXPECT_EQ(q.slot_capacity(), 16u);
}

// Regression for the unbounded-growth bug: a lazy-cancellation heap only
// reclaims cancelled entries when they surface at the top, so a
// schedule+cancel loop against far-future times grows it without bound.
// Cancel removes its entry at once, so slot memory is exactly the peak
// live count.
TEST(EventQueue, MillionCancelsStayMemoryBounded) {
  EventQueue q;
  sim::Time t = 0;
  for (int i = 0; i < 1'000'000; ++i) {
    const EventId id = q.schedule_at(t += 1000, [] {});
    ASSERT_TRUE(q.cancel(id));
  }
  EXPECT_EQ(q.size(), 0u);
  EXPECT_TRUE(q.empty());
  // Peak live count is 1, and a cancelled slot is free for the next event.
  EXPECT_EQ(q.slot_capacity(), 1u);
}

TEST(EventQueue, CancelHeavyChurnWithLiveBacklogStaysBounded) {
  EventQueue q;
  std::vector<EventId> backlog;
  sim::Time t = 0;
  for (int i = 0; i < 10'000; ++i) backlog.push_back(q.schedule_at(t += 500, [] {}));
  for (int i = 0; i < 200'000; ++i) {
    const EventId id = q.schedule_at(t += 500, [] {});
    ASSERT_TRUE(q.cancel(id));
  }
  EXPECT_EQ(q.size(), 10'000u);
  // The backlog plus the one slot every schedule+cancel pair reuses.
  EXPECT_EQ(q.slot_capacity(), 10'001u);
  for (const EventId id : backlog) EXPECT_TRUE(q.cancel(id));
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, StaleIdCannotCancelRecycledSlot) {
  EventQueue q;
  const EventId first = q.schedule_at(10, [] {});
  q.pop().second();  // fires; the slot is recycled
  const EventId second = q.schedule_at(20, [] {});
  EXPECT_FALSE(q.cancel(first));  // stale id must not hit the reused slot
  EXPECT_EQ(q.size(), 1u);
  EXPECT_TRUE(q.cancel(second));
}

// Events around 2^40 ns (~18 minutes), next to one near zero, must fire
// strictly in (time, insertion) order however far apart they are.
TEST(EventQueue, FarFutureTimesKeepTimeAndInsertionOrder) {
  EventQueue q;
  const sim::Time span = sim::Time{1} << 40;
  std::vector<int> order;
  q.schedule_at(span + 1, [&] { order.push_back(4); });
  q.schedule_at(span - 1, [&] { order.push_back(2); });
  q.schedule_at(span, [&] { order.push_back(3); });
  q.schedule_at(5, [&] { order.push_back(1); });
  q.schedule_at(span, [&] { order.push_back(5); });  // same time: FIFO after 3
  while (!q.empty()) q.pop().second();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 5, 4}));
}

// After a pop far ahead of the last one, the far events must still drain
// in order, skip an entry cancelled before the jump, and interleave
// correctly with an event scheduled between two of them mid-drain.
TEST(EventQueue, FarEventsDrainInOrderAfterTimeJump) {
  EventQueue q;
  const sim::Time far = sim::Time{1} << 41;
  std::vector<int> order;
  q.schedule_at(100, [&] { order.push_back(0); });
  std::vector<EventId> far_ids;
  for (int i = 0; i < 8; ++i) {
    far_ids.push_back(q.schedule_at(far + static_cast<sim::Time>(i) * 10,
                                    [&order, i] { order.push_back(1 + i); }));
  }
  EXPECT_TRUE(q.cancel(far_ids[3]));  // cancelled before the jump
  auto [t0, cb0] = q.pop();
  EXPECT_EQ(t0, 100u);
  cb0();
  // The next pop jumps time forward by 2^41 ns.
  EXPECT_EQ(q.next_time(), far);
  auto [t1, cb1] = q.pop();
  EXPECT_EQ(t1, far);
  cb1();
  // Mid-drain, drop a new event between two of the far events.
  q.schedule_at(far + 15, [&] { order.push_back(100); });
  while (!q.empty()) q.pop().second();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 100, 3, 5, 6, 7, 8}));
}

// A burst of cancels frees many slots, which the next burst of schedules
// reuses. Ids of the cancelled events must stay stale after their slots
// are reused, and the survivor must be unaffected.
TEST(EventQueue, StaleIdsAfterMassCancelCannotCancelReusedSlots) {
  EventQueue q;
  const EventId keeper = q.schedule_at(1'000'000, [] {});
  std::vector<EventId> doomed;
  for (int i = 0; i < 200; ++i) {
    doomed.push_back(
        q.schedule_at(2'000'000 + static_cast<sim::Time>(i), [] {}));
  }
  for (const EventId id : doomed) ASSERT_TRUE(q.cancel(id));
  EXPECT_EQ(q.size(), 1u);
  int fired = 0;
  for (int i = 0; i < 200; ++i) {
    q.schedule_at(3'000'000 + static_cast<sim::Time>(i), [&] { ++fired; });
  }
  for (const EventId id : doomed) EXPECT_FALSE(q.cancel(id));
  EXPECT_TRUE(q.cancel(keeper));
  EXPECT_EQ(q.size(), 200u);
  sim::Time prev = 0;
  while (!q.empty()) {
    auto [t, cb] = q.pop();
    EXPECT_GE(t, prev);
    prev = t;
    cb();
  }
  EXPECT_EQ(fired, 200);
}

// The LIFO free list makes one slot absorb every schedule/fire cycle; each
// reuse bumps its generation tag. Every previously issued id must stay
// stale across thousands of reuses (the 40-bit generation wraps only after
// ~10^12 reuses of one slot — the old 32-bit tag was within reach of a
// long cancel-heavy run).
TEST(EventQueue, HotSlotReuseKeepsStaleIdsStale) {
  EventQueue q;
  std::vector<EventId> stale;
  for (int i = 0; i < 10'000; ++i) {
    const EventId id = q.schedule_at(static_cast<sim::Time>(i), [] {});
    q.pop().second();
    stale.push_back(id);
  }
  const EventId live = q.schedule_at(99, [] {});
  for (const EventId id : stale) ASSERT_FALSE(q.cancel(id));
  EXPECT_TRUE(q.cancel(live));
}

TEST(EventQueue, ManyInterleavedOpsStayConsistent) {
  EventQueue q;
  std::vector<EventId> ids;
  for (int round = 0; round < 100; ++round) {
    for (int i = 0; i < 10; ++i) {
      ids.push_back(
          q.schedule_at(static_cast<sim::Time>(round * 10 + i), [] {}));
    }
    // Cancel every other one from this round.
    for (std::size_t i = ids.size() - 10; i < ids.size(); i += 2) {
      q.cancel(ids[i]);
    }
  }
  EXPECT_EQ(q.size(), 500u);
  sim::Time prev = 0;
  std::size_t popped = 0;
  while (!q.empty()) {
    auto [t, cb] = q.pop();
    EXPECT_GE(t, prev);
    prev = t;
    ++popped;
  }
  EXPECT_EQ(popped, 500u);
}
