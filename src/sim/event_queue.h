// The discrete-event calendar.
//
// An indexed binary min-heap. Events live in a slab of generation-tagged
// slots; the heap holds one 24-byte (time, seq, slot) key per live event,
// and each slot records where its key sits in the heap. Schedule and pop
// are O(log n) sifts over contiguous keys, and cancel removes its key at
// once, also in O(log n): there are no tombstones, so memory follows the
// peak live count exactly.
//
// The simulator keeps few events pending (never more than 11 over the
// whole builtin registry at smoke scale; 3-8 for realfeel under
// stress-kernel), so the heap is a handful of cache lines. Keys order by
// (time, seq), a total order: equal-time events fire in insertion order,
// and pops — and with them bit-reproducible runs — do not depend on slot
// reuse or heap shape.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/callback.h"
#include "sim/time.h"

namespace sim {

/// Opaque handle to a scheduled event; used to cancel it. Encodes a 24-bit
/// slot index plus a 40-bit generation tag, so a stale id (already fired or
/// cancelled, slot since reused) can never cancel somebody else's event.
/// 40 generation bits put the wrap beyond 10^12 reuses of one slot — out of
/// reach for any run this simulator can complete (a 32-bit tag was not: the
/// free list is LIFO, so a hot slot could wrap in a long cancel-heavy run
/// and let a stale id cancel an innocent event).
struct EventId {
  std::uint64_t raw = 0;  ///< 0 means "no event".

  [[nodiscard]] bool valid() const { return raw != 0; }
  friend bool operator==(EventId, EventId) = default;
};

/// Priority queue of timed callbacks.
class EventQueue {
 public:
  using Callback = sim::Callback;

  EventQueue() = default;

  /// Schedule `cb` at absolute time `at`. Events at equal times fire in
  /// insertion order.
  EventId schedule_at(Time at, Callback cb);

  /// Remove a pending event in O(log n). Cancelling an already-fired or
  /// already-cancelled event is a harmless no-op (returns false).
  bool cancel(EventId id);

  /// True if no live events remain.
  [[nodiscard]] bool empty() const { return heap_.empty(); }

  /// Number of live (non-cancelled, non-fired) events.
  [[nodiscard]] std::size_t size() const { return heap_.size(); }

  /// Timestamp of the next live event. Requires !empty().
  [[nodiscard]] Time next_time() const;

  /// Pop and return the next live event. Requires !empty().
  std::pair<Time, Callback> pop();

  /// Pop the next live event only if it fires at or before `deadline`;
  /// false (and no state change) otherwise or when the queue is empty. One
  /// front comparison per event where next_time() + pop() would do it
  /// twice — the engine's run_until hot path.
  bool pop_before(Time deadline, Time& at, Callback& cb);

  /// Number of event slots ever allocated (live + free). Exposed so tests
  /// can assert cancel-heavy runs stay memory-bounded.
  [[nodiscard]] std::size_t slot_capacity() const { return slots_.size(); }

 private:
  /// EventId bit split: high 24 bits slot index, low 40 bits generation.
  static constexpr int kGenBits = 40;
  static constexpr std::uint64_t kGenMask = (std::uint64_t{1} << kGenBits) - 1;
  static constexpr std::size_t kMaxSlots = std::size_t{1} << (64 - kGenBits);
  static constexpr std::uint32_t kFree = ~std::uint32_t{0};

  struct Slot {
    Callback cb;
    std::uint64_t gen = 1;      ///< 40 usable bits (see kGenBits)
    std::uint32_t pos = kFree;  ///< index of this slot's key in heap_
  };

  /// Sort key mirrored out of the slot so sifts touch 24 contiguous bytes
  /// instead of whole slots.
  struct Key {
    Time at;
    std::uint64_t seq;
    std::uint32_t slot;
  };

  static bool before(const Key& a, const Key& b) {
    if (a.at != b.at) return a.at < b.at;
    return a.seq < b.seq;
  }

  /// Move the key at heap index `i` up or down to its place, recording the
  /// new position of every key moved.
  void sift_up(std::size_t i);
  void sift_down(std::size_t i);
  /// Take the key at heap index `i` out of the heap and free its slot.
  void remove_at(std::size_t i);

  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::vector<Key> heap_;
  std::uint64_t next_seq_ = 1;
};

}  // namespace sim
