// Checkpoint/restore of arena-hosted engine state.
//
// A Snapshot is a byte copy of a StateArena's used region plus the
// allocator cursor. Restoring copies the bytes back *in place* — every
// object returns to exactly the address it occupied at capture time, so
// interior pointers, vtables and captured closures remain valid without
// any per-type serialization. That makes a snapshot of a warmed-up
// Platform a complete engine checkpoint: event-queue slots and heap keys
// with their generation tags, RNG streams, per-CPU kernel state, device
// state and telemetry cells are all just bytes in the arena.
//
// No simulation run forks from a snapshot. The layer stays because
// perfbench's set-up probe, which is frozen with the benchmark, builds and
// captures platforms with it; ScenarioRunner::snapshot_bit_identity checks
// it. Soundness requirements (kept by those two callers):
//  * capture/restore only between events, with no live references held by
//    code outside the arena to objects allocated after the mark;
//  * objects created after capture must be destroyed before restore (their
//    memory is rewound; their destructors will never run afterwards);
//  * the snapshot buffer itself lives on the ordinary heap (std::malloc,
//    never routed to an arena), so a snapshot survives any arena rewind.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>

#include "sim/arena.h"

namespace sim {

class Snapshot {
 public:
  Snapshot() = default;

  /// Copy the arena's used region and cursor. Safe to call while the arena
  /// is active (the buffer is allocated with std::malloc directly).
  [[nodiscard]] static Snapshot capture(const StateArena& arena);

  /// Copy the bytes back and rewind the cursor. All allocations made since
  /// capture are discarded without running destructors (see header note).
  void restore(StateArena& arena) const;

  [[nodiscard]] bool valid() const { return data_ != nullptr; }
  [[nodiscard]] std::size_t bytes() const { return size_; }

 private:
  struct FreeDeleter {
    void operator()(std::byte* p) const;
  };

  StateArena::Mark mark_;
  std::unique_ptr<std::byte[], FreeDeleter> data_;
  std::size_t size_ = 0;
};

}  // namespace sim
