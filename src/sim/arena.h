// Snapshot-capable allocation arena.
//
// A StateArena owns one large reserved address range and serves every
// `operator new` issued while the arena is *active* on the calling thread
// (see Scope). Because all mutable platform state then lives at stable
// addresses inside one contiguous range, a byte copy of the used region
// plus the allocator cursor (Mark) is a complete, restorable checkpoint of
// an arbitrarily tangled object graph — including std::function closures,
// vtable pointers and raw cross-object pointers, none of which could be
// serialized field-by-field. Snapshot (snapshot.h) builds on exactly this.
//
// Contract:
//  * One thread uses an arena at a time (each caller owns its pooled arena
//    while it uses it). The *routing* of frees is cross-thread safe — a
//    pointer inside any live arena's range is returned to that arena — but
//    concurrent alloc/free on one arena is not.
//  * Objects allocated while active must be destroyed (or rolled back via
//    restore) before the arena is reset. Restore does not run destructors;
//    it rewinds memory, which is only sound when every object beyond the
//    mark either was already destroyed or holds no resources outside the
//    arena. Platform state satisfies this by construction: the simulator
//    owns no OS handles, and all its heap allocations are arena-routed.
//  * Arenas are pooled and their mappings are never released back to the
//    OS while the process runs (acquire_pooled/release_pooled), so a stale
//    pointer from a function-local static can never point into unmapped
//    memory.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

namespace sim {

class StateArena {
 public:
  /// Size classes: payloads of 16 << i bytes, i in [0, kClasses). Larger
  /// blocks are bump-allocated and not reused until restore()/reset().
  static constexpr std::size_t kClasses = 17;  // 16 B .. 1 MiB
  static constexpr std::size_t kMaxClassBytes = std::size_t{16}
                                                << (kClasses - 1);

  /// Allocator cursor: everything needed (besides the region bytes) to
  /// return the arena to an earlier allocation state.
  struct Mark {
    std::size_t bump = 0;
    std::array<void*, kClasses> free_heads{};
  };

  /// Reserve `reserve_bytes` of address space (committed lazily by the
  /// OS as it is touched). Throws std::bad_alloc when the mapping fails.
  explicit StateArena(std::size_t reserve_bytes = kDefaultReserveBytes);
  ~StateArena();
  StateArena(const StateArena&) = delete;
  StateArena& operator=(const StateArena&) = delete;

  /// RAII activation: while alive, global operator new on this thread is
  /// served from the arena. Nests; pause() temporarily reverts to the
  /// previous allocator (used to copy results out to ordinary heap).
  class Scope {
   public:
    explicit Scope(StateArena& arena);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    void pause();
    void resume();

   private:
    StateArena* arena_;
    StateArena* prev_;
    bool active_ = false;
  };

  /// The arena currently active on this thread, or nullptr.
  static StateArena* current();

  /// Serve an allocation (size-class freelist first, bump otherwise).
  /// Throws std::bad_alloc when the reserved range is exhausted — there is
  /// deliberately no fallback to malloc, which would silently break the
  /// byte-copy snapshot invariant.
  void* allocate(std::size_t size, std::size_t align);

  /// Return a block previously handed out by allocate(). Safe to call from
  /// any thread and whether or not the arena is active.
  void deallocate(void* p);

  /// True when `p` lies inside this arena's reserved range.
  [[nodiscard]] bool contains(const void* p) const {
    const auto* b = static_cast<const std::byte*>(p);
    return b >= base_ && b < base_ + reserve_;
  }

  /// Route `p` to the arena that owns it, or return false when `p` is not
  /// inside any live arena (i.e. it came from malloc).
  static bool deallocate_routed(void* p);

  [[nodiscard]] Mark mark() const;
  /// Rewind the cursor to `m`. The caller is responsible for the region
  /// bytes themselves (Snapshot::restore copies them back first).
  void restore_mark(const Mark& m);

  /// Drop every allocation (no destructors run — see class contract).
  void reset();

  [[nodiscard]] const std::byte* base() const { return base_; }
  [[nodiscard]] std::size_t used() const { return bump_; }
  [[nodiscard]] std::size_t reserved() const { return reserve_; }
  [[nodiscard]] std::size_t high_water() const { return high_water_; }
  [[nodiscard]] std::uint64_t live_blocks() const { return live_blocks_; }

  /// Process-wide arena pool. Arenas come out reset; their mappings stay
  /// alive for the life of the process (see class comment).
  static StateArena* acquire_pooled();
  static void release_pooled(StateArena* arena);

  static constexpr std::size_t kDefaultReserveBytes = std::size_t{512} << 20;

 private:
  struct BlockHeader;  // 16-byte header preceding every payload

  void* bump_allocate(std::size_t payload, std::size_t align);

  std::byte* base_ = nullptr;
  std::size_t reserve_ = 0;
  std::size_t bump_ = 0;
  std::size_t high_water_ = 0;
  std::uint64_t live_blocks_ = 0;
  std::array<void*, kClasses> free_heads_{};
};

/// Pool handle: acquire on construction, release (after reset) on
/// destruction.
class PooledArena {
 public:
  PooledArena() : arena_(StateArena::acquire_pooled()) {}
  ~PooledArena() {
    if (arena_ != nullptr) StateArena::release_pooled(arena_);
  }
  PooledArena(const PooledArena&) = delete;
  PooledArena& operator=(const PooledArena&) = delete;
  StateArena& operator*() const { return *arena_; }
  StateArena* operator->() const { return arena_; }
  StateArena* get() const { return arena_; }

 private:
  StateArena* arena_;
};

}  // namespace sim
