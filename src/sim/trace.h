// Latency-chain tracing.
//
// `ChainTracer` records structured latency chains. A chain opens when a
// device raises an interrupt (or a kernel timer expires) and follows the
// wakeup through the kernel: irq-raise → handler → wakeup → runqueue wait →
// context switch → kernel exit, with spin-wait intervals split out by lock.
// Closing a chain yields a `LatencyChain` whose segments partition
// [start, end] exactly, so a worst-case histogram sample can be decomposed
// into the kernel paths that produced it (§6.2's analysis of why /dev/rtc
// is slow and the RCIM ioctl path is not).
//
// The tracer is off by default, so the hot paths cost one id validity
// check at every emit site.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "sim/time.h"

namespace sim {

/// What a stretch of a latency chain was spent on. One kind per segment;
/// a chain's segments partition [start, end] in order.
enum class SegmentKind : std::uint8_t {
  kIrqRaise,       ///< device raise → hardirq entry (wire delay + masked time)
  kIrqHandler,     ///< hardirq handler execution up to the wakeup
  kSoftirq,        ///< bottom-half execution on the wakeup path
  kTimerExpiry,    ///< kernel timer wheel expiry processing
  kRunqueueWait,   ///< woken but waiting for the CPU (incl. current's exit)
  kContextSwitch,  ///< scheduler pick + switch cost
  kSpinWait,       ///< busy-waiting on a contended spinlock (detail = lock)
  kKernelExit,     ///< in-kernel work on the woken path back to user space
  kOobDispatch,    ///< out-of-band stage handler dispatch (fixed cost)
  kOobSwitch,      ///< out-of-band stage task switch-in (fixed cost)
};

const char* to_string(SegmentKind k);

/// Handle to a chain in flight. Encodes slot + generation; a stale id
/// (chain already closed, slot reused) is rejected by every operation.
struct ChainId {
  std::uint64_t raw = 0;  ///< 0 means "no chain".

  [[nodiscard]] bool valid() const { return raw != 0; }
  friend bool operator==(ChainId, ChainId) = default;
};

struct ChainSegment {
  SegmentKind kind;
  int cpu = -1;
  Time begin = 0;
  Time end = 0;
  std::string detail;  ///< e.g. the contended lock's name; usually empty

  [[nodiscard]] Duration span() const { return end - begin; }
};

/// A completed chain. `segments` partition [start, end] exactly:
/// segment_total() == total() by construction.
struct LatencyChain {
  std::string origin;  ///< e.g. "irq8", "ktimer"
  Time start = 0;
  Time end = 0;
  std::vector<ChainSegment> segments;

  [[nodiscard]] Duration total() const { return end - start; }
  [[nodiscard]] Duration segment_total() const;
  /// Sum of the spans of every segment of one kind.
  [[nodiscard]] Duration total_for(SegmentKind k) const;
};

/// Records latency chains. Runtime-toggleable (`enable`/`disable`). Emit
/// sites follow the pattern: `open()` returns an invalid id when disabled,
/// and `mark`/`close`/`abandon` on an invalid id are single-branch no-ops —
/// so a disabled tracer never allocates and never perturbs the simulation.
///
/// The tracer only *reads* simulation time; it never schedules events or
/// draws random numbers, so enabling it cannot change the event stream.
class ChainTracer {
 public:
  /// Start recording. At most `max_live` chains may be in flight; opens
  /// beyond that are dropped (counted in dropped()).
  void enable(std::size_t max_live = 1024);
  /// Stop recording and abandon every chain still in flight.
  void disable();
  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Open a chain at `at`. Returns an invalid id when disabled or at the
  /// live cap; all downstream operations on that id are no-ops.
  ChainId open(std::string origin, Time at);

  /// Append a segment of `kind` covering [last mark, at]. A mark earlier
  /// than the previous one is clamped (zero-width), keeping the partition
  /// exact even when marks arrive out of order across CPUs.
  void mark(ChainId id, SegmentKind kind, int cpu, Time at,
            std::string detail = {});

  /// Mark the final segment and complete the chain. Returns the finished
  /// chain, or nullopt for an invalid/stale id.
  std::optional<LatencyChain> close(ChainId id, SegmentKind kind, int cpu,
                                    Time at);

  /// Drop a chain without completing it (task died, wakeup superseded).
  void abandon(ChainId id);

  [[nodiscard]] bool alive(ChainId id) const { return resolve(id) != nullptr; }

  [[nodiscard]] std::uint64_t opened() const { return opened_; }
  [[nodiscard]] std::uint64_t completed() const { return completed_; }
  [[nodiscard]] std::uint64_t abandoned() const { return abandoned_; }
  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }
  [[nodiscard]] std::size_t live() const { return live_; }

  /// Zero the opened/completed/abandoned/dropped statistics. Chains in
  /// flight are untouched — they are control state, and closing them later
  /// counts toward the new window.
  void reset_stats() {
    opened_ = 0;
    completed_ = 0;
    abandoned_ = 0;
    dropped_ = 0;
  }

 private:
  struct Chain {
    std::uint32_t gen = 1;
    bool open = false;
    std::string origin;
    Time start = 0;
    Time last = 0;  ///< end of the most recent segment
    std::vector<ChainSegment> segments;
  };

  [[nodiscard]] const Chain* resolve(ChainId id) const;
  [[nodiscard]] Chain* resolve(ChainId id);
  void release(std::uint32_t index);

  std::vector<Chain> chains_;
  std::vector<std::uint32_t> free_;
  bool enabled_ = false;
  std::size_t max_live_ = 0;
  std::size_t live_ = 0;
  std::uint64_t opened_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t abandoned_ = 0;
  std::uint64_t dropped_ = 0;
};

}  // namespace sim
