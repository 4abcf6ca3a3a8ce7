#include "sim/trace.h"

#include <utility>

namespace sim {

const char* to_string(SegmentKind k) {
  switch (k) {
    case SegmentKind::kIrqRaise: return "irq-raise";
    case SegmentKind::kIrqHandler: return "irq-handler";
    case SegmentKind::kSoftirq: return "softirq";
    case SegmentKind::kTimerExpiry: return "timer-expiry";
    case SegmentKind::kRunqueueWait: return "runqueue-wait";
    case SegmentKind::kContextSwitch: return "context-switch";
    case SegmentKind::kSpinWait: return "spin-wait";
    case SegmentKind::kKernelExit: return "kernel-exit";
    case SegmentKind::kOobDispatch: return "oob-dispatch";
    case SegmentKind::kOobSwitch: return "oob-switch";
  }
  return "?";
}

Duration LatencyChain::segment_total() const {
  Duration sum = 0;
  for (const auto& s : segments) sum += s.span();
  return sum;
}

Duration LatencyChain::total_for(SegmentKind k) const {
  Duration sum = 0;
  for (const auto& s : segments) {
    if (s.kind == k) sum += s.span();
  }
  return sum;
}

void ChainTracer::enable(std::size_t max_live) {
  enabled_ = true;
  max_live_ = max_live;
}

void ChainTracer::disable() {
  enabled_ = false;
  for (std::uint32_t i = 0; i < chains_.size(); ++i) {
    if (chains_[i].open) {
      ++abandoned_;
      release(i);
    }
  }
}

const ChainTracer::Chain* ChainTracer::resolve(ChainId id) const {
  if (!id.valid()) return nullptr;
  const auto index = static_cast<std::uint32_t>(id.raw >> 32);
  const auto gen = static_cast<std::uint32_t>(id.raw);
  if (index >= chains_.size()) return nullptr;
  const Chain& c = chains_[index];
  if (c.gen != gen || !c.open) return nullptr;
  return &c;
}

ChainTracer::Chain* ChainTracer::resolve(ChainId id) {
  return const_cast<Chain*>(std::as_const(*this).resolve(id));
}

void ChainTracer::release(std::uint32_t index) {
  Chain& c = chains_[index];
  c.open = false;
  c.origin.clear();
  c.segments.clear();
  if (++c.gen == 0) c.gen = 1;  // keep ChainId.raw != 0 after wrap
  free_.push_back(index);
  --live_;
}

ChainId ChainTracer::open(std::string origin, Time at) {
  if (!enabled_) return {};
  if (live_ >= max_live_) {
    ++dropped_;
    return {};
  }
  std::uint32_t index;
  if (!free_.empty()) {
    index = free_.back();
    free_.pop_back();
  } else {
    chains_.emplace_back();
    index = static_cast<std::uint32_t>(chains_.size() - 1);
  }
  Chain& c = chains_[index];
  c.open = true;
  c.origin = std::move(origin);
  c.start = at;
  c.last = at;
  ++live_;
  ++opened_;
  return ChainId{(std::uint64_t{index} << 32) | c.gen};
}

void ChainTracer::mark(ChainId id, SegmentKind kind, int cpu, Time at,
                       std::string detail) {
  Chain* c = resolve(id);
  if (c == nullptr) return;
  // Clamp a mark earlier than the previous one to zero width (skipped), so
  // the recorded segments always partition [start, last] exactly.
  if (at <= c->last) return;
  c->segments.push_back(ChainSegment{kind, cpu, c->last, at, std::move(detail)});
  c->last = at;
}

std::optional<LatencyChain> ChainTracer::close(ChainId id, SegmentKind kind,
                                               int cpu, Time at) {
  Chain* c = resolve(id);
  if (c == nullptr) return std::nullopt;
  mark(id, kind, cpu, at);
  LatencyChain out;
  out.origin = std::move(c->origin);
  out.start = c->start;
  out.end = c->last;
  out.segments = std::move(c->segments);
  release(static_cast<std::uint32_t>(id.raw >> 32));
  ++completed_;
  return out;
}

void ChainTracer::abandon(ChainId id) {
  Chain* c = resolve(id);
  if (c == nullptr) return;
  release(static_cast<std::uint32_t>(id.raw >> 32));
  ++abandoned_;
}

}  // namespace sim
