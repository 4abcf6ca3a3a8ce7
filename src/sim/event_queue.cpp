#include "sim/event_queue.h"

#include "sim/assert.h"

namespace sim {

EventId EventQueue::schedule_at(Time at, Callback cb) {
  std::uint32_t index = 0;
  if (!free_slots_.empty()) {
    index = free_slots_.back();
    free_slots_.pop_back();
  } else {
    SIM_ASSERT_MSG(slots_.size() < kMaxSlots, "event slab exceeds 2^24 slots");
    index = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  slots_[index].cb = std::move(cb);
  heap_.push_back(Key{at, next_seq_++, index});
  sift_up(heap_.size() - 1);
  return EventId{(std::uint64_t{index} << kGenBits) | slots_[index].gen};
}

bool EventQueue::cancel(EventId id) {
  if (!id.valid()) return false;
  const auto index = static_cast<std::size_t>(id.raw >> kGenBits);
  if (index >= slots_.size()) return false;
  const Slot& s = slots_[index];
  if (s.gen != (id.raw & kGenMask) || s.pos == kFree) return false;
  remove_at(s.pos);
  return true;
}

Time EventQueue::next_time() const {
  SIM_ASSERT_MSG(!empty(), "next_time() on empty queue");
  return heap_.front().at;
}

std::pair<Time, EventQueue::Callback> EventQueue::pop() {
  SIM_ASSERT_MSG(!empty(), "pop() on empty queue");
  std::pair<Time, Callback> out{heap_.front().at,
                                std::move(slots_[heap_.front().slot].cb)};
  remove_at(0);
  return out;
}

bool EventQueue::pop_before(Time deadline, Time& at, Callback& cb) {
  if (heap_.empty() || heap_.front().at > deadline) return false;
  at = heap_.front().at;
  cb = std::move(slots_[heap_.front().slot].cb);
  remove_at(0);
  return true;
}

void EventQueue::sift_up(std::size_t i) {
  const Key k = heap_[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (!before(k, heap_[parent])) break;
    heap_[i] = heap_[parent];
    slots_[heap_[i].slot].pos = static_cast<std::uint32_t>(i);
    i = parent;
  }
  heap_[i] = k;
  slots_[k.slot].pos = static_cast<std::uint32_t>(i);
}

void EventQueue::sift_down(std::size_t i) {
  const Key k = heap_[i];
  const std::size_t n = heap_.size();
  while (true) {
    std::size_t child = 2 * i + 1;
    if (child >= n) break;
    if (child + 1 < n && before(heap_[child + 1], heap_[child])) ++child;
    if (!before(heap_[child], k)) break;
    heap_[i] = heap_[child];
    slots_[heap_[i].slot].pos = static_cast<std::uint32_t>(i);
    i = child;
  }
  heap_[i] = k;
  slots_[k.slot].pos = static_cast<std::uint32_t>(i);
}

void EventQueue::remove_at(std::size_t i) {
  const std::uint32_t index = heap_[i].slot;
  Slot& s = slots_[index];
  s.cb.reset();  // release captures now (a no-op after a pop moved cb out)
  s.pos = kFree;
  s.gen = (s.gen + 1) & kGenMask;
  if (s.gen == 0) s.gen = 1;  // keep EventId.raw != 0 after wrap
  free_slots_.push_back(index);

  const Key last = heap_.back();
  heap_.pop_back();
  if (i == heap_.size()) return;
  // The last key fills the hole; it may belong above or below it.
  heap_[i] = last;
  if (i > 0 && before(last, heap_[(i - 1) / 2])) {
    sift_up(i);
  } else {
    sift_down(i);
  }
}

}  // namespace sim
