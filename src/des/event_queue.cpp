#include "des/event_queue.hpp"

#include <stdexcept>
#include <string>
#include <utility>

namespace sanperf::des {

std::uint32_t EventQueue::acquire_slot() {
  if (free_head_ != kNpos) {
    const std::uint32_t slot = free_head_;
    free_head_ = slots_[slot].next_free;
    slots_[slot].next_free = kNpos;
    return slot;
  }
  slots_.emplace_back();
  return static_cast<std::uint32_t>(slots_.size() - 1);
}

void EventQueue::release_slot(std::uint32_t slot) {
  Slot& s = slots_[slot];
  s.action.reset();
  ++s.gen;  // stale every EventId handed out for this occupancy
  s.heap_pos = kNpos;
  s.next_free = free_head_;
  free_head_ = slot;
}

void EventQueue::sift_up(std::size_t pos) {
  const std::uint32_t slot = heap_[pos];
  while (pos > 0) {
    const std::size_t parent = (pos - 1) / 2;
    if (!earlier(slot, heap_[parent])) break;
    heap_[pos] = heap_[parent];
    slots_[heap_[pos]].heap_pos = static_cast<std::uint32_t>(pos);
    pos = parent;
  }
  heap_[pos] = slot;
  slots_[slot].heap_pos = static_cast<std::uint32_t>(pos);
}

void EventQueue::sift_down(std::size_t pos) {
  const std::uint32_t slot = heap_[pos];
  const std::size_t n = heap_.size();
  for (;;) {
    std::size_t child = 2 * pos + 1;
    if (child >= n) break;
    if (child + 1 < n && earlier(heap_[child + 1], heap_[child])) ++child;
    if (!earlier(heap_[child], slot)) break;
    heap_[pos] = heap_[child];
    slots_[heap_[pos]].heap_pos = static_cast<std::uint32_t>(pos);
    pos = child;
  }
  heap_[pos] = slot;
  slots_[slot].heap_pos = static_cast<std::uint32_t>(pos);
}

void EventQueue::heap_remove(std::size_t pos) {
  const std::size_t last = heap_.size() - 1;
  if (pos != last) {
    heap_[pos] = heap_[last];
    slots_[heap_[pos]].heap_pos = static_cast<std::uint32_t>(pos);
    heap_.pop_back();
    // The relocated entry may need to move either way.
    sift_down(pos);
    sift_up(pos);
  } else {
    heap_.pop_back();
  }
}

EventId EventQueue::link(std::uint32_t slot, TimePoint at) {
  Slot& s = slots_[slot];
  s.at = at;
  s.seq = next_seq_++;
  SANPERF_AUDIT_ONLY(s.audit_live_gen = s.gen;)
  heap_.push_back(slot);
  s.heap_pos = static_cast<std::uint32_t>(heap_.size() - 1);
  sift_up(heap_.size() - 1);
#if SANPERF_AUDIT_ENABLED
  // Periodic O(n) self-check, after the slot is fully linked in.
  if (++audit_ops_ % kAuditPeriod == 0) audit_check_heap();
#endif
  return make_id(slot, s.gen);
}

bool EventQueue::cancel(EventId id) {
  if (!pending(id)) return false;
  const std::uint32_t slot = slot_of(id);
  heap_remove(slots_[slot].heap_pos);
  release_slot(slot);
  return true;
}

TimePoint EventQueue::next_time() const {
  if (heap_.empty()) throw std::logic_error{"EventQueue::next_time on empty queue"};
  return slots_[heap_.front()].at;
}

EventQueue::Popped EventQueue::pop() {
  if (heap_.empty()) throw std::logic_error{"EventQueue::pop on empty queue"};
  const std::uint32_t slot = heap_.front();
  Slot& s = slots_[slot];
  // The slot about to fire must be alive: at the heap top, in its pushed
  // generation (a bumped generation means the event was released yet would
  // still run) and holding a callable action.
  SANPERF_AUDIT_CHECK("des.no_dead_slot_fire",
                      s.heap_pos == 0 && s.gen == s.audit_live_gen && static_cast<bool>(s.action),
                      "slot " + std::to_string(slot) + " gen " + std::to_string(s.gen) +
                          " heap_pos " + std::to_string(s.heap_pos));
#if SANPERF_AUDIT_ENABLED
  if (++audit_ops_ % kAuditPeriod == 0) audit_check_heap();
#endif
  Popped out{s.at, make_id(slot, s.gen), std::move(s.action)};
  heap_remove(0);
  release_slot(slot);
  return out;
}

void EventQueue::clear() {
  // Release every live slot; each release bumps the generation so stale
  // ids cannot alias the next occupancy.
  for (const std::uint32_t slot : heap_) release_slot(slot);
  heap_.clear();
}

#if SANPERF_AUDIT_ENABLED
void EventQueue::audit_check_heap() const {
  for (std::size_t i = 0; i < heap_.size(); ++i) {
    const std::uint32_t slot = heap_[i];
    SANPERF_AUDIT_CHECK("des.heap_index_consistency",
                        slot < slots_.size() && slots_[slot].heap_pos == i,
                        "heap[" + std::to_string(i) + "] = slot " + std::to_string(slot));
    SANPERF_AUDIT_CHECK("des.no_dead_slot_fire",
                        slots_[slot].gen == slots_[slot].audit_live_gen &&
                            static_cast<bool>(slots_[slot].action),
                        "heap-resident slot " + std::to_string(slot) + " is dead");
    if (i > 0) {
      const std::size_t parent = (i - 1) / 2;
      SANPERF_AUDIT_CHECK("des.heap_index_consistency", earlier(heap_[parent], slot),
                          "heap order violated between " + std::to_string(parent) + " and " +
                              std::to_string(i));
    }
  }
  // The free list must account for exactly the slots not in the heap.
  std::size_t free_count = 0;
  for (std::uint32_t f = free_head_; f != kNpos; f = slots_[f].next_free) {
    SANPERF_AUDIT_CHECK("des.heap_index_consistency",
                        f < slots_.size() && slots_[f].heap_pos == kNpos,
                        "free-listed slot " + std::to_string(f) + " is heap-resident");
    ++free_count;
    if (free_count > slots_.size()) break;  // cycle; the count check below fires
  }
  SANPERF_AUDIT_CHECK("des.heap_index_consistency", free_count + heap_.size() == slots_.size(),
                      "free " + std::to_string(free_count) + " + live " +
                          std::to_string(heap_.size()) + " != slots " +
                          std::to_string(slots_.size()));
}
#endif

}  // namespace sanperf::des
