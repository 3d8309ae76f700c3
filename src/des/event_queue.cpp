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
  free_slot(slot);
}

void EventQueue::free_slot(std::uint32_t slot) {
  Slot& s = slots_[slot];
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

EventId EventQueue::link_deadline(std::uint32_t slot, TimePoint at) {
  lane_.push_back(slot);
  if (lane_.size() == 1) return link(slot, at);  // the lane's new front
  Slot& s = slots_[slot];
  s.at = at;
  s.seq = next_seq_++;
  SANPERF_AUDIT_ONLY(s.audit_live_gen = s.gen;)
  s.heap_pos = kWaiting;
  ++waiting_;
#if SANPERF_AUDIT_ENABLED
  if (++audit_ops_ % kAuditPeriod == 0) audit_check_heap();
#endif
  return make_id(slot, s.gen);
}

void EventQueue::advance_lane(std::size_t pos) {
  lane_.pop_front();
  // A dead entry that reaches the front frees its slot.
  while (!lane_.empty() && slots_[lane_.front()].heap_pos == kDead) {
    free_slot(lane_.front());
    lane_.pop_front();
  }
  if (lane_.empty()) {
    heap_remove(pos);
    return;
  }
  // The next entry is no earlier than the old front, but may be later than
  // other heap entries: it takes the front's place and sifts down.
  --waiting_;
  heap_[pos] = lane_.front();
  sift_down(pos);
  sift_up(pos);
}

bool EventQueue::cancel(EventId id) {
  if (!pending(id)) return false;
  const std::uint32_t slot = slot_of(id);
  Slot& s = slots_[slot];
  if (s.heap_pos == kWaiting) {
    // Behind the lane's front: dies in place, freed when it reaches the front.
    s.action.reset();
    ++s.gen;
    s.heap_pos = kDead;
    --waiting_;
    return true;
  }
  if (is_lane_front(slot)) {
    advance_lane(s.heap_pos);
  } else {
    heap_remove(s.heap_pos);
  }
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
  if (is_lane_front(slot)) {
    advance_lane(0);
  } else {
    heap_remove(0);
  }
  release_slot(slot);
  return out;
}

void EventQueue::clear() {
  // Release every live slot; each release bumps the generation so stale
  // ids cannot alias the next occupancy. The lane's front is in the heap;
  // a dead entry behind it is stale already and only needs freeing.
  for (const std::uint32_t slot : heap_) release_slot(slot);
  heap_.clear();
  for (std::size_t i = 1; i < lane_.size(); ++i) {
    const std::uint32_t slot = lane_[i];
    if (slots_[slot].heap_pos == kDead) {
      free_slot(slot);
    } else {
      release_slot(slot);
    }
  }
  lane_.clear();
  waiting_ = 0;
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
  // The lane is sorted by (at, seq); its front is heap-resident, and every
  // entry behind it waits, live, or is dead, outside the heap.
  std::size_t waiting = 0;
  std::size_t dead = 0;
  for (std::size_t i = 0; i < lane_.size(); ++i) {
    const std::uint32_t slot = lane_[i];
    SANPERF_AUDIT_CHECK("des.heap_index_consistency", slot < slots_.size(),
                        "lane[" + std::to_string(i) + "] = slot " + std::to_string(slot));
    const Slot& s = slots_[slot];
    if (i == 0) {
      SANPERF_AUDIT_CHECK("des.heap_index_consistency",
                          s.heap_pos < heap_.size() && heap_[s.heap_pos] == slot,
                          "lane front slot " + std::to_string(slot) + " is not in the heap");
      continue;
    }
    SANPERF_AUDIT_CHECK("des.heap_index_consistency", earlier(lane_[i - 1], slot),
                        "lane order violated between " + std::to_string(i - 1) + " and " +
                            std::to_string(i));
    if (s.heap_pos == kWaiting) {
      SANPERF_AUDIT_CHECK("des.no_dead_slot_fire",
                          s.gen == s.audit_live_gen && static_cast<bool>(s.action),
                          "waiting lane slot " + std::to_string(slot) + " is dead");
      ++waiting;
    } else {
      SANPERF_AUDIT_CHECK("des.heap_index_consistency",
                          s.heap_pos == kDead && !static_cast<bool>(s.action),
                          "lane slot " + std::to_string(slot) + " behind the front is not " +
                              "waiting or dead");
      ++dead;
    }
  }
  SANPERF_AUDIT_CHECK("des.heap_index_consistency", waiting == waiting_,
                      "lane holds " + std::to_string(waiting) + " waiting entries, counted " +
                          std::to_string(waiting_));
  // The free list must account for exactly the slots neither in the heap
  // nor behind the lane's front.
  std::size_t free_count = 0;
  for (std::uint32_t f = free_head_; f != kNpos; f = slots_[f].next_free) {
    SANPERF_AUDIT_CHECK("des.heap_index_consistency",
                        f < slots_.size() && slots_[f].heap_pos == kNpos,
                        "free-listed slot " + std::to_string(f) + " is pending");
    ++free_count;
    if (free_count > slots_.size()) break;  // cycle; the count check below fires
  }
  SANPERF_AUDIT_CHECK("des.heap_index_consistency",
                      free_count + heap_.size() + waiting + dead == slots_.size(),
                      "free " + std::to_string(free_count) + " + heap " +
                          std::to_string(heap_.size()) + " + waiting " + std::to_string(waiting) +
                          " + dead " + std::to_string(dead) + " != slots " +
                          std::to_string(slots_.size()));
}
#endif

}  // namespace sanperf::des
