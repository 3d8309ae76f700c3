// A cancellable pending-event set ordered by (time, insertion sequence).
//
// The insertion-sequence tie-break makes simulations deterministic: two
// events scheduled for the same instant always fire in scheduling order,
// independent of heap internals.
//
// Storage layout (the DES hot path -- every simulated event passes here):
//   * events live in a slab of generation-stamped slots; freed slots go on
//     a free list and are reused, so steady-state push/cancel/pop performs
//     no heap allocation;
//   * an indexed binary heap of slot indices orders the pending set; each
//     slot tracks its heap position, so cancel() is a true O(log n)
//     removal (no lazy-deletion churn of dead entries);
//   * a deadline lane holds events pushed with push_deadline() that are due
//     no earlier than the lane's last entry: timeouts of one length, which
//     expire in the order they were set. The lane is a FIFO of slot
//     indices sorted by (time, seq), and only its front sits in the heap;
//     when the front pops or is cancelled, the next live entry enters the
//     heap with the (time, seq) it got at push time. The heap's minimum is
//     therefore still the earliest live event, and events fire in exactly
//     the order the heap alone would give, while the heap stays as small
//     as the near-term set. Cancelling a waiting entry is O(1): it is
//     marked dead and its slot is freed when it reaches the front;
//   * callables are stored in-place inside the slot (EventAction's inline
//     buffer); a callable that does not fit is a compile error, never a
//     heap allocation;
//   * push() is a template over the callable and constructs it straight
//     into its slot (EventAction::emplace), so a closure handed to
//     Simulator::schedule is built once where it waits and moved once more,
//     into pop()'s Popped, before it runs. Slots move only when the slab
//     grows, which stops at the run's high-water mark.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/audit.hpp"
#include "des/time.hpp"

namespace sanperf::des {

/// Opaque handle identifying a scheduled event; usable to cancel it.
/// Encodes (slot generation, slot index): a handle goes stale the moment
/// its event fires or is cancelled, even if the slot is reused later.
using EventId = std::uint64_t;

/// Sentinel returned when no event exists.
inline constexpr EventId kInvalidEventId = 0;

/// Move-only callable with inline storage sized for the simulator's event
/// closures (a this-pointer plus a couple of words, or a captured
/// std::function). Construction never allocates: a callable converts (or
/// emplaces) only if it fits the inline buffer and is nothrow-movable, so a
/// closure that would need a heap-held copy does not compile. The usual
/// culprit is a by-copy capture of a `const T&`, which stores a `const T`
/// whose move is a copy; capture `x = T{x}` instead.
class EventAction {
 public:
  /// Covers [this + id], [ptr, packet-by-value] and [this, std::function]
  /// captures used across the runtime layers.
  static constexpr std::size_t kInlineBytes = 64;

  /// True for the callables EventAction stores: they fit the inline buffer
  /// and relocate without throwing.
  template <typename F>
  static constexpr bool fits_inline_v = sizeof(F) <= kInlineBytes &&
                                        alignof(F) <= alignof(std::max_align_t) &&
                                        std::is_nothrow_move_constructible_v<F>;

  EventAction() noexcept = default;

  template <typename F,
            typename = std::enable_if_t<!std::is_same_v<std::decay_t<F>, EventAction> &&
                                        std::is_invocable_r_v<void, std::decay_t<F>&> &&
                                        fits_inline_v<std::decay_t<F>>>>
  EventAction(F&& f) {  // NOLINT(google-explicit-constructor): callable adaptor
    emplace(std::forward<F>(f));
  }

  /// Replaces the held callable with `f`, constructed in the buffer: one
  /// move (or copy) of `f`, none of an EventAction around it. Another
  /// EventAction is moved in instead of wrapped.
  template <typename F>
  void emplace(F&& f) {
    using D = std::decay_t<F>;
    if constexpr (std::is_same_v<D, EventAction>) {
      *this = std::forward<F>(f);
    } else {
      static_assert(std::is_invocable_r_v<void, D&>, "EventAction::emplace: not a void() callable");
      static_assert(fits_inline_v<D>,
                    "EventAction::emplace: the callable fails fits_inline_v (larger than "
                    "kInlineBytes, over-aligned, or its move may throw)");
      reset();
      ::new (static_cast<void*>(buf_)) D(std::forward<F>(f));
      vtable_ = vtable_for<D>();
    }
  }

  EventAction(EventAction&& other) noexcept { move_from(other); }
  EventAction& operator=(EventAction&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }
  EventAction(const EventAction&) = delete;
  EventAction& operator=(const EventAction&) = delete;
  ~EventAction() { reset(); }

  /// Invokes the stored callable; throws like std::function on empty (or
  /// moved-from) actions.
  void operator()() {
    if (vtable_ == nullptr) throw std::bad_function_call{};
    vtable_->invoke(buf_);
  }

  [[nodiscard]] explicit operator bool() const noexcept { return vtable_ != nullptr; }

  void reset() noexcept {
    if (vtable_ != nullptr) {
      vtable_->destroy(buf_);
      vtable_ = nullptr;
    }
  }

 private:
  struct VTable {
    void (*invoke)(void*);
    /// Move-constructs the payload into `dst` and destroys the source.
    void (*relocate)(void* dst, void* src) noexcept;
    void (*destroy)(void*) noexcept;
  };

  template <typename F>
  static const VTable* vtable_for() {
    static const VTable vt{
        [](void* p) { (*static_cast<F*>(p))(); },
        [](void* dst, void* src) noexcept {
          ::new (dst) F(std::move(*static_cast<F*>(src)));
          static_cast<F*>(src)->~F();
        },
        [](void* p) noexcept { static_cast<F*>(p)->~F(); },
    };
    return &vt;
  }

  void move_from(EventAction& other) noexcept {
    vtable_ = other.vtable_;
    if (vtable_ != nullptr) {
      vtable_->relocate(buf_, other.buf_);
      other.vtable_ = nullptr;
    }
  }

  alignas(std::max_align_t) unsigned char buf_[kInlineBytes];
  const VTable* vtable_ = nullptr;
};

class EventQueue {
 public:
  using Action = EventAction;

  /// Adds an event firing at `at`, constructing `action` in its slot (an
  /// EventAction is moved in). Returns a handle for cancellation.
  template <typename F>
  EventId push(TimePoint at, F&& action) {
    return link(slot_holding(std::forward<F>(action)), at);
  }

  /// push() for a deadline: an event that usually falls due after every
  /// deadline pushed before it, like a timeout of one fixed length. One due
  /// no earlier than the lane's last entry joins the deadline lane; an
  /// earlier one goes to the heap. Either way it fires exactly where push()
  /// would have put it.
  template <typename F>
  EventId push_deadline(TimePoint at, F&& action) {
    const std::uint32_t slot = slot_holding(std::forward<F>(action));
    if (!lane_.empty() && at < slots_[lane_.back()].at) return link(slot, at);
    return link_deadline(slot, at);
  }

  /// Cancels a pending event. Returns false if the event already fired,
  /// was already cancelled, or never existed. A heap event's removal is a
  /// true O(log n) one that recycles the slot at once; a deadline waiting
  /// in the lane is marked dead in O(1), and its slot is recycled when it
  /// reaches the lane's front.
  bool cancel(EventId id);

  /// True iff the event is scheduled and not yet fired or cancelled.
  [[nodiscard]] bool pending(EventId id) const {
    const std::uint32_t slot = slot_of(id);
    return slot < slots_.size() && slots_[slot].gen == gen_of(id) &&
           slots_[slot].heap_pos != kNpos;
  }

  /// True when no live event remains (a live lane entry implies a live
  /// front in the heap).
  [[nodiscard]] bool empty() const { return heap_.empty(); }

  /// Live events: the heap's plus the lane's live entries behind its front.
  [[nodiscard]] std::size_t size() const { return heap_.size() + waiting_; }

  /// Firing time of the earliest live event. Requires !empty().
  [[nodiscard]] TimePoint next_time() const;

  /// Removes and returns the earliest live event. Requires !empty().
  struct Popped {
    TimePoint at;
    EventId id;
    Action action;
  };
  Popped pop();

  /// Removes every pending event. Slab capacity is retained; every
  /// outstanding EventId goes stale.
  void clear();

  /// Slots ever allocated (live + free). Exposed so tests and benches can
  /// assert steady-state slot reuse (no slab growth under churn).
  [[nodiscard]] std::size_t slot_capacity() const { return slots_.size(); }

#if SANPERF_AUDIT_ENABLED
  /// Full O(n) structural self-check: every heap entry back-references its
  /// position, the heap order holds, live slots carry a live generation and
  /// a callable action; the lane is sorted by (time, seq), its front is in
  /// the heap and its other entries are not; and free + heap + waiting +
  /// dead accounts for every slot. Runs automatically every kAuditPeriod
  /// push/pop in audit builds; callable directly from tests.
  void audit_check_heap() const;

  // Test-only corruption backdoors for the negative audit tests: each
  // injects exactly the inconsistency one invariant class guards against.
  /// Rewrites a pending event's firing time WITHOUT re-sifting the heap.
  void audit_corrupt_slot_time(EventId id, TimePoint at) { slots_[slot_of(id)].at = at; }
  /// Bumps a pending slot's generation while it stays heap-resident: the
  /// slot is dead (its handle is stale) yet would still fire.
  void audit_corrupt_kill_slot(EventId id) { ++slots_[slot_of(id)].gen; }
  /// Breaks a pending slot's heap back-reference.
  void audit_corrupt_heap_pos(EventId id) { ++slots_[slot_of(id)].heap_pos; }
#endif

 private:
  static constexpr std::uint32_t kNpos = 0xffffffffu;
  /// heap_pos of a lane entry behind the front, live or cancelled.
  static constexpr std::uint32_t kWaiting = 0xfffffffeu;
  static constexpr std::uint32_t kDead = 0xfffffffdu;

  struct Slot {
    TimePoint at;
    std::uint64_t seq = 0;         ///< insertion order; (at, seq) orders the heap
    Action action;
    std::uint32_t gen = 0;         ///< bumped on release; stales old EventIds
    /// Index into heap_; kNpos when free, kWaiting or kDead behind the
    /// lane's front.
    std::uint32_t heap_pos = kNpos;
    std::uint32_t next_free = kNpos;
#if SANPERF_AUDIT_ENABLED
    /// Generation the slot was pushed with: while heap-resident, gen must
    /// still equal it -- a mismatch means a dead-generation slot would fire.
    std::uint32_t audit_live_gen = 0;
#endif
  };

  static EventId make_id(std::uint32_t slot, std::uint32_t gen) {
    return (static_cast<EventId>(gen) << 32) | (slot + 1);
  }
  static std::uint32_t slot_of(EventId id) { return static_cast<std::uint32_t>(id) - 1; }
  static std::uint32_t gen_of(EventId id) { return static_cast<std::uint32_t>(id >> 32); }

  [[nodiscard]] bool earlier(std::uint32_t a, std::uint32_t b) const {
    const Slot& sa = slots_[a];
    const Slot& sb = slots_[b];
    if (sa.at != sb.at) return sa.at < sb.at;
    return sa.seq < sb.seq;
  }

  void sift_up(std::size_t pos);
  void sift_down(std::size_t pos);
  /// Detaches the heap entry at `pos` and restores the heap invariant.
  void heap_remove(std::size_t pos);
  std::uint32_t acquire_slot();
  /// A slot taken from the free list (or the slab's end) with `action`
  /// constructed in it.
  template <typename F>
  std::uint32_t slot_holding(F&& action) {
    const std::uint32_t slot = acquire_slot();
    try {
      slots_[slot].action.emplace(std::forward<F>(action));
    } catch (...) {
      release_slot(slot);  // a throwing copy leaves the slab as it was
      throw;
    }
    return slot;
  }
  /// Stamps a slot holding its action with (at, seq) and sifts it into the
  /// heap.
  EventId link(std::uint32_t slot, TimePoint at);
  /// Stamps a slot like link() and appends it to the lane; it enters the
  /// heap only if it is the lane's new front.
  EventId link_deadline(std::uint32_t slot, TimePoint at);
  /// Destroys the slot's action, bumps its generation and free-lists it.
  void release_slot(std::uint32_t slot);
  /// Free-lists a slot whose action is gone and whose ids are stale.
  void free_slot(std::uint32_t slot);
  /// Replaces the lane's front, at heap position `pos`, by the next live
  /// entry (freeing the dead ones before it), or removes `pos` from the heap
  /// when none is left. The caller releases the old front's slot.
  void advance_lane(std::size_t pos);

  [[nodiscard]] bool is_lane_front(std::uint32_t slot) const {
    return !lane_.empty() && lane_.front() == slot;
  }

  std::vector<Slot> slots_;
  std::vector<std::uint32_t> heap_;  ///< slot indices, binary min-heap
  std::uint32_t free_head_ = kNpos;
  std::uint64_t next_seq_ = 0;
  std::deque<std::uint32_t> lane_;  ///< the deadline lane's slot indices, front first
  std::size_t waiting_ = 0;         ///< live lane entries behind the front
#if SANPERF_AUDIT_ENABLED
  static constexpr std::uint64_t kAuditPeriod = 1024;  ///< ops between self-checks
  mutable std::uint64_t audit_ops_ = 0;
#endif
};

}  // namespace sanperf::des
