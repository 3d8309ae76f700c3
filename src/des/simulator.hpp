// The discrete-event simulator: a virtual clock plus an event queue.
//
// The pending set is the indexed binary heap of event_queue.hpp, plus its
// deadline lane. It pops events in (time, insertion-seq) order, so
// equal-time events run in the order they were scheduled and a simulation
// is a pure function of its seed. schedule() and schedule_at() forward the
// callable into its queue slot, where it is built once; schedule_deadline()
// does the same for a timeout of one fixed length, which waits in the lane
// instead of the heap and fires exactly where schedule_at() would fire it.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <utility>

#include "des/event_queue.hpp"
#include "des/time.hpp"

namespace sanperf::des {

class Simulator {
 public:
  /// Current simulated time.
  [[nodiscard]] TimePoint now() const { return now_; }

  /// Schedules `action` (any callable EventAction holds, or an
  /// EventAction) to run `delay` from now. Negative delays are an error.
  template <typename F>
  EventId schedule(Duration delay, F&& action) {
    if (delay < Duration::zero()) {
      throw std::invalid_argument{"Simulator::schedule: negative delay"};
    }
    return queue_.push(now_ + delay, std::forward<F>(action));
  }

  /// Schedules `action` at an absolute time not earlier than now.
  template <typename F>
  EventId schedule_at(TimePoint at, F&& action) {
    if (at < now_) throw std::invalid_argument{"Simulator::schedule_at: time in the past"};
    return queue_.push(at, std::forward<F>(action));
  }

  /// schedule_at() for a deadline that usually falls due after every
  /// deadline scheduled before it (EventQueue::push_deadline): it waits in
  /// the queue's deadline lane, out of the heap, and fires in the same
  /// (time, seq) order.
  template <typename F>
  EventId schedule_deadline(TimePoint at, F&& action) {
    if (at < now_) throw std::invalid_argument{"Simulator::schedule_deadline: time in the past"};
    return queue_.push_deadline(at, std::forward<F>(action));
  }

  /// Cancels a previously scheduled event; false if it already ran.
  bool cancel(EventId id) { return queue_.cancel(id); }

  [[nodiscard]] bool pending(EventId id) const { return queue_.pending(id); }

  /// Runs one event. Returns false when the queue is empty.
  bool step();

  /// Runs until the queue drains or stop() is called.
  void run();

  /// Runs until the queue drains, the clock passes `deadline`, or stop().
  /// Events at exactly `deadline` are executed.
  void run_until(TimePoint deadline);

  /// Requests that run()/run_until() return after the current event.
  void stop() { stopped_ = true; }

  [[nodiscard]] bool queue_empty() const { return queue_.empty(); }
  [[nodiscard]] std::size_t queue_size() const { return queue_.size(); }
  /// Firing time of the next pending event. Requires !queue_empty().
  [[nodiscard]] TimePoint next_time() const { return queue_.next_time(); }
  [[nodiscard]] std::uint64_t events_processed() const { return processed_; }

  /// Clears all pending events and resets the clock to the origin.
  void reset();

#if SANPERF_AUDIT_ENABLED
  /// Audit-build test access to the underlying queue, so negative tests
  /// can corrupt pending events and assert the audit layer trips.
  [[nodiscard]] EventQueue& audit_queue() { return queue_; }
#endif

 private:
  EventQueue queue_;
  TimePoint now_ = TimePoint::origin();
  std::uint64_t processed_ = 0;
  bool stopped_ = false;
};

}  // namespace sanperf::des
