// Value batching between an arrival stream and the consensus stack.
//
// Every client value paying a full consensus instance caps delivered
// throughput at the instance rate (PR 5 measured ~376 inst/s at n = 5).
// Production RPC stacks amortise by *formation*: pending items accumulate
// and the batch closes on whichever of two triggers fires first -- a size
// threshold (the batch is full) or a max-linger deadline (the oldest item
// has waited long enough). One consensus instance then carries the whole
// batch as its value vector. The linger deadline bounds the queueing delay
// a value can pay waiting for peers; the size threshold bounds the batch.
//
// Degenerate configuration (max_batch = 1) closes synchronously inside
// submit() and never touches the event queue, so an unbatched workload is
// bit-identical to the pre-batching engine.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "des/simulator.hpp"

namespace sanperf::consensus {

struct BatcherConfig {
  /// Values per batch at which the batch closes immediately.
  std::size_t max_batch = 1;
  /// Deadline after the first value of a batch; a partial batch closes when
  /// it expires. 0 still closes via the event queue at the *same* simulated
  /// instant, so values submitted at one timestamp share a batch.
  double linger_ms = 0.0;
};

/// One batched value: the payload plus its submission time, so the
/// consumer can attribute per-value queueing delay.
struct BatchedValue {
  std::int64_t value = 0;
  des::TimePoint enqueued_at;
};

class Batcher {
 public:
  enum class CloseReason : std::uint8_t {
    kSize,    ///< size threshold reached
    kLinger,  ///< max-linger deadline expired
  };

  using CloseFn = std::function<void(std::vector<BatchedValue>, CloseReason)>;

  /// Counters over the batcher's lifetime.
  struct Stats {
    std::uint64_t values = 0;   ///< values submitted
    std::uint64_t batches = 0;  ///< batches closed
    std::uint64_t closed_on_size = 0;
    std::uint64_t closed_on_linger = 0;
  };

  /// `sim` must outlive the batcher; `on_close` receives every closed batch
  /// (in submission order) with the reason that closed it. A max_batch of
  /// 0 is rejected (std::invalid_argument).
  Batcher(des::Simulator& sim, BatcherConfig cfg, CloseFn on_close)
      : sim_{&sim}, cfg_{cfg}, on_close_{std::move(on_close)} {
    if (cfg_.max_batch == 0) throw std::invalid_argument{"Batcher: max_batch must be >= 1"};
  }

  Batcher(const Batcher&) = delete;
  Batcher& operator=(const Batcher&) = delete;

  ~Batcher() { cancel_linger(); }

  /// Adds one value at the current simulated time. Closes the batch
  /// synchronously when it reaches max_batch; otherwise the first value of
  /// a batch arms the linger deadline.
  void submit(std::int64_t value) {
    ++stats_.values;
    pending_.push_back({value, sim_->now()});
    if (pending_.size() >= cfg_.max_batch) {
      close(CloseReason::kSize);
      return;
    }
    if (pending_.size() == 1) {
      const double linger = cfg_.linger_ms > 0 ? cfg_.linger_ms : 0.0;
      linger_timer_ = sim_->schedule(des::Duration::from_ms(linger),
                                     [this] { close(CloseReason::kLinger); });
    }
  }

  [[nodiscard]] std::size_t pending() const { return pending_.size(); }
  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  void close(CloseReason reason) {
    cancel_linger();
    std::vector<BatchedValue> batch;
    batch.swap(pending_);  // reentrancy-safe: state settled before the callback
    ++stats_.batches;
    switch (reason) {
      case CloseReason::kSize: ++stats_.closed_on_size; break;
      case CloseReason::kLinger: ++stats_.closed_on_linger; break;
    }
    on_close_(std::move(batch), reason);
  }

  void cancel_linger() {
    if (linger_timer_) {
      sim_->cancel(*linger_timer_);
      linger_timer_.reset();
    }
  }

  des::Simulator* sim_;
  BatcherConfig cfg_;
  CloseFn on_close_;
  std::vector<BatchedValue> pending_;
  std::optional<des::EventId> linger_timer_;
  Stats stats_;
};

}  // namespace sanperf::consensus
