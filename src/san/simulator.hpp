// Discrete-event execution of a SAN model.
//
// Semantics:
//   * instantaneous activities fire before any timed one, chosen among the
//     enabled set by weight;
//   * a timed activity samples its firing delay when it becomes enabled
//     ("race" execution policy); if it is disabled before firing, the
//     activation is aborted; when re-enabled it samples afresh, and an
//     activity that fires and stays enabled also samples afresh;
//   * after each firing only the activities whose inputs touch a changed
//     place are re-evaluated (sensitivity lists from SanModel::dependents).
//
// A firing costs what it touches. The enabled set is a bitset, so picking
// an instantaneous activity walks the words of (enabled & instantaneous) in
// ascending id order and reads only the enabled candidates. While an
// activity fires, a MarkingJournal is attached to the marking and records
// each place the arcs and gates touch, with its count before the first
// touch; the dependents of every recorded place whose count changed go
// into a second bitset, refreshed in ascending id order. Both give the
// candidates and the refresh order of a full scan, so the draws are those
// of a full scan (san_test pins this against a full-rescan reference).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "des/event_queue.hpp"
#include "des/random.hpp"
#include "san/model.hpp"

namespace sanperf::san {

enum class StopReason {
  kPredicate,  ///< the stop predicate became true
  kDeadlock,   ///< no activity enabled
  kTimeLimit,  ///< simulated time exceeded the limit
};

struct RunResult {
  StopReason reason = StopReason::kDeadlock;
  des::TimePoint end_time;
  std::uint64_t firings = 0;
};

class SanSimulator {
 public:
  /// The model must outlive the simulator and must validate(). The
  /// constructor calls model.prepare(); a model shared across threads must
  /// be prepared before it is shared.
  SanSimulator(const SanModel& model, des::RandomEngine rng);

  /// Optional predicate: the run stops as soon as it holds (checked after
  /// every firing and before the first one).
  void set_stop_predicate(std::function<bool(const Marking&)> pred) {
    stop_pred_ = std::move(pred);
  }

  /// Optional per-firing hook (tracing).
  void set_fire_hook(std::function<void(ActivityId, des::TimePoint)> hook) {
    fire_hook_ = std::move(hook);
  }

  /// Runs from the initial marking until the stop predicate, deadlock or
  /// the time limit; a time-limit stop leaves now() at the limit.
  RunResult run(des::Duration time_limit = des::Duration::max());

  /// Resets state so run() can be called again; `rng` reseeds the run.
  void reset(des::RandomEngine rng);

  [[nodiscard]] const Marking& marking() const { return marking_; }
  [[nodiscard]] des::TimePoint now() const { return now_; }
  [[nodiscard]] std::uint64_t fire_count(ActivityId a) const { return fire_counts_[a]; }
  [[nodiscard]] std::uint64_t total_firings() const { return total_firings_; }

  /// Safety valve: maximum consecutive zero-time firings before the run is
  /// declared livelocked (throws std::runtime_error).
  static constexpr std::uint64_t kMaxInstantaneousBurst = 1'000'000;

 private:
  [[nodiscard]] bool is_enabled(ActivityId a) const {
    return ((enabled_[a / 64] >> (a % 64)) & 1) != 0;
  }
  void set_enabled(ActivityId a, bool en) {
    const std::uint64_t bit = std::uint64_t{1} << (a % 64);
    enabled_[a / 64] = en ? (enabled_[a / 64] | bit) : (enabled_[a / 64] & ~bit);
  }
  void refresh_activity(ActivityId a);
  void refresh_all();
  void fire(ActivityId a);
  /// Fires enabled instantaneous activities until none remains.
  void settle_instantaneous();
  [[nodiscard]] std::optional<ActivityId> pick_instantaneous();

  const SanModel* model_;
  des::RandomEngine rng_;
  Marking marking_;
  des::TimePoint now_;
  des::EventQueue queue_;

  std::vector<std::uint64_t> enabled_;   // bit a % 64 of word a / 64: activity a
  std::vector<des::EventId> scheduled_;  // per timed activity; 0 when none
  std::vector<std::uint64_t> fire_counts_;
  std::uint64_t total_firings_ = 0;

  std::function<bool(const Marking&)> stop_pred_;
  std::function<void(ActivityId, des::TimePoint)> fire_hook_;

  // scratch buffers reused across firings (the firing loop allocates
  // nothing in steady state)
  MarkingJournal journal_;               // attached to marking_ only inside fire()
  std::vector<std::uint64_t> affected_;  // bitset like enabled_; all zero between firings
  std::vector<ActivityId> inst_ids_;     // enabled instantaneous candidates
  std::vector<double> inst_weights_;
  std::vector<double> case_probs_;
};

}  // namespace sanperf::san
