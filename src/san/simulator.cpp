#include "san/simulator.hpp"

#include <bit>
#include <stdexcept>
#include <utility>

namespace sanperf::san {

SanSimulator::SanSimulator(const SanModel& model, des::RandomEngine rng)
    : model_{&model}, rng_{rng} {
  model_->prepare();
  reset(rng);
}

void SanSimulator::reset(des::RandomEngine rng) {
  rng_ = rng;
  marking_ = model_->initial_marking();
  journal_.reset(marking_.size());
  now_ = des::TimePoint::origin();
  queue_.clear();
  enabled_.assign(model_->instantaneous_mask().size(), 0);
  affected_.assign(enabled_.size(), 0);
  scheduled_.assign(model_->activity_count(), des::kInvalidEventId);
  fire_counts_.assign(model_->activity_count(), 0);
  total_firings_ = 0;
  refresh_all();
}

void SanSimulator::refresh_activity(ActivityId a) {
  const bool en = model_->enabled(a, marking_);
  if (en == is_enabled(a)) return;  // race policy: keep existing activation
  set_enabled(a, en);
  const Activity& act = model_->activity(a);
  if (!act.timed) return;  // instantaneous set is derived from enabled_ flags
  if (en) {
    const des::Duration delay = act.delay.sample(rng_);
    scheduled_[a] = queue_.push(now_ + delay, [this, a] { fire(a); });
  } else if (scheduled_[a] != des::kInvalidEventId) {
    queue_.cancel(scheduled_[a]);
    scheduled_[a] = des::kInvalidEventId;
  }
}

void SanSimulator::refresh_all() {
  for (ActivityId a = 0; a < model_->activity_count(); ++a) refresh_activity(a);
}

void SanSimulator::fire(ActivityId a) {
  const Activity& act = model_->activity(a);
  {
    // The journal records every place the firing touches.
    const Marking::JournalScope journaled{marking_, journal_};
    // Consume input arcs.
    for (const PlaceId p : act.input_places) {
      if (marking_.get(p) <= 0) {
        throw std::logic_error{"SanSimulator: firing disabled activity " + act.name};
      }
      marking_.add(p, -1);
    }
    // Input gate functions.
    for (const InputGateId g : act.input_gates) {
      if (model_->in_gate(g).fire) model_->in_gate(g).fire(marking_);
    }
    // Case selection.
    const Case* chosen = &act.cases.front();
    if (act.cases.size() > 1) {
      case_probs_.clear();
      for (const Case& c : act.cases) case_probs_.push_back(c.probability);
      chosen = &act.cases[rng_.categorical(case_probs_)];
    }
    for (const PlaceId p : chosen->output_places) marking_.add(p, 1);
    for (const OutputGateId g : chosen->output_gates) model_->out_gate(g).fire(marking_);
  }

  ++fire_counts_[a];
  ++total_firings_;
  if (fire_hook_) fire_hook_(a, now_);

  // The fired activity's activation is spent: force re-evaluation.
  set_enabled(a, false);
  if (act.timed) scheduled_[a] = des::kInvalidEventId;

  // Re-evaluate only activities sensitive to changed places (plus `a`), in
  // ascending id order: a place changed when the journal holds it with a
  // count other than its count now.
  const auto mark = [this](ActivityId x) { affected_[x / 64] |= std::uint64_t{1} << (x % 64); };
  mark(a);
  for (const MarkingJournal::Entry& e : journal_.entries()) {
    if (marking_.get(e.place) == e.before) continue;
    for (const ActivityId x : model_->dependents(e.place)) mark(x);
  }
  journal_.clear();
  for (std::size_t w = 0; w < affected_.size(); ++w) {
    for (std::uint64_t bits = std::exchange(affected_[w], 0); bits != 0; bits &= bits - 1) {
      refresh_activity(static_cast<ActivityId>(w * 64 + std::countr_zero(bits)));
    }
  }
}

std::optional<ActivityId> SanSimulator::pick_instantaneous() {
  // The enabled instantaneous activities, in ascending id order.
  const std::vector<std::uint64_t>& instantaneous = model_->instantaneous_mask();
  inst_ids_.clear();
  for (std::size_t w = 0; w < enabled_.size(); ++w) {
    for (std::uint64_t bits = enabled_[w] & instantaneous[w]; bits != 0; bits &= bits - 1) {
      inst_ids_.push_back(static_cast<ActivityId>(w * 64 + std::countr_zero(bits)));
    }
  }
  if (inst_ids_.empty()) return std::nullopt;
  if (inst_ids_.size() == 1) return inst_ids_.front();
  inst_weights_.clear();
  for (const ActivityId a : inst_ids_) inst_weights_.push_back(model_->activity(a).weight);
  return inst_ids_[rng_.categorical(inst_weights_)];
}

void SanSimulator::settle_instantaneous() {
  std::uint64_t burst = 0;
  while (true) {
    if (stop_pred_ && stop_pred_(marking_)) return;
    const auto a = pick_instantaneous();
    if (!a) return;
    if (++burst > kMaxInstantaneousBurst) {
      throw std::runtime_error{"SanSimulator: instantaneous livelock at activity " +
                               model_->activity(*a).name};
    }
    fire(*a);
  }
}

RunResult SanSimulator::run(des::Duration time_limit) {
  const des::TimePoint deadline =
      time_limit == des::Duration::max() ? des::TimePoint::max()
                                         : des::TimePoint::origin() + time_limit;
  settle_instantaneous();
  while (true) {
    if (stop_pred_ && stop_pred_(marking_)) {
      return {StopReason::kPredicate, now_, total_firings_};
    }
    if (queue_.empty()) return {StopReason::kDeadlock, now_, total_firings_};
    if (queue_.next_time() > deadline) {
      now_ = deadline;
      return {StopReason::kTimeLimit, now_, total_firings_};
    }
    auto ev = queue_.pop();
    now_ = ev.at;
    ev.action();  // fires the timed activity
    settle_instantaneous();
  }
}

}  // namespace sanperf::san
