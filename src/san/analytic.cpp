#include "san/analytic.hpp"

#include <cmath>
#include <deque>
#include <stdexcept>

namespace sanperf::san {

CtmcTransientSolver::CtmcTransientSolver(const SanModel& model,
                                         std::function<bool(const Marking&)> stop,
                                         AnalyticOptions options)
    : model_{&model}, stop_{std::move(stop)}, options_{options} {
  model_->prepare();
  for (ActivityId a = 0; a < model_->activity_count(); ++a) {
    const Activity& act = model_->activity(a);
    if (act.timed && !act.delay.is_exponential()) {
      throw std::invalid_argument{
          "CtmcTransientSolver: non-exponential timed activity '" + act.name +
          "' -- only simulative solvers apply (the paper's own situation)"};
    }
  }
  if (!stop_) throw std::invalid_argument{"CtmcTransientSolver: null stop predicate"};
  explore();
}

namespace {

/// Applies one firing of `act` with the chosen case to a copy of `m`.
Marking fire_case(const SanModel& model, const Activity& act, const Case& chosen, Marking m) {
  for (const PlaceId p : act.input_places) m.add(p, -1);
  for (const InputGateId g : act.input_gates) {
    if (model.in_gate(g).fire) model.in_gate(g).fire(m);
  }
  for (const PlaceId p : chosen.output_places) m.add(p, 1);
  for (const OutputGateId g : chosen.output_gates) model.out_gate(g).fire(m);
  return m;
}

}  // namespace

void CtmcTransientSolver::settle(const Marking& m, double prob,
                                 std::map<std::vector<std::int32_t>, double>& out,
                                 std::size_t depth) const {
  if (depth > options_.max_cascade_depth) {
    throw std::runtime_error{"CtmcTransientSolver: instantaneous cascade too deep (livelock?)"};
  }
  // The stop predicate freezes the model (the run would end here).
  if (!stop_(m)) {
    // Weighted branching over every enabled instantaneous activity, as the
    // race semantics would choose at random.
    std::vector<ActivityId> enabled;
    double total_weight = 0;
    for (ActivityId a = 0; a < model_->activity_count(); ++a) {
      const Activity& act = model_->activity(a);
      if (act.timed || !model_->enabled(a, m)) continue;
      enabled.push_back(a);
      total_weight += act.weight;
    }
    if (!enabled.empty()) {
      for (const ActivityId a : enabled) {
        const Activity& act = model_->activity(a);
        const double p_act = act.weight / total_weight;
        for (const Case& c : act.cases) {
          if (c.probability <= 0) continue;
          settle(fire_case(*model_, act, c, m), prob * p_act * c.probability, out, depth + 1);
        }
      }
      return;
    }
  }
  out[m.raw()] += prob;  // tangible
}

std::size_t CtmcTransientSolver::intern(const Marking& m) {
  const auto [it, inserted] = index_.try_emplace(m.raw(), states_.size());
  if (inserted) {
    if (states_.size() >= options_.max_states) {
      throw std::runtime_error{"CtmcTransientSolver: state space exceeds max_states"};
    }
    states_.push_back(m);
    transitions_.emplace_back();
    is_absorbing_.push_back(0);
    is_stop_.push_back(0);
  }
  return it->second;
}

void CtmcTransientSolver::explore() {
  // Initial tangible distribution (the initial marking may cascade, and the
  // cascade may branch probabilistically -- e.g. the FD submodel's init).
  std::map<std::vector<std::int32_t>, double> init;
  settle(model_->initial_marking(), 1.0, init, 0);
  std::deque<std::size_t> frontier;
  for (const auto& [raw0, prob] : init) {
    Marking m0{model_->place_count()};
    for (std::size_t p = 0; p < raw0.size(); ++p) m0.set(static_cast<PlaceId>(p), raw0[p]);
    const std::size_t before = states_.size();
    const std::size_t s = intern(m0);
    if (s == before) frontier.push_back(s);
    initial_dist_.emplace_back(s, prob);
  }

  while (!frontier.empty()) {
    const std::size_t s = frontier.front();
    frontier.pop_front();
    const Marking m = states_[s];

    if (stop_(m)) {
      is_stop_[s] = 1;
      is_absorbing_[s] = 1;
      ++absorbing_count_;
      continue;
    }

    bool any = false;
    for (ActivityId a = 0; a < model_->activity_count(); ++a) {
      const Activity& act = model_->activity(a);
      if (!act.timed || !model_->enabled(a, m)) continue;
      any = true;
      const double rate = 1.0 / act.delay.mean_ms();
      for (const Case& c : act.cases) {
        if (c.probability <= 0) continue;
        std::map<std::vector<std::int32_t>, double> outcomes;
        settle(fire_case(*model_, act, c, m), 1.0, outcomes, 0);
        for (const auto& [raw, prob] : outcomes) {
          Marking target{model_->place_count()};
          for (std::size_t p = 0; p < raw.size(); ++p) {
            target.set(static_cast<PlaceId>(p), raw[p]);
          }
          const std::size_t before = states_.size();
          const std::size_t t = intern(target);
          if (t == before) frontier.push_back(t);
          transitions_[s].push_back({t, rate * c.probability * prob});
        }
      }
    }
    if (!any) is_absorbing_[s] = 1;  // deadlock without stop: absorbing, not stop
  }
}

double CtmcTransientSolver::mean_time_to_stop_ms() const {
  const std::size_t n = states_.size();
  // Hitting-time equations: t_i = 1/lambda_i + sum_j p_ij t_j for transient
  // states; t = 0 at stop states; unreachable-absorption (deadlock) states
  // make the mean infinite.
  for (std::size_t s = 0; s < n; ++s) {
    if (is_absorbing_[s] && !is_stop_[s]) {
      throw std::runtime_error{
          "CtmcTransientSolver: a deadlocked non-stop state is reachable; "
          "mean time to stop is infinite"};
    }
  }
  // Gauss-Seidel on t_i = (1 + sum_j q_ij t_j / lambda_i ... ) -- written
  // directly from rates: lambda_i t_i = 1 + sum_j q_ij t_j.
  std::vector<double> t(n, 0.0);
  std::vector<double> lambda(n, 0.0);
  for (std::size_t s = 0; s < n; ++s) {
    for (const Transition& tr : transitions_[s]) lambda[s] += tr.rate;
  }
  for (int iter = 0; iter < 200000; ++iter) {
    double delta = 0;
    for (std::size_t s = 0; s < n; ++s) {
      if (is_stop_[s]) continue;
      double acc = 1.0;
      for (const Transition& tr : transitions_[s]) acc += tr.rate * t[tr.target];
      const double next = acc / lambda[s];
      delta = std::max(delta, std::fabs(next - t[s]));
      t[s] = next;
    }
    if (delta < 1e-12) break;
  }
  double mean = 0;
  for (const auto& [s, prob] : initial_dist_) mean += prob * t[s];
  return mean;
}

double CtmcTransientSolver::probability_stopped_by(double t_ms) const {
  if (t_ms < 0) throw std::invalid_argument{"probability_stopped_by: negative time"};
  const std::size_t n = states_.size();

  // Uniformisation: P(t) = sum_k Poisson(k; q t) pi_0 P^k with q >= max rate.
  double q = 0;
  std::vector<double> lambda(n, 0.0);
  for (std::size_t s = 0; s < n; ++s) {
    for (const Transition& tr : transitions_[s]) lambda[s] += tr.rate;
    q = std::max(q, lambda[s]);
  }
  std::vector<double> pi(n, 0.0);
  for (const auto& [s, prob] : initial_dist_) pi[s] += prob;
  if (q == 0) {
    double stopped = 0;
    for (std::size_t s = 0; s < n; ++s) {
      if (is_stop_[s]) stopped += pi[s];
    }
    return stopped;
  }
  const double qt = q * t_ms;

  // Poisson weights with scaled recursion to avoid underflow.
  double result = 0;
  double log_poisson = -qt;  // log P(k=0)
  double tail = 1.0;
  std::vector<double> next(n, 0.0);
  for (int k = 0;; ++k) {
    // Accumulate this step's stopped mass.
    double stopped = 0;
    for (std::size_t s = 0; s < n; ++s) {
      if (is_stop_[s]) stopped += pi[s];
    }
    const double w = std::exp(log_poisson);
    result += w * stopped;
    tail -= w;
    if (tail < options_.uniformization_epsilon || k > 20 + static_cast<int>(qt * 4 + 60)) break;

    // pi <- pi P  with  P = I + Q/q.
    std::fill(next.begin(), next.end(), 0.0);
    for (std::size_t s = 0; s < n; ++s) {
      if (pi[s] == 0) continue;
      next[s] += pi[s] * (1.0 - lambda[s] / q);
      for (const Transition& tr : transitions_[s]) {
        next[tr.target] += pi[s] * tr.rate / q;
      }
    }
    pi.swap(next);
    log_poisson += std::log(qt) - std::log(k + 1.0);
  }
  // Whatever probability mass the truncated tail holds is bounded by
  // `tail`; report the computed lower bound.
  return std::min(1.0, result);
}

}  // namespace sanperf::san
