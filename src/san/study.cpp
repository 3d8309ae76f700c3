#include "san/study.hpp"

#include <utility>

namespace sanperf::san {

TransientStudy::TransientStudy(const SanModel& model, std::function<bool(const Marking&)> stop)
    : model_{&model}, stop_{std::move(stop)} {
  // Warm the model's lazily-built caches (validation, dependents) while we
  // are still single-threaded, so concurrent run_one calls only read.
  model.prepare();
}

std::optional<double> TransientStudy::run_one(des::RandomEngine rng) const {
  SanSimulator sim{*model_, rng};
  sim.set_stop_predicate(stop_);
  const RunResult res = sim.run(time_limit_);
  if (res.reason != StopReason::kPredicate) return std::nullopt;
  return res.end_time.to_ms();
}

StudyResult TransientStudy::run(std::size_t replications, std::uint64_t seed) const {
  const des::RandomEngine master{seed};
  StudyResult out;
  out.rewards.reserve(replications);
  for (std::size_t r = 0; r < replications; ++r) {
    const auto reward = run_one(master.substream("rep", r));
    if (!reward) {
      ++out.dropped;
      continue;
    }
    out.rewards.push_back(*reward);
    out.summary.add(*reward);
  }
  out.ci = out.summary.mean_ci(0.90);
  return out;
}

}  // namespace sanperf::san
