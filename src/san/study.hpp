// Transient simulation studies: replicated runs with confidence intervals.
//
// Mirrors UltraSAN's simulative transient solver: run the model R times
// with independent random streams, extract one reward per run, and report
// mean, confidence interval and the empirical distribution. The reward is
// the time to the stop predicate in milliseconds (the consensus latency of
// every model here); a run that deadlocks or reaches the time limit first
// is dropped and counted. The interval is at 90% confidence, the level of
// every table and figure.
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "san/simulator.hpp"
#include "stats/ecdf.hpp"
#include "stats/summary.hpp"

namespace sanperf::san {

struct StudyResult {
  std::vector<double> rewards;        ///< one value per replication
  stats::SummaryStats summary;
  stats::MeanCI ci;                   ///< 90% confidence interval of the mean
  std::uint64_t dropped = 0;          ///< replications that hit the time limit / deadlock

  [[nodiscard]] stats::Ecdf ecdf() const { return stats::Ecdf{rewards}; }
};

class TransientStudy {
 public:
  TransientStudy(const SanModel& model, std::function<bool(const Marking&)> stop);

  void set_time_limit(des::Duration limit) { time_limit_ = limit; }

  /// Runs `replications` independent replications derived from `seed`,
  /// sequentially. Replication r draws from substream ("rep", r) of the
  /// seed, the same streams core::run_study hands to its thread pool, so
  /// sequential and parallel campaigns agree bit for bit.
  [[nodiscard]] StudyResult run(std::size_t replications, std::uint64_t seed) const;

  /// Runs one replication on its own simulator and returns its time to the
  /// stop predicate in ms, or nullopt when the run ends without reaching
  /// it. Thread-safe provided the model is not mutated during the study:
  /// the constructor warms the model's caches (SanModel::prepare), after
  /// which concurrent calls only read shared state.
  [[nodiscard]] std::optional<double> run_one(des::RandomEngine rng) const;

 private:
  const SanModel* model_;
  std::function<bool(const Marking&)> stop_;
  des::Duration time_limit_ = des::Duration::seconds(60);
};

}  // namespace sanperf::san
