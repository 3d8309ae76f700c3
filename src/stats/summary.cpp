#include "stats/summary.hpp"

#include <algorithm>
#include <cmath>

#include "stats/student_t.hpp"

namespace sanperf::stats {

void SummaryStats::add(double x) {
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

double SummaryStats::variance() const {
  if (n_ < 2) return 0;
  return m2_ / static_cast<double>(n_ - 1);
}

double SummaryStats::stddev() const { return std::sqrt(variance()); }

MeanCI SummaryStats::mean_ci(double confidence) const {
  MeanCI ci;
  ci.mean = mean_;
  ci.confidence = confidence;
  ci.count = n_;
  if (n_ >= 2) {
    const double se = stddev() / std::sqrt(static_cast<double>(n_));
    ci.half_width = student_t_critical(confidence, static_cast<double>(n_ - 1)) * se;
  }
  return ci;
}

SummaryStats summarize(const std::vector<double>& xs) {
  SummaryStats s;
  for (const double x : xs) s.add(x);
  return s;
}

}  // namespace sanperf::stats
