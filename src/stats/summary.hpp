// Streaming sample summaries (Welford) and confidence intervals.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

namespace sanperf::stats {

/// A mean together with the half-width of its confidence interval.
struct MeanCI {
  double mean = 0;
  double half_width = 0;      ///< CI is [mean - half_width, mean + half_width]
  double confidence = 0.90;   ///< e.g. 0.90 for the paper's 90% intervals
  std::uint64_t count = 0;

  [[nodiscard]] double lower() const { return mean - half_width; }
  [[nodiscard]] double upper() const { return mean + half_width; }
  /// True when `x` lies inside the interval.
  [[nodiscard]] bool contains(double x) const { return lower() <= x && x <= upper(); }
};

/// Single-pass numerically stable summary of a stream of doubles.
class SummaryStats {
 public:
  void add(double x);

  [[nodiscard]] std::uint64_t count() const { return n_; }
  [[nodiscard]] double mean() const { return mean_; }
  /// Sample (n-1) variance; 0 with fewer than two samples.
  [[nodiscard]] double variance() const;
  [[nodiscard]] double stddev() const;
  [[nodiscard]] double min() const { return min_; }
  [[nodiscard]] double max() const { return max_; }
  [[nodiscard]] double sum() const { return mean_ * static_cast<double>(n_); }

  /// Student-t confidence interval on the mean at the given confidence level.
  [[nodiscard]] MeanCI mean_ci(double confidence = 0.90) const;

  void reset() { *this = SummaryStats{}; }

 private:
  std::uint64_t n_ = 0;
  double mean_ = 0;
  double m2_ = 0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Convenience: summary of a whole vector.
[[nodiscard]] SummaryStats summarize(const std::vector<double>& xs);

}  // namespace sanperf::stats
