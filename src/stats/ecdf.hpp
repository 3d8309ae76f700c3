// Empirical cumulative distribution function over a sample.
#pragma once

#include <cstddef>
#include <vector>

namespace sanperf::stats {

class Ecdf {
 public:
  Ecdf() = default;
  /// Builds the ECDF; the sample may be in any order. Requires non-empty.
  explicit Ecdf(std::vector<double> samples);

  /// F(x) = fraction of samples <= x.
  [[nodiscard]] double eval(double x) const;

  /// Smallest sample value q with F(q) >= p. Requires 0 <= p <= 1.
  [[nodiscard]] double quantile(double p) const;

  [[nodiscard]] double min() const { return sorted_.front(); }
  [[nodiscard]] double max() const { return sorted_.back(); }
  [[nodiscard]] std::size_t size() const { return sorted_.size(); }
  [[nodiscard]] bool empty() const { return sorted_.empty(); }

  /// The sorted sample (the ECDF's jump points).
  [[nodiscard]] const std::vector<double>& sorted_samples() const { return sorted_; }

  /// Samples the curve at `points` evenly spaced x positions spanning
  /// [min, max]; useful for printing figures. Each entry is {x, F(x)}.
  [[nodiscard]] std::vector<std::pair<double, double>> curve(std::size_t points) const;

 private:
  std::vector<double> sorted_;
};

}  // namespace sanperf::stats
