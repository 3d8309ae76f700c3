#include "stats/ecdf.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

namespace sanperf::stats {

Ecdf::Ecdf(std::vector<double> samples) : sorted_{std::move(samples)} {
  if (sorted_.empty()) throw std::invalid_argument{"Ecdf: empty sample"};
  std::sort(sorted_.begin(), sorted_.end());
}

double Ecdf::eval(double x) const {
  if (sorted_.empty()) throw std::logic_error{"Ecdf::eval on empty ECDF"};
  const auto it = std::upper_bound(sorted_.begin(), sorted_.end(), x);
  return static_cast<double>(it - sorted_.begin()) / static_cast<double>(sorted_.size());
}

double Ecdf::quantile(double p) const {
  if (sorted_.empty()) throw std::logic_error{"Ecdf::quantile on empty ECDF"};
  if (!(p >= 0.0 && p <= 1.0)) throw std::invalid_argument{"Ecdf::quantile: p outside [0,1]"};
  if (p == 0.0) return sorted_.front();
  const auto n = static_cast<double>(sorted_.size());
  const auto idx = static_cast<std::size_t>(std::ceil(p * n)) - 1;
  return sorted_[std::min(idx, sorted_.size() - 1)];
}

std::vector<std::pair<double, double>> Ecdf::curve(std::size_t points) const {
  if (sorted_.empty()) throw std::logic_error{"Ecdf::curve on empty ECDF"};
  if (points < 2) throw std::invalid_argument{"Ecdf::curve: need at least 2 points"};
  std::vector<std::pair<double, double>> out;
  out.reserve(points);
  const double lo = min();
  const double hi = max();
  for (std::size_t i = 0; i < points; ++i) {
    const double x = lo + (hi - lo) * static_cast<double>(i) / static_cast<double>(points - 1);
    out.emplace_back(x, eval(x));
  }
  return out;
}

}  // namespace sanperf::stats
