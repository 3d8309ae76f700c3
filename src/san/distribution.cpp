#include "san/distribution.hpp"

#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <utility>

namespace sanperf::san {

namespace {

/// A uniform component's range: finite, with 0 <= a <= b.
bool finite_range(double a, double b) {
  return std::isfinite(a) && std::isfinite(b) && 0 <= a && a <= b;
}

}  // namespace

Distribution Distribution::deterministic_ms(double ms) {
  if (!(std::isfinite(ms) && ms >= 0)) {
    throw std::invalid_argument{"deterministic_ms: not a finite non-negative value"};
  }
  Distribution d;
  d.components_.push_back({1.0, Kind::kDeterministic, ms, 0});
  d.weights_.push_back(1.0);
  return d;
}

Distribution Distribution::exponential_ms(double mean_ms) {
  if (!(std::isfinite(mean_ms) && mean_ms > 0)) {
    throw std::invalid_argument{"exponential_ms: mean not finite and > 0"};
  }
  Distribution d;
  d.components_.push_back({1.0, Kind::kExponential, mean_ms, 0});
  d.weights_.push_back(1.0);
  return d;
}

Distribution Distribution::uniform_ms(double a_ms, double b_ms) {
  if (!finite_range(a_ms, b_ms)) throw std::invalid_argument{"uniform_ms: bad range"};
  Distribution d;
  d.components_.push_back({1.0, Kind::kUniform, a_ms, b_ms});
  d.weights_.push_back(1.0);
  return d;
}

Distribution Distribution::weibull_ms(double shape, double scale_ms) {
  if (!(std::isfinite(shape) && std::isfinite(scale_ms) && shape > 0 && scale_ms > 0)) {
    throw std::invalid_argument{"weibull_ms: bad params"};
  }
  Distribution d;
  d.components_.push_back({1.0, Kind::kWeibull, shape, scale_ms});
  d.weights_.push_back(1.0);
  return d;
}

Distribution Distribution::bimodal_uniform_ms(double p1, double a1, double b1, double a2,
                                              double b2) {
  if (!(p1 > 0 && p1 < 1)) throw std::invalid_argument{"bimodal_uniform_ms: p1 outside (0,1)"};
  if (!finite_range(a1, b1) || !finite_range(a2, b2)) {
    throw std::invalid_argument{"bimodal_uniform_ms: bad range"};
  }
  Distribution d;
  d.components_.push_back({p1, Kind::kUniform, a1, b1});
  d.components_.push_back({1 - p1, Kind::kUniform, a2, b2});
  d.weights_ = {p1, 1 - p1};
  return d;
}

Distribution Distribution::from_fit(const stats::BimodalUniform& fit) {
  if (fit.p1 >= 1.0) return uniform_ms(fit.a1, fit.b1);
  return bimodal_uniform_ms(fit.p1, fit.a1, fit.b1, fit.a2, fit.b2);
}

Distribution Distribution::mixture(std::vector<std::pair<double, Distribution>> parts) {
  if (parts.empty()) throw std::invalid_argument{"mixture: empty"};
  Distribution d;
  for (auto& [w, part] : parts) {
    if (!(std::isfinite(w) && w > 0)) {
      throw std::invalid_argument{"mixture: weight not finite and > 0"};
    }
    for (std::size_t i = 0; i < part.components_.size(); ++i) {
      Component c = part.components_[i];
      c.weight *= w;
      d.components_.push_back(c);
      d.weights_.push_back(c.weight);
    }
  }
  return d;
}

double Distribution::sample_component(const Component& c, des::RandomEngine& rng) {
  switch (c.kind) {
    case Kind::kDeterministic:
      return c.p0;
    case Kind::kExponential:
      return rng.exponential_mean(c.p0);
    case Kind::kUniform:
      return rng.uniform(c.p0, c.p1);
    case Kind::kWeibull:
      return rng.weibull(c.p0, c.p1);
  }
  throw std::logic_error{"Distribution: unknown kind"};
}

double Distribution::component_mean(const Component& c) {
  switch (c.kind) {
    case Kind::kDeterministic:
    case Kind::kExponential:
      return c.p0;
    case Kind::kUniform:
      return (c.p0 + c.p1) / 2;
    case Kind::kWeibull:
      return c.p1 * std::tgamma(1.0 + 1.0 / c.p0);
  }
  throw std::logic_error{"Distribution: unknown kind"};
}

des::Duration Distribution::sample(des::RandomEngine& rng) const {
  if (components_.empty()) throw std::logic_error{"Distribution: empty"};
  const Component& c =
      components_.size() == 1 ? components_.front() : components_[rng.categorical(weights_)];
  return des::Duration::from_ms(sample_component(c, rng));
}

double Distribution::mean_ms() const {
  double total_w = 0;
  double acc = 0;
  for (const Component& c : components_) {
    total_w += c.weight;
    acc += c.weight * component_mean(c);
  }
  return acc / total_w;
}

bool Distribution::is_deterministic() const {
  return components_.size() == 1 && components_.front().kind == Kind::kDeterministic;
}

bool Distribution::is_exponential() const {
  return components_.size() == 1 && components_.front().kind == Kind::kExponential;
}

std::string Distribution::to_string() const {
  std::string out;
  char buf[96];
  for (const Component& c : components_) {
    if (!out.empty()) out += " + ";
    switch (c.kind) {
      case Kind::kDeterministic:
        std::snprintf(buf, sizeof buf, "Det(%.4g)@%.3g", c.p0, c.weight);
        break;
      case Kind::kExponential:
        std::snprintf(buf, sizeof buf, "Exp(mean=%.4g)@%.3g", c.p0, c.weight);
        break;
      case Kind::kUniform:
        std::snprintf(buf, sizeof buf, "U[%.4g,%.4g]@%.3g", c.p0, c.p1, c.weight);
        break;
      case Kind::kWeibull:
        std::snprintf(buf, sizeof buf, "Weib(k=%.4g,s=%.4g)@%.3g", c.p0, c.p1, c.weight);
        break;
    }
    out += buf;
  }
  return out;
}

}  // namespace sanperf::san
