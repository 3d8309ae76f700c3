#include "des/random.hpp"

#include <cmath>
#include <stdexcept>
#include <vector>

namespace sanperf::des {

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

RandomEngine::RandomEngine(std::uint64_t seed) : seed_{seed} {}

void RandomEngine::seed_generator() { gen_.emplace(mix64(seed_)); }

std::uint64_t derive_seed(std::uint64_t parent_seed, std::string_view label,
                          std::uint64_t index) {
  // FNV-1a over the label, then mixed with the parent seed and index.
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : label) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return mix64(parent_seed ^ mix64(h) ^ mix64(index * 0xd1342543de82ef95ULL + 1));
}

RandomEngine RandomEngine::substream(std::string_view label, std::uint64_t index) const {
  return RandomEngine{derive_seed(seed_, label, index)};
}

double RandomEngine::uniform(double a, double b) {
  if (!(a <= b)) throw std::invalid_argument{"uniform: a > b"};
  return a + (b - a) * uniform01();
}

double RandomEngine::uniform01() {
  // 53-bit mantissa construction: uniform in [0, 1).
  return static_cast<double>(gen()() >> 11) * 0x1.0p-53;
}

std::int64_t RandomEngine::uniform_int(std::int64_t lo, std::int64_t hi) {
  if (lo > hi) throw std::invalid_argument{"uniform_int: lo > hi"};
  return std::uniform_int_distribution<std::int64_t>{lo, hi}(gen());
}

double RandomEngine::exponential_mean(double mean) {
  if (!(mean > 0)) throw std::invalid_argument{"exponential_mean: mean <= 0"};
  double u = uniform01();
  // Guard against log(0).
  if (u <= 0.0) u = 0x1.0p-53;
  return -mean * std::log(u);
}

double RandomEngine::normal(double mean, double stddev) {
  return std::normal_distribution<double>{mean, stddev}(gen());
}

double RandomEngine::weibull(double shape, double scale) {
  if (!(shape > 0) || !(scale > 0)) throw std::invalid_argument{"weibull: params <= 0"};
  return std::weibull_distribution<double>{shape, scale}(gen());
}

bool RandomEngine::bernoulli(double p) { return uniform01() < p; }

std::size_t RandomEngine::categorical(const std::vector<double>& weights) {
  double total = 0;
  for (const double w : weights) {
    if (w < 0) throw std::invalid_argument{"categorical: negative weight"};
    total += w;
  }
  if (!(total > 0)) throw std::invalid_argument{"categorical: weights sum to zero"};
  double x = uniform01() * total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    x -= weights[i];
    if (x < 0) return i;
  }
  return weights.size() - 1;  // numerical edge: fall into the last bucket
}

}  // namespace sanperf::des
