#include "des/random.hpp"

#include <algorithm>
#include <cmath>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

namespace sanperf::des {

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

RandomEngine::RandomEngine(const RandomEngine& other)
    : seed_{other.seed_}, next_{other.next_}, seeded_{other.seeded_} {
  std::copy_n(other.x_.begin(), seeded_, x_.begin());
}

RandomEngine& RandomEngine::operator=(const RandomEngine& other) {
  if (this == &other) return *this;
  seed_ = other.seed_;
  next_ = other.next_;
  seeded_ = other.seeded_;
  std::copy_n(other.x_.begin(), seeded_, x_.begin());
  return *this;
}

void RandomEngine::seed_through(std::uint32_t count) {
  // std::mersenne_twister_engine::seed: word 0 is the seed, word i a
  // multiplicative hash of word i - 1 plus i. The chain is carried in a
  // register; reading word i - 1 back from x_ doubles its latency.
  std::uint32_t i = seeded_;
  if (i == 0) x_[i++] = mix64(seed_);
  std::uint64_t word = x_[i - 1];
  for (; i < count; ++i) {
    word = 6364136223846793005ULL * (word ^ (word >> 62)) + i;
    x_[i] = word;
  }
  seeded_ = i;
}

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
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

std::int64_t RandomEngine::uniform_int(std::int64_t lo, std::int64_t hi) {
  if (lo > hi) throw std::invalid_argument{"uniform_int: lo > hi"};
  return std::uniform_int_distribution<std::int64_t>{lo, hi}(*this);
}

double RandomEngine::exponential_mean(double mean) {
  if (!(mean > 0)) throw std::invalid_argument{"exponential_mean: mean <= 0"};
  double u = uniform01();
  // Guard against log(0).
  if (u <= 0.0) u = 0x1.0p-53;
  return -mean * std::log(u);
}

double RandomEngine::normal(double mean, double stddev) {
  return std::normal_distribution<double>{mean, stddev}(*this);
}

double RandomEngine::weibull(double shape, double scale) {
  if (!(shape > 0) || !(scale > 0)) throw std::invalid_argument{"weibull: params <= 0"};
  return std::weibull_distribution<double>{shape, scale}(*this);
}

bool RandomEngine::bernoulli(double p) { return uniform01() < p; }

std::size_t RandomEngine::categorical(const std::vector<double>& weights) {
  double total = 0;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    if (!std::isfinite(weights[i])) {
      throw std::invalid_argument{"categorical: weight " + std::to_string(i) + " is not finite"};
    }
    if (weights[i] < 0) {
      throw std::invalid_argument{"categorical: weight " + std::to_string(i) + " is negative"};
    }
    total += weights[i];
  }
  if (!(total > 0)) throw std::invalid_argument{"categorical: weights sum to zero"};
  if (!std::isfinite(total)) throw std::invalid_argument{"categorical: weights sum to infinity"};
  double x = uniform01() * total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    x -= weights[i];
    if (x < 0) return i;
  }
  return weights.size() - 1;  // numerical edge: fall into the last bucket
}

}  // namespace sanperf::des
