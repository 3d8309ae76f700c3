// Seeded random engine with named substreams.
//
// Every stochastic component takes a RandomEngine (or derives a substream
// from one); a run is fully determined by its master seed. Substreams are
// derived by hashing the parent seed with a label, so adding a new consumer
// does not perturb the draws seen by existing ones.
//
// The engine is its own MT19937-64 (312 words of state) and computes each
// word when a draw first needs it: most engines a run builds (per-process
// and per-link streams, substreams that only derive further seeds) never
// draw, and most that do draw a few dozen words. Seed word i follows from
// word i - 1, and output word k is the twist of words k, k + 1 and
// k + 156, so the first draw seeds 157 words and twists one; each later
// draw twists one word (branch-free) and seeds at most one. The words form
// exactly the sequence of std::mt19937_64{mix64(seed)}. A copy copies only
// the words computed so far (none for an undrawn engine) and continues
// exactly like the engine it was copied from; substream() reads only the
// seed.
#pragma once

#include <array>
#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

namespace sanperf::des {

class RandomEngine {
 public:
  using result_type = std::uint64_t;

  explicit RandomEngine(std::uint64_t seed) : seed_{seed} {}
  RandomEngine(const RandomEngine& other);
  RandomEngine& operator=(const RandomEngine& other);

  /// Derives an independent child engine. Deterministic in (seed, label, index).
  [[nodiscard]] RandomEngine substream(std::string_view label, std::uint64_t index = 0) const;

  /// Uniform real in [a, b).
  [[nodiscard]] double uniform(double a, double b);
  /// Uniform real in [0, 1).
  [[nodiscard]] double uniform01();
  /// Uniform integer in [lo, hi] inclusive.
  [[nodiscard]] std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);
  /// Exponential with the given mean (not rate). Requires mean > 0.
  [[nodiscard]] double exponential_mean(double mean);
  /// Normal with the given mean and standard deviation.
  [[nodiscard]] double normal(double mean, double stddev);
  /// Weibull with shape k and scale lambda.
  [[nodiscard]] double weibull(double shape, double scale);
  /// Bernoulli trial.
  [[nodiscard]] bool bernoulli(double p);
  /// Index in [0, weights.size()) drawn proportionally to weights. Every
  /// weight must be finite and non-negative, and their sum positive.
  [[nodiscard]] std::size_t categorical(const std::vector<double>& weights);

  [[nodiscard]] std::uint64_t seed() const { return seed_; }

  /// Raw 64-bit draw (for hashing/shuffling utilities).
  [[nodiscard]] std::uint64_t next_u64() { return (*this)(); }

  // The uniform random bit generator interface (the <random> distributions
  // draw through it).
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return std::numeric_limits<result_type>::max(); }
  result_type operator()() {
    if (seeded_ < kWords) [[unlikely]] seed_through(next_ < kShift ? next_ + kShift + 1 : kWords);
    const std::uint32_t k = next_;
    const std::uint32_t k1 = k + 1 == kWords ? 0 : k + 1;
    const std::uint32_t km = k < kShift ? k + kShift : k - kShift;
    const std::uint64_t y = (x_[k] & kUpper) | (x_[k1] & kLower);
    const std::uint64_t word = x_[km] ^ (y >> 1) ^ ((0 - (y & 1)) & kTwist);
    x_[k] = word;
    next_ = k1;
    return temper(word);
  }

 private:
  // MT19937-64: 312 words, middle offset 156 (exactly half), 31 lower bits.
  static constexpr std::uint32_t kWords = 312;
  static constexpr std::uint32_t kShift = 156;
  static constexpr std::uint64_t kLower = (std::uint64_t{1} << 31) - 1;
  static constexpr std::uint64_t kUpper = ~kLower;
  static constexpr std::uint64_t kTwist = 0xb5026f5aa96619e9ULL;

  static std::uint64_t temper(std::uint64_t z) {
    z ^= (z >> 29) & 0x5555555555555555ULL;
    z ^= (z << 17) & 0x71d67fffeda60000ULL;
    z ^= (z << 37) & 0xfff7eee000000000ULL;
    return z ^ (z >> 43);
  }
  /// Computes seed words up to (not including) `count`.
  void seed_through(std::uint32_t count);

  std::uint64_t seed_;
  std::uint32_t next_ = 0;    ///< the word the next draw twists and returns
  std::uint32_t seeded_ = 0;  ///< x_[0, seeded_) hold state; the rest is unset
  // Left uninitialized on purpose: a run builds ~100k engines, most never
  // draw, and only x_[0, seeded_) is ever read or copied.
  std::array<std::uint64_t, kWords> x_;
};

/// SplitMix64 finalizer; used for seed derivation and stable hashing.
[[nodiscard]] std::uint64_t mix64(std::uint64_t x);

/// Seed for the substream of `parent_seed` named (label, index). This is the
/// derivation RandomEngine::substream uses; exposed so seeds can be split
/// without instantiating engines.
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t parent_seed, std::string_view label,
                                        std::uint64_t index = 0);

/// Splits one master seed into arbitrarily many independent replication
/// streams. stream(i) is pure in (master_seed, label, i): replication i sees
/// the same draws no matter how many threads run the campaign or in which
/// order replications execute. Equivalent to
/// RandomEngine{master}.substream(label, i), without engine construction.
class SeedSplitter {
 public:
  explicit SeedSplitter(std::uint64_t master_seed, std::string_view label = "rep")
      : master_{master_seed}, label_{label} {}

  [[nodiscard]] std::uint64_t stream_seed(std::uint64_t index) const {
    return derive_seed(master_, label_, index);
  }
  [[nodiscard]] RandomEngine stream(std::uint64_t index) const {
    return RandomEngine{stream_seed(index)};
  }
  [[nodiscard]] std::uint64_t master_seed() const { return master_; }

 private:
  std::uint64_t master_;
  std::string label_;
};

}  // namespace sanperf::des
