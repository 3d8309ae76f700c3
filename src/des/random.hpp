// Seeded random engine with named substreams.
//
// Every stochastic component takes a RandomEngine (or derives a substream
// from one); a run is fully determined by its master seed. Substreams are
// derived by hashing the parent seed with a label, so adding a new consumer
// does not perturb the draws seen by existing ones.
//
// An engine seeds its mt19937_64 (312 words) on its first draw, not when
// it is built: most engines a run builds (per-process and per-link
// streams, substreams that only derive further seeds) never draw. The
// sequence of a seed is the same either way, a copy continues exactly like
// the engine it was copied from, and substream() reads only the seed.
#pragma once

#include <cstdint>
#include <optional>
#include <random>
#include <string_view>
#include <vector>

namespace sanperf::des {

class RandomEngine {
 public:
  explicit RandomEngine(std::uint64_t seed);

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
  /// Index in [0, weights.size()) drawn proportionally to weights.
  [[nodiscard]] std::size_t categorical(const std::vector<double>& weights);

  [[nodiscard]] std::uint64_t seed() const { return seed_; }

  /// Raw 64-bit draw (for hashing/shuffling utilities).
  [[nodiscard]] std::uint64_t next_u64() { return gen()(); }

  using result_type = std::mt19937_64::result_type;

 private:
  /// The generator, seeded with mix64(seed) on first use.
  std::mt19937_64& gen() {
    if (!gen_) [[unlikely]] seed_generator();
    return *gen_;
  }
  void seed_generator();

  std::uint64_t seed_;
  std::optional<std::mt19937_64> gen_;
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
