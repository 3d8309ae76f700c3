// Parallel replication engine.
//
// Every campaign in this codebase is a set of independent replications,
// each fully determined by (master seed, replication index). The
// ReplicationRunner fans those indices out across a persistent thread pool
// and the caller folds the per-index results back together IN INDEX ORDER,
// so merged statistics are bit-identical regardless of thread count or
// scheduling order. One thread (or SANPERF_THREADS=1) degenerates to the
// plain sequential loop.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "des/random.hpp"
#include "san/study.hpp"

namespace sanperf::core {

/// The flattened (grid-point x replication) index space of a campaign.
///
/// A campaign driver sweeps a parameter grid and runs many replications per
/// grid point. Fanning out only the inner replication loop leaves the outer
/// sweep sequential; a ShardSpace instead enumerates every (group,
/// replication) pair as one flat task list, so a single runner batch covers
/// the whole campaign. Each task carries its own seed from the group's
/// SeedSplitter: results are pure in the task, independent of scheduling,
/// and fold back deterministically in index order.
class ShardSpace {
 public:
  struct Task {
    std::size_t group = 0;   ///< grid-point index, in add_group() order
    std::size_t index = 0;   ///< replication index within the group
    std::uint64_t seed = 0;  ///< SeedSplitter{group seed, label}.stream_seed(index)
  };

  /// Appends a group of `count` tasks seeded from SeedSplitter{seed, label}.
  /// Returns the group id (consecutive from 0).
  std::size_t add_group(std::size_t count, std::uint64_t seed, std::string_view label = "rep") {
    groups_.push_back(Group{total_, count, des::SeedSplitter{seed, label}});
    total_ += count;
    return groups_.size() - 1;
  }

  [[nodiscard]] std::size_t group_count() const { return groups_.size(); }
  [[nodiscard]] std::size_t group_size(std::size_t group) const { return groups_[group].count; }
  /// Total number of tasks across all groups.
  [[nodiscard]] std::size_t size() const { return total_; }

  /// Decodes a flat index in [0, size()) into its task.
  [[nodiscard]] Task task(std::size_t flat) const {
    // Groups are few (a parameter grid): a linear scan beats binary search
    // on these sizes and keeps the structure trivially copyable.
    std::size_t g = 0;
    while (g + 1 < groups_.size() && groups_[g + 1].offset <= flat) ++g;
    const Group& group = groups_[g];
    Task t;
    t.group = g;
    t.index = flat - group.offset;
    t.seed = group.seeds.stream_seed(t.index);
    return t;
  }

 private:
  struct Group {
    std::size_t offset;
    std::size_t count;
    des::SeedSplitter seeds;
  };
  std::vector<Group> groups_;
  std::size_t total_ = 0;
};

class ReplicationRunner {
 public:
  /// `threads == 0` resolves to the hardware concurrency.
  explicit ReplicationRunner(std::size_t threads = 0);
  ~ReplicationRunner();

  ReplicationRunner(const ReplicationRunner&) = delete;
  ReplicationRunner& operator=(const ReplicationRunner&) = delete;

  [[nodiscard]] std::size_t threads() const { return threads_; }

  /// Runs fn(i) for every i in [0, count), distributed over the pool; the
  /// calling thread participates. Blocks until every index has finished.
  /// The first exception thrown by fn is rethrown here. Calls issued from
  /// inside a running batch (nested parallelism) execute inline on the
  /// current thread, so replication bodies may themselves use the runner.
  void for_each(std::size_t count, const std::function<void(std::size_t)>& fn) const;

  /// for_each with results collected in index order. fn's result type must
  /// be default-constructible.
  template <typename Fn>
  [[nodiscard]] auto map(std::size_t count, Fn&& fn) const {
    using R = std::invoke_result_t<Fn&, std::size_t>;
    static_assert(std::is_default_constructible_v<R>,
                  "ReplicationRunner::map requires a default-constructible result");
    static_assert(!std::is_same_v<R, bool>,
                  "ReplicationRunner::map cannot return bool: std::vector<bool> packs bits, "
                  "so concurrent out[i] writes race; return char/int instead");
    std::vector<R> out(count);
    for_each(count, [&](std::size_t i) { out[i] = fn(i); });
    return out;
  }

  /// Runs fn(task) for every task of the flattened campaign space in one
  /// batch -- grid points and replications fan out together, so a sweep
  /// with many small groups saturates the pool just as well as one large
  /// group. Results come back grouped, in index order within each group:
  /// folding them sequentially reproduces the sequential campaign bit for
  /// bit at any thread count.
  template <typename Fn>
  [[nodiscard]] auto run_flat(const ShardSpace& space, Fn&& fn) const {
    using R = std::invoke_result_t<Fn&, const ShardSpace::Task&>;
    static_assert(std::is_default_constructible_v<R>,
                  "ReplicationRunner::run_flat requires a default-constructible result");
    std::vector<std::vector<R>> out(space.group_count());
    for (std::size_t g = 0; g < space.group_count(); ++g) out[g].resize(space.group_size(g));
    for_each(space.size(), [&](std::size_t i) {
      const ShardSpace::Task t = space.task(i);
      out[t.group][t.index] = fn(t);
    });
    return out;
  }

 private:
  struct Batch {
    Batch(const std::function<void(std::size_t)>& f, std::size_t c) : fn{&f}, count{c} {}
    const std::function<void(std::size_t)>* fn;
    std::size_t count;
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> finished{0};
    std::exception_ptr error;  ///< first failure; guarded by the runner mutex
  };

  void worker_loop();
  void drain(Batch& batch) const;

  std::size_t threads_;
  std::vector<std::thread> workers_;

  mutable std::mutex mutex_;
  mutable std::condition_variable wake_;
  mutable std::condition_variable done_;
  mutable std::shared_ptr<Batch> batch_;
  mutable std::uint64_t generation_ = 0;
  bool stop_ = false;
};

/// Process-wide runner shared by the experiment drivers. Thread count comes
/// from SANPERF_THREADS (unset or empty means hardware concurrency); any
/// value other than an integer >= 1 throws std::invalid_argument.
[[nodiscard]] const ReplicationRunner& default_runner();

/// Folds per-replication rewards (nullopt = dropped) in index order into a
/// StudyResult with its 90% interval: the exact sequence of add() calls the
/// sequential loop makes.
[[nodiscard]] san::StudyResult fold_study_rewards(
    const std::vector<std::optional<double>>& rewards);

/// Runs a transient study's replications through `runner` and merges the
/// per-replication rewards in index order: the result is bit-identical to
/// san::TransientStudy::run for every thread count.
[[nodiscard]] san::StudyResult run_study(const ReplicationRunner& runner,
                                         const san::TransientStudy& study,
                                         std::size_t replications, std::uint64_t seed);

}  // namespace sanperf::core
