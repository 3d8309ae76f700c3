#include "core/replication.hpp"

#include <cerrno>
#include <cstdlib>
#include <stdexcept>
#include <string>

#include "des/random.hpp"

namespace sanperf::core {

namespace {

// True while the current thread is executing a batch; nested for_each calls
// run inline instead of deadlocking on the single shared batch slot.
thread_local bool tl_in_batch = false;

std::size_t resolve_threads(std::size_t requested) {
  if (requested != 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

}  // namespace

ReplicationRunner::ReplicationRunner(std::size_t threads)
    : threads_{resolve_threads(threads)} {
  // The calling thread participates in every batch, so spawn one fewer.
  workers_.reserve(threads_ - 1);
  for (std::size_t i = 0; i + 1 < threads_; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ReplicationRunner::~ReplicationRunner() {
  {
    std::lock_guard lk{mutex_};
    stop_ = true;
  }
  wake_.notify_all();
  for (auto& w : workers_) w.join();
}

void ReplicationRunner::worker_loop() {
  std::uint64_t seen = 0;
  for (;;) {
    std::shared_ptr<Batch> batch;
    {
      std::unique_lock lk{mutex_};
      wake_.wait(lk, [&] { return stop_ || generation_ != seen; });
      if (stop_) return;
      seen = generation_;
      batch = batch_;
    }
    if (batch) drain(*batch);
  }
}

void ReplicationRunner::drain(Batch& batch) const {
  tl_in_batch = true;
  for (;;) {
    const std::size_t i = batch.next.fetch_add(1, std::memory_order_relaxed);
    if (i >= batch.count) break;
    try {
      (*batch.fn)(i);
    } catch (...) {
      std::lock_guard lk{mutex_};
      if (!batch.error) batch.error = std::current_exception();
    }
    if (batch.finished.fetch_add(1, std::memory_order_acq_rel) + 1 == batch.count) {
      std::lock_guard lk{mutex_};  // pairs with the done_ wait
      done_.notify_all();
    }
  }
  tl_in_batch = false;
}

void ReplicationRunner::for_each(std::size_t count,
                                 const std::function<void(std::size_t)>& fn) const {
  if (count == 0) return;
  if (workers_.empty() || count == 1 || tl_in_batch) {
    for (std::size_t i = 0; i < count; ++i) fn(i);
    return;
  }
  auto batch = std::make_shared<Batch>(fn, count);
  {
    std::lock_guard lk{mutex_};
    batch_ = batch;
    ++generation_;
  }
  wake_.notify_all();
  drain(*batch);
  {
    std::unique_lock lk{mutex_};
    done_.wait(lk, [&] { return batch->finished.load(std::memory_order_acquire) == count; });
    if (batch_ == batch) batch_ = nullptr;
  }
  if (batch->error) std::rethrow_exception(batch->error);
}

const ReplicationRunner& default_runner() {
  static const ReplicationRunner runner{[] {
    const char* env = std::getenv("SANPERF_THREADS");
    if (env == nullptr || *env == '\0') return std::size_t{0};
    char* end = nullptr;
    errno = 0;
    const long v = std::strtol(env, &end, 10);
    if (end == env || *end != '\0' || errno == ERANGE || v < 1) {
      throw std::invalid_argument{"SANPERF_THREADS must be an integer >= 1, got '" +
                                  std::string{env} + "'"};
    }
    return static_cast<std::size_t>(v);
  }()};
  return runner;
}

san::StudyResult fold_study_rewards(const std::vector<std::optional<double>>& rewards) {
  san::StudyResult out;
  out.rewards.reserve(rewards.size());
  for (const auto& reward : rewards) {
    if (!reward) {
      ++out.dropped;
      continue;
    }
    out.rewards.push_back(*reward);
    out.summary.add(*reward);
  }
  out.ci = out.summary.mean_ci(0.90);
  return out;
}

san::StudyResult run_study(const ReplicationRunner& runner, const san::TransientStudy& study,
                           std::size_t replications, std::uint64_t seed) {
  const des::SeedSplitter seeds{seed};
  const auto rewards = runner.map(
      replications, [&](std::size_t r) { return study.run_one(seeds.stream(r)); });
  // Deterministic fold in replication order: the exact sequence of add()
  // calls the sequential loop would make.
  return fold_study_rewards(rewards);
}

}  // namespace sanperf::core
