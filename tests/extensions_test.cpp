// Tests of the future-work extensions: batch means, throughput
// measurement and failure-detector detection time.
#include <gtest/gtest.h>

#include "core/extensions.hpp"
#include "core/measurement.hpp"
#include "core/workload.hpp"
#include "des/random.hpp"
#include "stats/batch_means.hpp"
#include "stats/ecdf.hpp"

namespace sanperf {
namespace {

// --------------------------------------------------------------------------
// BatchMeans
// --------------------------------------------------------------------------

TEST(BatchMeansTest, GroupsObservationsIntoBatches) {
  stats::BatchMeans bm{4};
  for (int i = 1; i <= 10; ++i) bm.add(i);
  EXPECT_EQ(bm.observations(), 10u);
  EXPECT_EQ(bm.batches(), 2u);  // the trailing partial batch is pending
  EXPECT_DOUBLE_EQ(bm.batch_means()[0], 2.5);
  EXPECT_DOUBLE_EQ(bm.batch_means()[1], 6.5);
  EXPECT_DOUBLE_EQ(bm.mean(), 4.5);
}

TEST(BatchMeansTest, CiCoversMeanOfIidStream) {
  des::RandomEngine rng{5};
  stats::BatchMeans bm{50};
  for (int i = 0; i < 5000; ++i) bm.add(rng.normal(3.0, 1.0));
  const auto ci = bm.mean_ci(0.95);
  EXPECT_TRUE(ci.contains(3.0));
  EXPECT_LT(ci.half_width, 0.2);
}

TEST(BatchMeansTest, CorrelatedStreamWiderCiThanNaive) {
  // A strongly autocorrelated stream: batch means must acknowledge the
  // correlation with a wider CI than the naive iid summary.
  des::RandomEngine rng{6};
  stats::SummaryStats naive;
  stats::BatchMeans bm{100};
  double x = 0;
  for (int i = 0; i < 20000; ++i) {
    x = 0.99 * x + rng.normal(0, 1);
    naive.add(x);
    bm.add(x);
  }
  EXPECT_GT(bm.mean_ci(0.90).half_width, naive.mean_ci(0.90).half_width * 2);
}

TEST(BatchMeansTest, RejectsZeroBatch) {
  EXPECT_THROW(stats::BatchMeans{0}, std::invalid_argument);
}

// --------------------------------------------------------------------------
// Throughput
// --------------------------------------------------------------------------

namespace {

/// The back-to-back throughput extension as the workload engine models it:
/// one closed-loop client, zero think time, no warm-up.
core::WorkloadResult back_to_back(std::size_t n, const net::NetworkParams& params,
                                  std::size_t executions, std::uint64_t seed) {
  core::WorkloadConfig cfg;
  cfg.n = n;
  cfg.network = params;
  cfg.timers = net::TimerModel::ideal();
  cfg.seed = seed;
  core::WorkloadSpec stream;
  stream.arrivals = core::ArrivalProcess::kClosedLoop;
  stream.clients = 1;
  stream.think_ms = 0;
  stream.warmup = 0;
  stream.measured = executions;
  return core::run_workload(cfg, stream);
}

}  // namespace

TEST(ThroughputTest, AllExecutionsDecideAndRatesAreConsistent) {
  const auto res = back_to_back(3, net::NetworkParams::defaults(), 100, 11);
  EXPECT_EQ(res.stats.undecided, 0u);
  EXPECT_EQ(res.stats.decided, 100u);
  EXPECT_GT(res.stats.delivered_per_s, 0);
  // Rate x duration must reproduce the count.
  EXPECT_NEAR(res.stats.delivered_per_s * res.stats.duration_ms / 1000.0, 100.0, 1.0);
}

TEST(ThroughputTest, BackToBackSlowerThanIsolated) {
  const auto params = net::NetworkParams::defaults();
  const auto isolated =
      core::measure_latency(5, params, net::TimerModel::ideal(), -1, 100, 12);
  const auto b2b = back_to_back(5, params, 100, 12);
  // Interference between consecutive executions raises per-execution latency.
  EXPECT_GT(b2b.stats.latency_ci.mean, isolated.summary().mean() * 1.1);
  // ...and throughput must respect the isolated bound.
  EXPECT_LT(b2b.stats.delivered_per_s, 1000.0 / isolated.summary().mean());
}

TEST(ThroughputTest, ThroughputDecreasesWithN) {
  const auto params = net::NetworkParams::defaults();
  const auto t3 = back_to_back(3, params, 80, 13);
  const auto t7 = back_to_back(7, params, 80, 13);
  EXPECT_GT(t3.stats.delivered_per_s, t7.stats.delivered_per_s);
}

// --------------------------------------------------------------------------
// Detection time
// --------------------------------------------------------------------------

TEST(DetectionTimeTest, BoundedByTimeoutAndPeriod) {
  // Ideal timers: detection happens within (T - Th, Th + T + transit].
  const auto res = core::measure_detection_time(3, net::NetworkParams::defaults(),
                                                net::TimerModel::ideal(), 20.0, 25, 14);
  ASSERT_GE(res.samples_ms.size(), 40u);  // 2 monitors x 25 trials, minus edge cases
  for (const double d : res.samples_ms) {
    EXPECT_GT(d, 20.0 - 14.0 - 0.5);
    EXPECT_LT(d, 14.0 + 20.0 + 1.0);
  }
}

TEST(DetectionTimeTest, GrowsWithTimeout) {
  const auto params = net::NetworkParams::defaults();
  const auto fast = core::measure_detection_time(3, params, net::TimerModel::defaults(), 20.0,
                                                 20, 15);
  const auto slow = core::measure_detection_time(3, params, net::TimerModel::defaults(), 100.0,
                                                 20, 15);
  ASSERT_FALSE(fast.samples_ms.empty());
  ASSERT_FALSE(slow.samples_ms.empty());
  EXPECT_LT(fast.summary.mean(), slow.summary.mean());
}

TEST(DetectionTimeTest, QuantisedTimersStretchDetection) {
  // T = 40, Th = 28: ideal timers keep the true 28 ms heartbeat period
  // (mean detection ~ T - Th/2 = 26 ms); 10 ms ticks stretch the period to
  // 30 ms and delay the monitoring wake-ups, both of which push the mean
  // detection time up.
  const auto params = net::NetworkParams::defaults();
  auto quantised = net::TimerModel::defaults();
  quantised.p_minor_stall = quantised.p_major_stall = quantised.p_huge_stall = 0;  // tick only
  const auto ideal =
      core::measure_detection_time(3, params, net::TimerModel::ideal(), 40.0, 30, 16);
  const auto ticked = core::measure_detection_time(3, params, quantised, 40.0, 30, 16);
  ASSERT_FALSE(ideal.samples_ms.empty());
  ASSERT_FALSE(ticked.samples_ms.empty());
  EXPECT_NEAR(ideal.summary.mean(), 26.0, 3.0);
  EXPECT_GT(ticked.summary.mean(), ideal.summary.mean());
}

}  // namespace
}  // namespace sanperf
