// Tests for the parallel replication engine: RNG seed-splitting, the
// ReplicationRunner thread pool, run-order pooling of latencies, and the
// determinism contract (same master seed => bit-identical merged results
// at any thread count).
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>

#include "core/measurement.hpp"
#include "core/replication.hpp"
#include "core/simulation.hpp"
#include "des/random.hpp"
#include "net/params.hpp"

namespace {

using namespace sanperf;

// --- RNG stream splitting ---------------------------------------------------

TEST(SeedSplitting, MatchesEngineSubstreams) {
  const std::uint64_t master = 20020612;
  const des::SeedSplitter split{master};
  const des::RandomEngine engine{master};
  for (std::uint64_t i : {0ULL, 1ULL, 7ULL, 999ULL}) {
    auto a = split.stream(i);
    auto b = engine.substream("rep", i);
    EXPECT_EQ(a.seed(), b.seed());
    for (int d = 0; d < 16; ++d) EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(SeedSplitting, StreamsAreIndependentAndStable) {
  const des::SeedSplitter split{42};
  // Stable across calls.
  EXPECT_EQ(split.stream_seed(3), split.stream_seed(3));
  // Distinct indices, labels, and masters give distinct streams.
  EXPECT_NE(split.stream_seed(0), split.stream_seed(1));
  EXPECT_NE(des::SeedSplitter(42, "exec").stream_seed(0), split.stream_seed(0));
  EXPECT_NE(des::SeedSplitter(43).stream_seed(0), split.stream_seed(0));
  // Derivation is the documented pure function.
  EXPECT_EQ(split.stream_seed(5), des::derive_seed(42, "rep", 5));
}

// --- ReplicationRunner ------------------------------------------------------

TEST(ReplicationRunner, MapCollectsResultsInIndexOrder) {
  const core::ReplicationRunner runner{8};
  EXPECT_EQ(runner.threads(), 8u);
  const auto out = runner.map(1000, [](std::size_t i) { return i * i; });
  ASSERT_EQ(out.size(), 1000u);
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i * i);
}

TEST(ReplicationRunner, RunsEveryIndexExactlyOnce) {
  const core::ReplicationRunner runner{4};
  std::vector<std::atomic<int>> hits(512);
  runner.for_each(512, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ReplicationRunner, PropagatesExceptions) {
  const core::ReplicationRunner runner{4};
  EXPECT_THROW(runner.for_each(64,
                               [](std::size_t i) {
                                 if (i == 13) throw std::runtime_error{"boom"};
                               }),
               std::runtime_error);
  // The pool survives a failed batch.
  const auto out = runner.map(8, [](std::size_t i) { return i; });
  EXPECT_EQ(out.back(), 7u);
}

TEST(ReplicationRunner, NestedCallsRunInline) {
  const core::ReplicationRunner runner{4};
  std::atomic<std::size_t> total{0};
  runner.for_each(16, [&](std::size_t) {
    runner.for_each(16, [&](std::size_t) { total.fetch_add(1); });
  });
  EXPECT_EQ(total.load(), 256u);
}

TEST(ReplicationRunner, HandlesEmptyAndSingleBatches) {
  const core::ReplicationRunner runner{4};
  runner.for_each(0, [](std::size_t) { FAIL() << "must not be called"; });
  const auto one = runner.map(1, [](std::size_t i) { return i + 41; });
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one[0], 41u);
}

// --- Run-order pooling ------------------------------------------------------

TEST(MergeableStats, MeasuredLatencyMergeAppendsShards) {
  core::MeasuredLatency a, b;
  a.latencies_ms = {1.0, 2.0};
  a.rounds = {1, 1};
  a.undecided = 1;
  b.latencies_ms = {3.0};
  b.rounds = {2};
  b.undecided = 2;
  a.merge(b);
  EXPECT_EQ(a.latencies_ms, (std::vector<double>{1.0, 2.0, 3.0}));
  EXPECT_EQ(a.rounds, (std::vector<std::int32_t>{1, 1, 2}));
  EXPECT_EQ(a.undecided, 3u);
}

TEST(MergeableStats, Class3RunsPoolLatenciesInRunOrder) {
  std::vector<core::Class3Run> runs(3);
  runs[0].latency.latencies_ms = {1.0, 2.0};
  runs[0].latency.undecided = 1;
  runs[1].latency.undecided = 2;  // no execution decided: no run mean
  runs[2].latency.latencies_ms = {3.0};
  const auto agg = core::fold_class3_runs(runs);
  EXPECT_EQ(agg.all_latencies_ms, (std::vector<double>{1.0, 2.0, 3.0}));
  EXPECT_EQ(agg.undecided, 3u);
  EXPECT_EQ(agg.latency_ms.count, 2u);
  EXPECT_DOUBLE_EQ(agg.latency_ms.mean, (1.5 + 3.0) / 2);
}

// --- Determinism across thread counts ---------------------------------------

TEST(EngineDeterminism, SimulationIdenticalAt1And8Threads) {
  const core::ReplicationRunner one{1};
  const core::ReplicationRunner eight{8};
  const auto transport = sanmodels::TransportParams::nominal(3);

  const auto r1 = core::simulate_class1(3, transport, 200, 12345, one);
  const auto r8 = core::simulate_class1(3, transport, 200, 12345, eight);

  ASSERT_EQ(r1.rewards.size(), r8.rewards.size());
  EXPECT_EQ(r1.rewards, r8.rewards);  // bit-identical, not just close
  EXPECT_EQ(r1.dropped, r8.dropped);
  EXPECT_EQ(r1.summary.count(), r8.summary.count());
  EXPECT_EQ(r1.summary.mean(), r8.summary.mean());
  EXPECT_EQ(r1.summary.variance(), r8.summary.variance());
  EXPECT_EQ(r1.ecdf().sorted_samples(), r8.ecdf().sorted_samples());
}

TEST(EngineDeterminism, ParallelStudyMatchesSequentialReference) {
  sanmodels::ConsensusSanConfig cfg;
  cfg.n = 3;
  cfg.transport = sanmodels::TransportParams::nominal(3);
  const auto model = sanmodels::build_consensus_san(cfg);
  san::TransientStudy study{model.model, model.stop_predicate()};
  study.set_time_limit(des::Duration::seconds(10));

  const auto sequential = study.run(150, 777);
  const core::ReplicationRunner eight{8};
  const auto parallel = core::run_study(eight, study, 150, 777);

  EXPECT_EQ(sequential.rewards, parallel.rewards);
  EXPECT_EQ(sequential.dropped, parallel.dropped);
  EXPECT_EQ(sequential.summary.mean(), parallel.summary.mean());
  EXPECT_EQ(sequential.ci.half_width, parallel.ci.half_width);
}

TEST(EngineDeterminism, MeasurementIdenticalAt1And8Threads) {
  const core::ReplicationRunner one{1};
  const core::ReplicationRunner eight{8};
  const auto params = net::NetworkParams::defaults();
  const auto timers = net::TimerModel::ideal();

  const auto m1 = core::measure_latency(3, params, timers, -1, 50, 999, one);
  const auto m8 = core::measure_latency(3, params, timers, -1, 50, 999, eight);

  EXPECT_EQ(m1.latencies_ms, m8.latencies_ms);
  EXPECT_EQ(m1.rounds, m8.rounds);
  EXPECT_EQ(m1.undecided, m8.undecided);
}

}  // namespace
