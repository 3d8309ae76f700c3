// Tests for the flattened campaign fan-out: ShardSpace enumeration,
// ReplicationRunner::run_flat, pairwise tree merging of shards, and the
// determinism contract of the flattened paper drivers (bit-identical
// outputs at any thread count).
#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <vector>

#include "core/experiments.hpp"
#include "core/measurement.hpp"
#include "core/replication.hpp"
#include "core/simulation.hpp"
#include "des/random.hpp"
#include "net/params.hpp"
#include "stats/ecdf.hpp"
#include "stats/histogram.hpp"

namespace {

using namespace sanperf;

// --- ShardSpace -------------------------------------------------------------

TEST(ShardSpace, EnumeratesGroupsInOrderWithSplitterSeeds) {
  core::ShardSpace space;
  EXPECT_EQ(space.size(), 0u);
  EXPECT_EQ(space.add_group(3, 111, "exec"), 0u);
  EXPECT_EQ(space.add_group(0, 222), 1u);  // empty grid points are legal
  EXPECT_EQ(space.add_group(2, 333, "run"), 2u);
  ASSERT_EQ(space.size(), 5u);
  ASSERT_EQ(space.group_count(), 3u);
  EXPECT_EQ(space.group_size(0), 3u);
  EXPECT_EQ(space.group_size(1), 0u);
  EXPECT_EQ(space.group_size(2), 2u);

  const des::SeedSplitter exec_seeds{111, "exec"};
  const des::SeedSplitter run_seeds{333, "run"};
  for (std::size_t i = 0; i < 3; ++i) {
    const auto t = space.task(i);
    EXPECT_EQ(t.group, 0u);
    EXPECT_EQ(t.index, i);
    EXPECT_EQ(t.seed, exec_seeds.stream_seed(i));
  }
  for (std::size_t i = 3; i < 5; ++i) {
    const auto t = space.task(i);
    EXPECT_EQ(t.group, 2u);
    EXPECT_EQ(t.index, i - 3);
    EXPECT_EQ(t.seed, run_seeds.stream_seed(i - 3));
  }
}

TEST(ShardSpace, RunFlatCollectsGroupedResultsInIndexOrder) {
  core::ShardSpace space;
  space.add_group(100, 1);
  space.add_group(37, 2);
  space.add_group(63, 3);
  const core::ReplicationRunner runner{4};
  const auto out = runner.run_flat(space, [](const core::ShardSpace::Task& t) {
    return t.group * 1000 + t.index;
  });
  ASSERT_EQ(out.size(), 3u);
  ASSERT_EQ(out[0].size(), 100u);
  ASSERT_EQ(out[1].size(), 37u);
  ASSERT_EQ(out[2].size(), 63u);
  for (std::size_t g = 0; g < 3; ++g) {
    for (std::size_t i = 0; i < out[g].size(); ++i) EXPECT_EQ(out[g][i], g * 1000 + i);
  }
}

TEST(ShardSpace, RunFlatMatchesSequentialGroupLoops) {
  // The flattened fan-out must reproduce what per-group map() calls produce.
  core::ShardSpace space;
  space.add_group(50, 7, "exec");
  space.add_group(20, 9, "exec");
  const core::ReplicationRunner one{1};
  const core::ReplicationRunner four{4};
  const auto fn = [](const core::ShardSpace::Task& t) {
    return static_cast<double>(des::mix64(t.seed ^ t.index));
  };
  const auto flat1 = one.run_flat(space, fn);
  const auto flat4 = four.run_flat(space, fn);
  EXPECT_EQ(flat1, flat4);

  const des::SeedSplitter g0{7, "exec"};
  for (std::size_t i = 0; i < 50; ++i) {
    EXPECT_EQ(flat1[0][i], static_cast<double>(des::mix64(g0.stream_seed(i) ^ i)));
  }
}

// --- Tree merge -------------------------------------------------------------

TEST(TreeMerge, EcdfShardsEqualPooledSample) {
  des::RandomEngine rng{5};
  std::vector<double> all;
  std::vector<stats::Ecdf> shards;
  for (int s = 0; s < 9; ++s) {  // odd shard count exercises the ride-along
    std::vector<double> xs(17);
    for (auto& x : xs) x = rng.normal(2.0, 1.0);
    all.insert(all.end(), xs.begin(), xs.end());
    shards.emplace_back(xs);
  }
  const auto merged = core::tree_merge(
      std::move(shards), [](stats::Ecdf& a, stats::Ecdf& b) { a.merge(b); });
  EXPECT_EQ(merged.sorted_samples(), stats::Ecdf{all}.sorted_samples());
}

TEST(TreeMerge, HistogramShardsEqualSequentialFold) {
  des::RandomEngine rng{6};
  stats::Histogram sequential{0, 10, 20};
  std::vector<stats::Histogram> shards;
  for (int s = 0; s < 6; ++s) {
    stats::Histogram h{0, 10, 20};
    for (int i = 0; i < 50; ++i) {
      const double x = rng.uniform(-1.0, 12.0);
      h.add(x);
      sequential.add(x);
    }
    shards.push_back(h);
  }
  const auto merged = core::tree_merge(
      std::move(shards), [](stats::Histogram& a, stats::Histogram& b) { a.merge(b); });
  ASSERT_EQ(merged.total(), sequential.total());
  EXPECT_EQ(merged.underflow(), sequential.underflow());
  EXPECT_EQ(merged.overflow(), sequential.overflow());
  for (std::size_t b = 0; b < merged.bins(); ++b) EXPECT_EQ(merged.count(b), sequential.count(b));
}

TEST(TreeMerge, ConcatenationPreservesShardOrder) {
  // Vector concatenation is associative: the tree must yield the exact
  // sequential append order, with or without a runner driving the pairs.
  std::vector<std::vector<int>> shards;
  std::vector<int> expected;
  for (int s = 0; s < 11; ++s) {
    std::vector<int> xs(s + 1);
    std::iota(xs.begin(), xs.end(), 100 * s);
    expected.insert(expected.end(), xs.begin(), xs.end());
    shards.push_back(xs);
  }
  const auto concat = [](std::vector<int>& a, std::vector<int>& b) {
    a.insert(a.end(), b.begin(), b.end());
  };
  auto copy = shards;
  EXPECT_EQ(core::tree_merge(std::move(copy), concat), expected);
  const core::ReplicationRunner runner{4};
  EXPECT_EQ(core::tree_merge(std::move(shards), concat, &runner), expected);
}

TEST(TreeMerge, HandlesEmptyAndSingleShardInputs) {
  const auto concat = [](std::vector<int>& a, std::vector<int>& b) {
    a.insert(a.end(), b.begin(), b.end());
  };
  EXPECT_TRUE(core::tree_merge(std::vector<std::vector<int>>{}, concat).empty());
  EXPECT_EQ(core::tree_merge(std::vector<std::vector<int>>{{1, 2}}, concat),
            (std::vector<int>{1, 2}));
}

// --- Flattened drivers: determinism across thread counts --------------------

core::Scale tiny_scale() {
  auto scale = core::Scale::quick();
  scale.delay_probes = 150;  // three probe shards: exercises partial shards
  scale.class1_executions = 16;
  scale.sim_replications = 16;
  scale.class3_runs = 2;
  scale.class3_executions = 12;
  scale.ns = {3, 5};
  scale.sim_ns = {3, 5};
  scale.timeouts_ms = {5, 40};
  return scale;
}

TEST(FlatDeterminism, CalibrationProbesIdenticalAt1And4Threads) {
  const core::ReplicationRunner one{1};
  const core::ReplicationRunner four{4};
  const auto params = net::NetworkParams::defaults();
  EXPECT_EQ(core::measure_unicast_delays(params, 150, 42, one),
            core::measure_unicast_delays(params, 150, 42, four));
  EXPECT_EQ(core::measure_broadcast_delays(params, 5, 150, 43, one),
            core::measure_broadcast_delays(params, 5, 150, 43, four));
}

TEST(FlatDeterminism, Fig7aIdenticalAt1And4Threads) {
  const core::ReplicationRunner one{1};
  const core::ReplicationRunner four{4};
  auto ctx = core::make_context(tiny_scale(), 77);
  ctx.timers = net::TimerModel::ideal();

  ctx.runner = &one;
  const auto rows1 = core::run_fig7a(ctx, ctx.scale.ns);
  ctx.runner = &four;
  const auto rows4 = core::run_fig7a(ctx, ctx.scale.ns);

  ASSERT_EQ(rows1.size(), rows4.size());
  for (std::size_t i = 0; i < rows1.size(); ++i) {
    EXPECT_EQ(rows1[i].n, rows4[i].n);
    EXPECT_EQ(rows1[i].latencies_ms, rows4[i].latencies_ms);  // bit-identical
    EXPECT_EQ(rows1[i].mean.mean, rows4[i].mean.mean);
    EXPECT_EQ(rows1[i].mean.half_width, rows4[i].mean.half_width);
    EXPECT_EQ(rows1[i].undecided, rows4[i].undecided);
  }
}

TEST(FlatDeterminism, Table1IdenticalAt1And4Threads) {
  const core::ReplicationRunner one{1};
  const core::ReplicationRunner four{4};
  auto ctx = core::make_context(tiny_scale(), 78);
  ctx.timers = net::TimerModel::ideal();

  ctx.runner = &one;
  const auto cells1 = core::run_table1_cells(ctx, ctx.scale.ns, {-1, 0, 1});
  ctx.runner = &four;
  const auto cells4 = core::run_table1_cells(ctx, ctx.scale.ns, {-1, 0, 1});

  ASSERT_EQ(cells1.size(), cells4.size());
  for (std::size_t i = 0; i < cells1.size(); ++i) {
    EXPECT_EQ(cells1[i].n, cells4[i].n);
    EXPECT_EQ(cells1[i].crashed, cells4[i].crashed);
    EXPECT_EQ(cells1[i].meas.mean, cells4[i].meas.mean);
    EXPECT_EQ(cells1[i].sim, cells4[i].sim);
  }
  // The calibrated n carry simulation cells: n = 3 no crash, n = 5
  // coordinator crash.
  EXPECT_TRUE(cells1[0].sim.has_value());
  EXPECT_TRUE(cells1[4].sim.has_value());
}

TEST(FlatDeterminism, Class3MeasurementsIdenticalAt1And4Threads) {
  const core::ReplicationRunner one{1};
  const core::ReplicationRunner four{4};
  auto ctx = core::make_context(tiny_scale(), 79);

  ctx.runner = &one;
  const auto pts1 = core::run_class3_measurements(ctx, {3}, ctx.scale.timeouts_ms);
  ctx.runner = &four;
  const auto pts4 = core::run_class3_measurements(ctx, {3}, ctx.scale.timeouts_ms);

  ASSERT_EQ(pts1.size(), pts4.size());
  for (std::size_t i = 0; i < pts1.size(); ++i) {
    EXPECT_EQ(pts1[i].n, pts4[i].n);
    EXPECT_EQ(pts1[i].timeout_ms, pts4[i].timeout_ms);
    EXPECT_EQ(pts1[i].meas.latency_ms.mean, pts4[i].meas.latency_ms.mean);
    EXPECT_EQ(pts1[i].meas.all_latencies_ms, pts4[i].meas.all_latencies_ms);
    EXPECT_EQ(pts1[i].meas.undecided, pts4[i].meas.undecided);
    EXPECT_EQ(pts1[i].meas.pooled_qos.t_mr_ms, pts4[i].meas.pooled_qos.t_mr_ms);
  }
}

TEST(FlatDeterminism, Fig7bIdenticalAt1And4Threads) {
  const core::ReplicationRunner one{1};
  const core::ReplicationRunner four{4};
  auto ctx = core::make_context(tiny_scale(), 81);
  ctx.timers = net::TimerModel::ideal();

  ctx.runner = &one;
  const auto r1 = core::run_fig7b(ctx, core::tsend_candidates());
  ctx.runner = &four;
  const auto r4 = core::run_fig7b(ctx, core::tsend_candidates());

  EXPECT_EQ(r1.measured_ms, r4.measured_ms);  // bit-identical
  EXPECT_EQ(r1.sim_ms, r4.sim_ms);
  EXPECT_EQ(r1.sweep.best_t_send_ms, r4.sweep.best_t_send_ms);
  ASSERT_EQ(r1.sweep.candidates.size(), r4.sweep.candidates.size());
  for (std::size_t i = 0; i < r1.sweep.candidates.size(); ++i) {
    EXPECT_EQ(r1.sweep.candidates[i].ks_distance, r4.sweep.candidates[i].ks_distance);
    EXPECT_EQ(r1.sweep.candidates[i].sim_mean_ms, r4.sweep.candidates[i].sim_mean_ms);
    EXPECT_EQ(r1.sweep.candidates[i].sim_latencies_ms, r4.sweep.candidates[i].sim_latencies_ms);
  }
}

TEST(FlatDeterminism, FlattenedFig7bMatchesNestedCampaigns) {
  // The single-space fig7b driver must reproduce what the nested
  // measure_latency + per-candidate simulate_class1 calls produced before
  // the flattening: same seeds, same folds, same bits.
  auto ctx = core::make_context(tiny_scale(), 82);
  ctx.timers = net::TimerModel::ideal();
  const auto result = core::run_fig7b(ctx, core::tsend_candidates());

  const auto meas = core::measure_latency(5, ctx.network, ctx.timers, -1,
                                          ctx.scale.class1_executions, ctx.seed + 105);
  EXPECT_EQ(result.measured_ms, meas.latencies_ms);

  for (const auto& [t_send, sims] : result.sim_ms) {
    const auto transport = core::make_transport(ctx.unicast_fit, ctx.broadcast_fits.at(5),
                                                t_send);
    const auto study = core::simulate_class1(5, transport, ctx.scale.sim_replications,
                                             ctx.seed + 7);
    EXPECT_EQ(sims, study.rewards) << "t_send=" << t_send;
  }
}

TEST(FlatDeterminism, SweepTsendIdenticalAt1And4ThreadsAndMatchesNested) {
  const core::ReplicationRunner one{1};
  const core::ReplicationRunner four{4};
  const auto ctx = core::make_context(tiny_scale(), 83);
  const auto meas = core::measure_latency(5, ctx.network, net::TimerModel::ideal(), -1,
                                          ctx.scale.class1_executions, 584);
  const stats::Ecdf measured{meas.latencies_ms};
  const std::vector<double> candidates = {0.005, 0.025, 0.035};

  const auto s1 = core::sweep_tsend(measured, ctx.unicast_fit, ctx.broadcast_fits.at(5),
                                    candidates, 16, 59, one);
  const auto s4 = core::sweep_tsend(measured, ctx.unicast_fit, ctx.broadcast_fits.at(5),
                                    candidates, 16, 59, four);
  EXPECT_EQ(s1.best_t_send_ms, s4.best_t_send_ms);
  ASSERT_EQ(s1.candidates.size(), s4.candidates.size());
  for (std::size_t i = 0; i < s1.candidates.size(); ++i) {
    EXPECT_EQ(s1.candidates[i].ks_distance, s4.candidates[i].ks_distance);
    EXPECT_EQ(s1.candidates[i].sim_latencies_ms, s4.candidates[i].sim_latencies_ms);
    // The flattened sweep reproduces the nested per-candidate study.
    const auto transport = core::make_transport(ctx.unicast_fit, ctx.broadcast_fits.at(5),
                                                candidates[i]);
    const auto study = core::simulate_class1(5, transport, 16, 59);
    EXPECT_EQ(s1.candidates[i].sim_latencies_ms, study.rewards);
    EXPECT_EQ(s1.candidates[i].sim_mean_ms, study.summary.mean());
  }
}

TEST(FlatDeterminism, Fig9bIdenticalAt1And4Threads) {
  const core::ReplicationRunner one{1};
  const core::ReplicationRunner four{4};
  auto ctx = core::make_context(tiny_scale(), 84);

  ctx.runner = &one;
  const auto pts1 = core::run_class3_measurements(ctx, ctx.scale.sim_ns, ctx.scale.timeouts_ms);
  const auto rows1 = core::run_fig9b(ctx, pts1);
  ctx.runner = &four;
  const auto pts4 = core::run_class3_measurements(ctx, ctx.scale.sim_ns, ctx.scale.timeouts_ms);
  const auto rows4 = core::run_fig9b(ctx, pts4);

  ASSERT_EQ(rows1.size(), rows4.size());
  ASSERT_GT(rows1.size(), 0u);
  for (std::size_t i = 0; i < rows1.size(); ++i) {
    EXPECT_EQ(rows1[i].n, rows4[i].n);
    EXPECT_EQ(rows1[i].timeout_ms, rows4[i].timeout_ms);
    EXPECT_EQ(rows1[i].meas_ms, rows4[i].meas_ms);  // bit-identical
    EXPECT_EQ(rows1[i].sim_det_ms, rows4[i].sim_det_ms);
    EXPECT_EQ(rows1[i].sim_exp_ms, rows4[i].sim_exp_ms);
    EXPECT_GT(rows1[i].sim_det_ms, 0.0);
  }
}

TEST(FlatDeterminism, FlattenedFig7aMatchesNestedMeasureLatency) {
  // The flattened driver must reproduce the per-n nested campaign exactly:
  // same seeds, same fold, same bits.
  auto ctx = core::make_context(tiny_scale(), 80);
  ctx.timers = net::TimerModel::ideal();
  const auto rows = core::run_fig7a(ctx, ctx.scale.ns);
  ASSERT_EQ(rows.size(), 2u);
  for (std::size_t g = 0; g < rows.size(); ++g) {
    const std::size_t n = ctx.scale.ns[g];
    const auto nested = core::measure_latency(n, ctx.network, ctx.timers, -1,
                                              ctx.scale.class1_executions, ctx.seed + 100 + n);
    EXPECT_EQ(rows[g].latencies_ms, nested.latencies_ms);
    EXPECT_EQ(rows[g].undecided, nested.undecided);
  }
}

}  // namespace
