// Tests for the flattened campaign fan-out: ShardSpace enumeration,
// ReplicationRunner::run_flat, in-order pooling of probe shards, and the
// determinism contract of the flattened paper campaigns (bit-identical
// registered tables at any thread count, equal to the nested campaigns
// they replaced).
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <numeric>
#include <string>
#include <variant>
#include <vector>

#include "core/calibration.hpp"
#include "core/campaign.hpp"
#include "core/experiments.hpp"
#include "core/measurement.hpp"
#include "core/replication.hpp"
#include "core/simulation.hpp"
#include "des/random.hpp"
#include "net/params.hpp"
#include "stats/ecdf.hpp"

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

// --- Probe pooling ----------------------------------------------------------

TEST(ProbePooling, ConcatenatesShardsInShardOrder) {
  std::vector<std::vector<double>> shards;
  std::vector<double> expected;
  for (int s = 0; s < 11; ++s) {
    std::vector<double> xs(s % 3 == 2 ? 0 : s + 1);  // some shards empty
    std::iota(xs.begin(), xs.end(), 100.0 * s);
    expected.insert(expected.end(), xs.begin(), xs.end());
    shards.push_back(xs);
  }
  EXPECT_EQ(core::pool_probe_shards(shards), expected);
  EXPECT_TRUE(core::pool_probe_shards({}).empty());
}

// --- Flattened paper campaigns: determinism across thread counts ------------

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

core::ResultTable run_paper(const std::string& name, std::uint64_t seed,
                            const core::ReplicationRunner& runner = core::default_runner()) {
  core::RunOptions options;
  options.scale = tiny_scale();
  options.seed = seed;
  options.runner = &runner;
  return core::CampaignRegistry::global().run(name, options);
}

const std::vector<double>& sample_at(const core::ResultTable& table, std::size_t row,
                                     const std::string& column) {
  return std::get<core::SampleRef>(table.at(row, column)).values();
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

TEST(FlatDeterminism, PaperArtifactsIdenticalAt1And4Threads) {
  // Every paper artifact's registered table -- calibration pass, mixed
  // measurement + SAN spaces, class-3 sweeps -- folds in index order, so
  // its CSV is bit-identical at any thread count.
  const core::ReplicationRunner one{1};
  const core::ReplicationRunner four{4};
  std::map<std::string, core::ResultTable> tables;
  for (const char* name : {"fig6", "fig7a", "fig7b", "table1", "fig8", "fig9a", "fig9b"}) {
    const auto t1 = run_paper(name, 78, one);
    EXPECT_EQ(t1.to_csv(), run_paper(name, 78, four).to_csv()) << name;
    EXPECT_GT(t1.row_count(), 0u) << name;
    tables.emplace(name, t1);
  }
  // The calibrated n carry simulation cells: n = 3 no crash, n = 5
  // coordinator crash.
  const auto& table1 = tables.at("table1");
  EXPECT_TRUE(std::holds_alternative<double>(table1.at(0, "sim_ms")));
  EXPECT_TRUE(std::holds_alternative<double>(table1.at(4, "sim_ms")));
  const auto& fig9b = tables.at("fig9b");
  for (std::size_t r = 0; r < fig9b.row_count(); ++r) {
    EXPECT_GT(std::get<double>(fig9b.at(r, "sim_det_ms")), 0.0) << r;
  }
}

TEST(FlatDeterminism, FlattenedFig7bMatchesNestedCampaigns) {
  // The single-space fig7b campaign must reproduce what the nested
  // measure_latency + per-candidate simulate_class1 calls produced before
  // the flattening: same seeds, same folds, same bits.
  const auto table = run_paper("fig7b", 82);
  const auto ctx = core::make_context(tiny_scale(), 82);  // the run's calibration
  const auto meas = core::measure_latency(5, ctx.network, ctx.timers, -1,
                                          ctx.scale.class1_executions, ctx.seed + 105);
  ASSERT_EQ(std::get<std::string>(table.at(0, "kind")), "measured");
  EXPECT_EQ(sample_at(table, 0, "latencies_ms"), meas.latencies_ms);

  ASSERT_EQ(table.row_count(), 1 + core::tsend_candidates().size());
  for (std::size_t r = 1; r < table.row_count(); ++r) {
    const double t_send = std::get<double>(table.at(r, "t_send_ms"));
    const auto transport = core::make_transport(ctx.unicast_fit, ctx.broadcast_fits.at(5),
                                                t_send);
    const auto study = core::simulate_class1(5, transport, ctx.scale.sim_replications,
                                             ctx.seed + 7);
    EXPECT_EQ(sample_at(table, r, "latencies_ms"), study.rewards) << "t_send=" << t_send;
  }
}

TEST(FlatDeterminism, FlattenedFig7aMatchesNestedMeasureLatency) {
  // The flattened fig7a campaign must reproduce the per-n nested campaign
  // exactly: same seeds, same fold, same bits.
  const auto table = run_paper("fig7a", 80);
  const auto scale = tiny_scale();
  ASSERT_EQ(table.row_count(), 2u);
  for (std::size_t g = 0; g < table.row_count(); ++g) {
    const std::size_t n = scale.ns[g];
    const auto nested = core::measure_latency(n, net::NetworkParams::defaults(),
                                              net::TimerModel::defaults(), -1,
                                              scale.class1_executions, 80 + 100 + n);
    EXPECT_EQ(sample_at(table, g, "latencies_ms"), nested.latencies_ms);
    EXPECT_EQ(std::get<std::int64_t>(table.at(g, "undecided")),
              static_cast<std::int64_t>(nested.undecided));
  }
}

}  // namespace
