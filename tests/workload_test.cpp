// Tests for the steady-state workload engine (core/workload.hpp): one-shot
// vs legacy-harness bit-identicality, warm-up truncation / batch-means
// folds, arrival processes, decided-instance garbage collection, and
// 1-vs-4-thread determinism of the three registered load scenarios.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "consensus/ct_consensus.hpp"
#include "consensus/sequencer.hpp"
#include "core/campaign.hpp"
#include "core/measurement.hpp"
#include "core/workload.hpp"
#include "fd/heartbeat_fd.hpp"
#include "runtime/cluster.hpp"

namespace {

using namespace sanperf;

// --------------------------------------------------------------------------
// One-shot mode == legacy harness
// --------------------------------------------------------------------------

TEST(OneShotTest, MatchesLegacyHarnessBitForBit) {
  const auto params = net::NetworkParams::defaults();
  const auto timers = net::TimerModel::ideal();
  for (const int crashed : {-1, 0, 1}) {
    for (std::uint64_t seed : {7ull, 91ull, 20020612ull}) {
      core::WorkloadConfig cfg;
      cfg.n = 5;
      cfg.network = params;
      cfg.timers = timers;
      cfg.initially_crashed = crashed;
      const auto engine = core::run_one_shot(cfg, 3, seed);
      const auto legacy = core::run_latency_execution(5, params, timers, crashed, 3, seed);
      ASSERT_EQ(engine.latency_ms.has_value(), legacy.latency_ms.has_value());
      if (engine.latency_ms) {
        EXPECT_EQ(*engine.latency_ms, *legacy.latency_ms);  // bit-identical
        EXPECT_EQ(engine.rounds, legacy.rounds);
      }
    }
  }
}

// --------------------------------------------------------------------------
// Statistics fold: warm-up truncation and batch means
// --------------------------------------------------------------------------

consensus::ExecutionResult record(std::int32_t cid, double start_ms, double latency_ms) {
  consensus::ExecutionResult rec;
  rec.cid = cid;
  rec.start_ms = start_ms;
  if (latency_ms >= 0) rec.latency_ms = latency_ms;
  return rec;
}

TEST(WorkloadStatsTest, WarmupInstancesAreTruncated) {
  // 2 warm-up instances with huge latencies must not touch the statistics.
  std::vector<consensus::ExecutionResult> recs;
  recs.push_back(record(0, 0.0, 500.0));
  recs.push_back(record(1, 1.0, 900.0));
  for (int k = 0; k < 8; ++k) {
    recs.push_back(record(2 + k, 2.0 + k, 1.0));
  }
  const auto stats = core::fold_workload_stats(recs, 2, 4);
  EXPECT_EQ(stats.decided, 8u);
  EXPECT_EQ(stats.undecided, 0u);
  EXPECT_DOUBLE_EQ(stats.mean_latency_ms, 1.0);
  EXPECT_DOUBLE_EQ(stats.latency_ci.mean, 1.0);
  // Measured window: starts at the first measured instance (t = 2), ends
  // at the last decision (t = 9 + 1).
  EXPECT_DOUBLE_EQ(stats.duration_ms, 8.0);
  EXPECT_DOUBLE_EQ(stats.delivered_per_s, 1000.0);
  // Realised arrival rate: 7 gaps over 7 ms.
  EXPECT_DOUBLE_EQ(stats.offered_per_s, 1000.0);
}

TEST(WorkloadStatsTest, BatchMeansMatchManualBatching) {
  // 8 measured instances, 4 batches of 2: batch means 1.5, 3.5, 5.5, 7.5.
  std::vector<consensus::ExecutionResult> recs;
  for (int k = 0; k < 8; ++k) {
    recs.push_back(record(k, static_cast<double>(k), 1.0 + k));
  }
  const auto stats = core::fold_workload_stats(recs, 0, 4);
  EXPECT_DOUBLE_EQ(stats.latency_ci.mean, 4.5);
  EXPECT_EQ(stats.latency_ci.count, 4u);  // four completed batches
  EXPECT_GT(stats.latency_ci.half_width, 0.0);
}

TEST(WorkloadStatsTest, UndecidedAreCountedNotAveraged) {
  std::vector<consensus::ExecutionResult> recs;
  recs.push_back(record(0, 0.0, 2.0));
  recs.push_back(record(1, 1.0, -1));  // undecided
  recs.push_back(record(2, 2.0, 4.0));
  const auto stats = core::fold_workload_stats(recs, 0, 1);
  EXPECT_EQ(stats.decided, 2u);
  EXPECT_EQ(stats.undecided, 1u);
  EXPECT_DOUBLE_EQ(stats.mean_latency_ms, 3.0);
}

TEST(WorkloadStatsTest, FallsBackToSummaryCiBelowOneBatch) {
  // Batch size 5, only 3 decided: no completed batch, the CI must fall
  // back to the plain summary instead of reporting mean 0.
  std::vector<consensus::ExecutionResult> recs;
  for (int k = 0; k < 10; ++k) {
    recs.push_back(record(k, static_cast<double>(k), k < 3 ? 2.0 : -1));
  }
  const auto stats = core::fold_workload_stats(recs, 0, 2);
  EXPECT_DOUBLE_EQ(stats.latency_ci.mean, 2.0);
  EXPECT_EQ(stats.undecided, 7u);
}

TEST(PhasedLatencyTest, SplitByWindowBucketsByOverlap) {
  // A class-3 run against the window [10, 20): "before" decided before it
  // opened, "during" was in flight when it opened or undecided inside it,
  // "after" started past its end.
  const std::vector<consensus::ExecutionResult> execs{
      record(0, 1.0, 1.0), record(1, 8.0, 4.0), record(2, 15.0, -1), record(3, 30.0, 1.0)};
  const auto phased = core::split_by_window(execs, 10, 20);
  EXPECT_EQ(phased.before.latencies_ms, std::vector<double>{1.0});
  EXPECT_EQ(phased.during.latencies_ms, std::vector<double>{4.0});
  EXPECT_EQ(phased.during.undecided, 1u);
  EXPECT_EQ(phased.after.latencies_ms, std::vector<double>{1.0});
  EXPECT_EQ(phased.undecided(), 1u);

  // A stream against [50, 80): its warm-up instance stays out of every
  // phase.
  core::WorkloadResult result;
  result.warmup = 1;
  result.instances.push_back(record(0, 0.0, 1.0));    // warm-up: excluded
  result.instances.push_back(record(1, 10.0, 1.0));   // decided before window
  result.instances.push_back(record(2, 48.0, 10.0));  // in flight when it opened
  result.instances.push_back(record(3, 60.0, 2.0));   // started inside
  result.instances.push_back(record(4, 90.0, 1.0));   // after the window end
  auto phases = core::split_by_window(result.measured(), 50.0, 80.0);
  EXPECT_EQ(phases.before.latencies_ms, std::vector<double>{1.0});
  EXPECT_EQ(phases.during.latencies_ms, (std::vector<double>{10.0, 2.0}));
  EXPECT_EQ(phases.after.latencies_ms, std::vector<double>{1.0});
  EXPECT_EQ(phases.undecided(), 0u);

  // Runs merge phase by phase, in run order.
  phases.merge(phased);
  EXPECT_EQ(phases.during.latencies_ms, (std::vector<double>{10.0, 2.0, 4.0}));
  EXPECT_EQ(phases.undecided(), 1u);

  // A window that never opens puts everything in "before".
  const double never = std::numeric_limits<double>::infinity();
  const auto none = core::split_by_window(execs, never, never);
  EXPECT_EQ(none.before.latencies_ms.size(), 3u);
  EXPECT_EQ(none.before.undecided, 1u);
  EXPECT_TRUE(none.during.latencies_ms.empty());
}

// --------------------------------------------------------------------------
// Stream behaviour
// --------------------------------------------------------------------------

core::WorkloadConfig base_config(std::size_t n, std::uint64_t seed) {
  core::WorkloadConfig cfg;
  cfg.n = n;
  cfg.network = net::NetworkParams::defaults();
  cfg.timers = net::TimerModel::ideal();
  cfg.seed = seed;
  return cfg;
}

/// run_workload's rejection message for `spec` on `cfg`, or "accepted".
std::string rejection(const core::WorkloadSpec& spec,
                      const core::WorkloadConfig& cfg = base_config(3, 1)) {
  try {
    (void)core::run_workload(cfg, spec);
  } catch (const std::invalid_argument& e) {
    return std::string{e.what()};
  }
  return "accepted";
}

TEST(WorkloadEngineTest, RejectsNegativeOrNonFiniteTimings) {
  for (double core::WorkloadSpec::*field :
       {&core::WorkloadSpec::start_ms, &core::WorkloadSpec::separation_ms,
        &core::WorkloadSpec::think_ms, &core::WorkloadSpec::batch_linger_ms}) {
    for (const double bad : {-1.0, std::numeric_limits<double>::infinity(), std::nan("")}) {
      core::WorkloadSpec spec;
      spec.measured = 5;
      spec.*field = bad;
      EXPECT_NE(rejection(spec).find("must be finite and >= 0"), std::string::npos) << bad;
    }
  }
  core::WorkloadSpec spec;
  spec.measured = 5;
  spec.think_ms = -5;
  EXPECT_EQ(rejection(spec), "run_workload: think_ms must be finite and >= 0");
  spec.think_ms = 0;
  spec.batch_linger_ms = -1;
  EXPECT_EQ(rejection(spec), "run_workload: batch_linger_ms must be finite and >= 0");
  spec.batch_linger_ms = 0;
  for (const double bad : {0.0, -3.0}) {
    spec.instance_timeout_ms = bad;
    EXPECT_EQ(rejection(spec), "run_workload: instance_timeout_ms must be finite and > 0");
  }
  // Zero timings stay valid: a simultaneous burst, no think, no linger.
  spec.instance_timeout_ms = 5000;
  spec.arrivals = core::ArrivalProcess::kClosedLoop;
  EXPECT_EQ(rejection(spec), "accepted");
  // A heartbeat timeout of zero is the detector's to reject.
  auto hb = base_config(3, 1);
  hb.heartbeat_timeout_ms = 0.0;
  EXPECT_THROW((void)core::run_workload(hb, spec), std::invalid_argument);
}

TEST(WorkloadEngineTest, RejectsNegativeOrNonFiniteDurableAppend) {
  // A negative append latency used to run as a free log.
  core::WorkloadSpec spec;
  spec.measured = 5;
  auto cfg = base_config(3, 1);
  for (const bool durable : {true, false}) {
    cfg.durable_log = durable;
    for (const double bad : {-1.0, std::numeric_limits<double>::infinity(), std::nan("")}) {
      cfg.durable_append_ms = bad;
      EXPECT_EQ(rejection(spec, cfg),
                "run_workload: durable_append_ms must be finite and >= 0")
          << bad;
    }
  }
  cfg.durable_append_ms = 0;  // durable but free
  EXPECT_EQ(rejection(spec, cfg), "accepted");
}

TEST(WorkloadEngineTest, RejectsZeroBatchSizeOrClients) {
  // Both used to run as 1 under a row labelled 0.
  core::WorkloadSpec spec;
  spec.measured = 5;
  spec.batch_size = 0;
  EXPECT_EQ(rejection(spec), "run_workload: batch_size must be >= 1");
  spec.batch_size = 1;
  spec.arrivals = core::ArrivalProcess::kClosedLoop;
  spec.clients = 0;
  EXPECT_EQ(rejection(spec), "run_workload: closed loop needs clients >= 1");
  // Zero clients only matter in a closed loop; an unlimited (0) pipeline
  // window stays valid.
  spec.arrivals = core::ArrivalProcess::kBurst;
  spec.pipeline_window = 0;
  EXPECT_EQ(rejection(spec), "accepted");
}

TEST(WorkloadEngineTest, StreamsAreDeterministic) {
  core::WorkloadSpec spec;
  spec.arrivals = core::ArrivalProcess::kOpenLoop;
  spec.offered_per_s = 400;
  spec.warmup = 5;
  spec.measured = 60;
  const auto a = core::run_workload(base_config(3, 42), spec);
  const auto b = core::run_workload(base_config(3, 42), spec);
  ASSERT_EQ(a.instances.size(), b.instances.size());
  for (std::size_t k = 0; k < a.instances.size(); ++k) {
    EXPECT_EQ(a.instances[k].start_ms, b.instances[k].start_ms);
    ASSERT_EQ(a.instances[k].decided(), b.instances[k].decided());
    if (a.instances[k].decided()) {
      EXPECT_EQ(*a.instances[k].latency_ms, *b.instances[k].latency_ms);
    }
  }
}

TEST(WorkloadEngineTest, OpenLoopRealisesTheOfferedLoad) {
  core::WorkloadSpec spec;
  spec.arrivals = core::ArrivalProcess::kOpenLoop;
  spec.offered_per_s = 300;
  spec.warmup = 10;
  spec.measured = 150;
  const auto res = core::run_workload(base_config(3, 7), spec);
  EXPECT_EQ(res.stats.decided + res.stats.undecided, 150u);
  // The realised Poisson rate fluctuates; 25% slack is generous and stable
  // for the fixed seed.
  EXPECT_NEAR(res.stats.offered_per_s, 300.0, 75.0);
  EXPECT_GT(res.stats.delivered_per_s, 0.0);
}

TEST(WorkloadEngineTest, BurstSeparationKeepsInstancesIsolated) {
  // A 10 ms separation reproduces sequencer-style isolation: latency must
  // sit at the isolated baseline, far from the back-to-back regime.
  core::WorkloadSpec spec;
  spec.arrivals = core::ArrivalProcess::kBurst;
  spec.separation_ms = 10.0;
  spec.warmup = 0;
  spec.measured = 50;
  const auto stream = core::run_workload(base_config(3, 11), spec);
  const auto isolated = core::measure_latency(3, net::NetworkParams::defaults(),
                                              net::TimerModel::ideal(), -1, 50, 11);
  EXPECT_EQ(stream.stats.undecided, 0u);
  EXPECT_NEAR(stream.stats.mean_latency_ms, isolated.summary().mean(), 0.2);
}

TEST(WorkloadEngineTest, ClosedLoopLaunchesExactlyMeasuredInstances) {
  core::WorkloadSpec spec;
  spec.arrivals = core::ArrivalProcess::kClosedLoop;
  spec.clients = 4;
  spec.warmup = 8;
  spec.measured = 100;
  const auto res = core::run_workload(base_config(3, 5), spec);
  EXPECT_EQ(res.instances.size(), 108u);
  EXPECT_EQ(res.stats.decided, 100u);
  EXPECT_EQ(res.stats.undecided, 0u);
  // Instances launch in cid order.
  for (std::size_t k = 1; k < res.instances.size(); ++k) {
    EXPECT_GE(res.instances[k].start_ms, res.instances[k - 1].start_ms);
  }
}

TEST(WorkloadEngineTest, MoreClientsDeliverMoreThanOneUpToSaturation) {
  core::WorkloadSpec one;
  one.arrivals = core::ArrivalProcess::kClosedLoop;
  one.clients = 1;
  one.warmup = 5;
  one.measured = 80;
  auto four = one;
  four.clients = 4;
  const auto r1 = core::run_workload(base_config(5, 9), one);
  const auto r4 = core::run_workload(base_config(5, 9), four);
  // Four clients raise per-instance latency (contention)...
  EXPECT_GT(r4.stats.mean_latency_ms, r1.stats.mean_latency_ms);
  // ...while delivered throughput stays within the [1x, 4x] envelope.
  EXPECT_LT(r4.stats.delivered_per_s, 4.0 * r1.stats.delivered_per_s);
}

// --------------------------------------------------------------------------
// Batching & pipelining
// --------------------------------------------------------------------------

void expect_same_stream(const core::WorkloadResult& a, const core::WorkloadResult& b) {
  ASSERT_EQ(a.instances.size(), b.instances.size());
  for (std::size_t k = 0; k < a.instances.size(); ++k) {
    EXPECT_EQ(a.instances[k].start_ms, b.instances[k].start_ms);
    ASSERT_EQ(a.instances[k].decided(), b.instances[k].decided());
    if (a.instances[k].decided()) {
      EXPECT_EQ(*a.instances[k].latency_ms, *b.instances[k].latency_ms);  // bit-identical
      EXPECT_EQ(a.instances[k].rounds, b.instances[k].rounds);
    }
  }
}

TEST(BatchedWorkloadTest, UnbatchedSpecIgnoresTheLingerKnob) {
  // batch_size = 1 closes synchronously inside submit; the linger deadline
  // must never arm, so its value cannot perturb the stream.
  core::WorkloadSpec spec;
  spec.arrivals = core::ArrivalProcess::kOpenLoop;
  spec.offered_per_s = 400;
  spec.warmup = 5;
  spec.measured = 80;
  auto lingering = spec;
  lingering.batch_linger_ms = 50.0;
  const auto plain = core::run_workload(base_config(3, 33), spec);
  const auto with_linger = core::run_workload(base_config(3, 33), lingering);
  expect_same_stream(plain, with_linger);
}

TEST(BatchedWorkloadTest, UnlimitedWindowEqualsAVeryLargeOne) {
  core::WorkloadSpec spec;
  spec.arrivals = core::ArrivalProcess::kOpenLoop;
  spec.offered_per_s = 600;
  spec.warmup = 5;
  spec.measured = 80;
  auto huge = spec;
  huge.pipeline_window = 1u << 20;
  const auto unlimited = core::run_workload(base_config(3, 34), spec);
  const auto windowed = core::run_workload(base_config(3, 34), huge);
  expect_same_stream(unlimited, windowed);
}

TEST(BatchedWorkloadTest, UnbatchedValueViewMirrorsTheInstanceView) {
  // With one value per instance and no window, the per-value records are
  // the per-instance records: zero queueing, equal latencies, equal folds.
  core::WorkloadSpec spec;
  spec.arrivals = core::ArrivalProcess::kOpenLoop;
  spec.offered_per_s = 300;
  spec.warmup = 10;
  spec.measured = 80;
  const auto res = core::run_workload(base_config(3, 35), spec);
  ASSERT_EQ(res.values.size(), res.instances.size());
  EXPECT_EQ(res.warmup_values, res.warmup);
  for (std::size_t k = 0; k < res.values.size(); ++k) {
    const auto& val = res.values[k];
    const auto& inst = res.instances[k];
    EXPECT_EQ(val.cid, inst.cid);
    EXPECT_DOUBLE_EQ(val.queue_ms, 0.0);
    EXPECT_DOUBLE_EQ(val.arrival_ms, inst.start_ms);
    ASSERT_EQ(val.decided(), inst.decided());
    if (val.decided()) EXPECT_EQ(*val.consensus_ms, *inst.latency_ms);
  }
  EXPECT_EQ(res.value_stats.decided, res.stats.decided);
  EXPECT_DOUBLE_EQ(res.value_stats.mean_latency_ms, res.stats.mean_latency_ms);
  EXPECT_DOUBLE_EQ(res.value_stats.p95_latency_ms, res.stats.p95_latency_ms);
  EXPECT_DOUBLE_EQ(res.mean_batch_size, 1.0);
}

TEST(BatchedWorkloadTest, PerValueLatencyDecomposesIntoQueueAndConsensus) {
  core::WorkloadSpec spec;
  spec.arrivals = core::ArrivalProcess::kOpenLoop;
  spec.offered_per_s = 1500;
  spec.warmup = 16;
  spec.measured = 160;
  spec.batch_size = 4;
  spec.batch_linger_ms = 8.0;
  const auto res = core::run_workload(base_config(3, 36), spec);
  ASSERT_EQ(res.values.size(), 176u);
  std::map<std::int32_t, std::vector<const core::ValueRecord*>> by_instance;
  for (const auto& val : res.values) {
    ASSERT_GE(val.cid, 0);  // every value was carried by some instance
    ASSERT_GE(val.queue_ms, 0.0);
    by_instance[val.cid].push_back(&val);
    if (!val.decided()) continue;
    // queue + consensus = end-to-end, exactly.
    EXPECT_DOUBLE_EQ(val.total_ms(), val.queue_ms + *val.consensus_ms);
    // The carrying instance launched at arrival + queue and decided after
    // its consensus latency: the value view must agree with the instance.
    const auto& inst = res.instances.at(static_cast<std::size_t>(val.cid));
    EXPECT_DOUBLE_EQ(val.arrival_ms + val.queue_ms, inst.start_ms);
    EXPECT_EQ(*val.consensus_ms, *inst.latency_ms);
  }
  for (const auto& [cid, members] : by_instance) {
    ASSERT_LE(members.size(), 4u);
    for (std::size_t m = 0; m < members.size(); ++m) {
      const auto* val = members[m];
      // Batch-mates share the decision, so they share the consensus time...
      EXPECT_EQ(val->consensus_ms.has_value(), members.front()->consensus_ms.has_value());
      if (val->consensus_ms) EXPECT_EQ(*val->consensus_ms, *members.front()->consensus_ms);
      // ...and vids are assigned at submission, so a batch is consecutive.
      EXPECT_EQ(val->vid, members.front()->vid + static_cast<std::int64_t>(m));
    }
  }
  EXPECT_GT(res.mean_batch_size, 1.5);
  EXPECT_EQ(res.batches_closed_on_size + res.batches_closed_on_linger, res.instances.size());
}

TEST(BatchedWorkloadTest, BatchingLiftsDeliveredValueThroughputPastTheKnee) {
  // n = 5 saturates near ~376 unbatched instances/s (PR 5). Offer 2000
  // values/s: batches of 16 need only ~125 inst/s, so the stream delivers
  // the offered rate at a bounded p95 where batch_size = 1 cannot.
  core::WorkloadSpec spec;
  spec.arrivals = core::ArrivalProcess::kOpenLoop;
  spec.offered_per_s = 2000;
  spec.warmup = 50;
  spec.measured = 400;
  spec.batch_size = 16;
  spec.batch_linger_ms = 10.0;
  const auto res = core::run_workload(base_config(5, 37), spec);
  EXPECT_EQ(res.value_stats.undecided, 0u);
  EXPECT_GT(res.value_stats.delivered_per_s, 1500.0);  // ~4x the unbatched knee
  EXPECT_LT(res.value_stats.p95_latency_ms, 50.0);
  EXPECT_GT(res.mean_batch_size, 4.0);
}

TEST(BatchedWorkloadTest, ExponentialThinkTimeIsDeterministicAndDistinct) {
  core::WorkloadSpec spec;
  spec.arrivals = core::ArrivalProcess::kClosedLoop;
  spec.clients = 2;
  spec.think_ms = 5.0;
  spec.warmup = 5;
  spec.measured = 60;
  auto exp_spec = spec;
  exp_spec.think_dist = core::ThinkTimeDist::kExp;
  const auto fixed = core::run_workload(base_config(3, 38), spec);
  const auto exp_a = core::run_workload(base_config(3, 38), exp_spec);
  const auto exp_b = core::run_workload(base_config(3, 38), exp_spec);
  // Same seed, same distribution: reproducible.
  expect_same_stream(exp_a, exp_b);
  // Exponential gaps genuinely differ from the fixed schedule.
  ASSERT_EQ(fixed.instances.size(), exp_a.instances.size());
  bool any_difference = false;
  for (std::size_t k = 0; k < fixed.instances.size(); ++k) {
    if (fixed.instances[k].start_ms != exp_a.instances[k].start_ms) any_difference = true;
  }
  EXPECT_TRUE(any_difference);
  EXPECT_EQ(exp_a.stats.decided + exp_a.stats.undecided, 60u);
}

TEST(BatchedWorkloadTest, ZeroThinkTimeExpMatchesFixedBitForBit) {
  // think_ms = 0 draws nothing: selecting kExp must not perturb the stream
  // (the scenario default keeps historic behaviour).
  core::WorkloadSpec spec;
  spec.arrivals = core::ArrivalProcess::kClosedLoop;
  spec.clients = 3;
  spec.warmup = 5;
  spec.measured = 60;
  auto exp_spec = spec;
  exp_spec.think_dist = core::ThinkTimeDist::kExp;
  expect_same_stream(core::run_workload(base_config(3, 39), spec),
                     core::run_workload(base_config(3, 39), exp_spec));
}

// --------------------------------------------------------------------------
// Instance garbage collection
// --------------------------------------------------------------------------

TEST(WorkloadEngineTest, GcBoundsMemoryIndependentOfStreamLength) {
  core::WorkloadSpec shorter;
  shorter.arrivals = core::ArrivalProcess::kClosedLoop;
  shorter.clients = 4;
  shorter.warmup = 0;
  shorter.measured = 150;
  auto longer = shorter;
  longer.measured = 1200;

  const auto small = core::run_workload(base_config(3, 21), shorter);
  const auto large = core::run_workload(base_config(3, 21), longer);

  // Retained state is bounded by the in-flight window (clients + the
  // deferred-sweep slack), nowhere near the stream length...
  EXPECT_LE(large.peak_active_instances, 16u);
  // ...and an 8x longer stream does not move the high-water mark.
  EXPECT_LE(large.peak_active_instances, small.peak_active_instances + 4);
  // Every process collected (nearly) every instance it decided.
  EXPECT_GE(large.instances_collected, 3u * 1150u);
}

TEST(ConsensusGcTest, WatermarkSurvivesAMissedDecision) {
  // A host that misses a decision outright (crashed while the cluster
  // decided it) must not pin the watermark forever: past the bounded
  // out-of-order window the gap is written off and memory stays flat.
  consensus::detail::InstanceGc gc;
  gc.enable(true);
  std::map<std::int32_t, int> instances;
  const auto decide = [&](std::int32_t cid) {
    instances[cid] = 1;
    gc.mark(cid);
    gc.sweep(instances);
  };
  decide(0);
  // cid 1 never decides locally but still holds live round state.
  instances[1] = 1;
  for (std::int32_t cid = 2; cid < 2000; ++cid) decide(cid);
  EXPECT_LE(gc.out_of_order_size(), consensus::detail::InstanceGc::kMaxOutOfOrder);
  EXPECT_GT(gc.floor(), 1);  // the gap was written off
  EXPECT_TRUE(gc.collected(1500));
  // The write-off also reaps the stranded never-decided entry: nothing
  // below the watermark keeps state.
  EXPECT_TRUE(instances.empty());
}

TEST(ConsensusGcTest, RestartClearedStateStillAdvancesTheWatermark) {
  // mark() then a warm restart clears the instance map before the sweep:
  // the decision must still be noted or the watermark stalls.
  consensus::detail::InstanceGc gc;
  gc.enable(true);
  std::map<std::int32_t, int> instances;
  instances[0] = 1;
  gc.mark(0);
  instances.clear();  // Layer::on_restart
  gc.sweep(instances);
  EXPECT_EQ(gc.floor(), 1);
  EXPECT_TRUE(gc.collected(0));
}

TEST(ConsensusGcTest, CollectedInstancesStayDecidedAndIgnoreStaleTraffic) {
  runtime::ClusterConfig cfg;
  cfg.n = 3;
  cfg.seed = 17;
  cfg.timers = net::TimerModel::ideal();
  runtime::Cluster cluster{cfg};
  for (runtime::HostId i = 0; i < 3; ++i) {
    auto& proc = cluster.process(i);
    auto& fd_layer = proc.add_layer<fd::StaticFd>();
    auto& cons = proc.add_layer<consensus::CtConsensus>(fd_layer);
    cons.set_gc_decided(true);
  }
  cluster.run_until(des::TimePoint::origin());
  for (runtime::HostId i = 0; i < 3; ++i) {
    cluster.process(i).layer<consensus::CtConsensus>().propose(0, 100 + i);
  }
  cluster.run_until(des::TimePoint::origin() + des::Duration::from_ms(100));
  auto& cons = cluster.process(0).layer<consensus::CtConsensus>();
  // Trigger the deferred sweep with a fresh entry point, then check.
  cluster.process(0).layer<consensus::CtConsensus>().propose(1, 200);
  cluster.run_until(des::TimePoint::origin() + des::Duration::from_ms(200));
  EXPECT_TRUE(cons.has_decided(0));
  EXPECT_GE(cons.instances_collected(), 1u);
  EXPECT_LE(cons.active_instances(), 1u);  // instance 1 may already be swept
  EXPECT_THROW((void)cons.decision(0), std::logic_error);  // state discarded
}

TEST(SequencerGcTest, GcDoesNotChangeSequencedResults) {
  const auto run_once = [](bool gc) {
    runtime::ClusterConfig cfg;
    cfg.n = 3;
    cfg.seed = 77;
    cfg.timers = net::TimerModel::defaults();
    runtime::Cluster cluster{cfg};
    const auto fd_params = fd::HeartbeatFdParams::from_timeout_ms(5.0);
    for (runtime::HostId i = 0; i < 3; ++i) {
      auto& proc = cluster.process(i);
      auto& hb = proc.add_layer<fd::HeartbeatFd>(fd_params);
      proc.add_layer<consensus::CtConsensus>(hb).set_gc_decided(gc);
    }
    consensus::SequencerConfig seq_cfg;
    seq_cfg.executions = 40;
    consensus::ConsensusSequencer seq{cluster, seq_cfg};
    return seq.run();
  };
  const auto plain = run_once(false);
  const auto gc = run_once(true);
  ASSERT_EQ(plain.size(), gc.size());
  for (std::size_t k = 0; k < plain.size(); ++k) {
    ASSERT_EQ(plain[k].decided(), gc[k].decided());
    if (plain[k].decided()) {
      EXPECT_EQ(*plain[k].latency_ms, *gc[k].latency_ms);  // bit-identical
    }
  }
}

// --------------------------------------------------------------------------
// Durable recovery & dynamic membership
// --------------------------------------------------------------------------

// Durable recovery is the shared consensus lifecycle's; every case runs on
// both protocols.
class DurableWorkloadTest : public ::testing::TestWithParam<core::Algorithm> {
 protected:
  static core::WorkloadConfig config(std::size_t n, std::uint64_t seed) {
    auto cfg = base_config(n, seed);
    cfg.algorithm = GetParam();
    return cfg;
  }
};

INSTANTIATE_TEST_SUITE_P(Algorithms, DurableWorkloadTest,
                         ::testing::Values(core::Algorithm::kChandraToueg,
                                           core::Algorithm::kMostefaouiRaynal),
                         [](const ::testing::TestParamInfo<core::Algorithm>& info) {
                           return std::string{info.param == core::Algorithm::kChandraToueg
                                                  ? "Ct"
                                                  : "Mr"};
                         });

TEST_P(DurableWorkloadTest, FreeDurableLogMatchesVolatileBitForBit) {
  // Durable on with zero append latency and no faults: the log records
  // everything but never touches the event queue or an RNG, so the stream
  // is bit-identical to the volatile engine.
  core::WorkloadSpec spec;
  spec.arrivals = core::ArrivalProcess::kOpenLoop;
  spec.offered_per_s = 400;
  spec.warmup = 5;
  spec.measured = 60;
  auto durable_cfg = config(3, 42);
  durable_cfg.durable_log = true;
  const auto volatile_run = core::run_workload(config(3, 42), spec);
  const auto durable_run = core::run_workload(durable_cfg, spec);
  expect_same_stream(volatile_run, durable_run);
  EXPECT_GT(durable_run.durable_appends, 0u);
  EXPECT_EQ(durable_run.instances_replayed, 0u);  // nobody crashed
  EXPECT_EQ(volatile_run.durable_appends, 0u);
}

TEST_P(DurableWorkloadTest, ReplayRejoinsInFlightInstancesAfterACrash) {
  // A burst is in flight when host 0 (the pinned round-1 coordinator under
  // a static detector) crashes. Volatile recovery forgets the in-flight
  // instances, so they stall to the give-up deadline; durable replay
  // re-enters them after the warm restart and strictly more decide.
  core::WorkloadSpec spec;
  spec.arrivals = core::ArrivalProcess::kBurst;
  spec.separation_ms = 0.0;
  spec.warmup = 0;
  spec.measured = 40;
  spec.instance_timeout_ms = 500.0;
  faults::FaultPlan plan;
  plan.add(faults::FaultPlan::crash_recover(0, 12, 30));
  auto cfg = config(3, 42);
  cfg.fault_plan = &plan;
  auto durable_cfg = cfg;
  durable_cfg.durable_log = true;  // append latency 0: same timing, plus replay
  const auto volatile_run = core::run_workload(cfg, spec);
  const auto durable_run = core::run_workload(durable_cfg, spec);
  EXPECT_GT(volatile_run.stats.undecided, 0u);  // the stall is real
  EXPECT_GT(durable_run.instances_replayed, 0u);
  EXPECT_LT(durable_run.stats.undecided, volatile_run.stats.undecided);
  EXPECT_GT(durable_run.stats.decided, volatile_run.stats.decided);
  // Every in-flight instance rejoins, including those whose round-1
  // coordinator traffic died in the crash (MR re-sends the estimate).
  EXPECT_EQ(durable_run.stats.undecided, 0u);
}

TEST_P(DurableWorkloadTest, RestartStormKeepsTheStreamAliveWithReplay) {
  // Four consecutive crash/recover cycles on one host under saturating
  // load with a bounded pipeline window (kept full, so every crash catches
  // in-flight instances): with the durable log, coordinator rotation, a
  // live detector and value resubmission, every submitted value is still
  // delivered exactly once and the restarts genuinely replay.
  faults::FaultPlan plan;
  for (int i = 0; i < 4; ++i) plan.add(faults::FaultPlan::crash_recover(0, 20 + 40 * i, 20));
  core::WorkloadSpec spec;
  spec.arrivals = core::ArrivalProcess::kOpenLoop;
  spec.offered_per_s = 2000;
  spec.warmup = 5;
  spec.measured = 160;
  spec.pipeline_window = 8;
  spec.instance_timeout_ms = 200.0;
  spec.resubmit_undecided = true;
  auto cfg = config(3, 43);
  cfg.fault_plan = &plan;
  cfg.heartbeat_timeout_ms = 10.0;
  cfg.rotate_coordinators = true;
  cfg.durable_log = true;
  const auto res = core::run_workload(cfg, spec);
  EXPECT_GT(res.instances_replayed, 0u);  // the storm caught instances in flight
  EXPECT_EQ(res.value_stats.undecided, 0u);
  EXPECT_EQ(res.value_stats.decided + res.value_stats.undecided, 160u);
  for (const auto& val : res.values) {
    ASSERT_GE(val.cid, 0);  // exactly one deciding instance per value
    EXPECT_TRUE(val.decided());
  }
}

TEST(MembershipWorkloadTest, GrowthDeliversEveryValueAcrossEpochs) {
  // 3 -> 4 -> 5 growth decided in-stream: both change instances decide,
  // epochs advance in order, and no value is lost across the switches.
  faults::FaultPlan plan;
  plan.add(faults::FaultPlan::add_host(3, 60));
  plan.add(faults::FaultPlan::add_host(4, 120));
  core::WorkloadSpec spec;
  spec.arrivals = core::ArrivalProcess::kOpenLoop;
  spec.offered_per_s = 200;
  spec.warmup = 5;
  spec.measured = 60;
  auto cfg = base_config(5, 44);
  cfg.initial_members = {0, 1, 2};
  cfg.fault_plan = &plan;
  const auto res = core::run_workload(cfg, spec);
  ASSERT_EQ(res.membership_changes.size(), 2u);
  EXPECT_TRUE(res.membership_changes[0].added);
  EXPECT_EQ(res.membership_changes[0].host, 3);
  EXPECT_EQ(res.membership_changes[0].epoch, 1u);
  EXPECT_GE(res.membership_changes[0].at_ms, 60.0);
  EXPECT_EQ(res.membership_changes[1].host, 4);
  EXPECT_EQ(res.membership_changes[1].epoch, 2u);
  EXPECT_GT(res.membership_changes[1].at_ms, res.membership_changes[0].at_ms);
  EXPECT_EQ(res.value_stats.undecided, 0u);
  EXPECT_EQ(res.value_stats.decided, 60u);
}

/// A heartbeat-detector stream under a changing view: n = 5 starting on
/// {0, 1, 2}; hosts 3 and 4 join, host 1 crashes and is then removed.
core::WorkloadResult heartbeat_membership_stream() {
  faults::FaultPlan plan;
  plan.add(faults::FaultPlan::add_host(3, 40));
  plan.add(faults::FaultPlan::add_host(4, 80));
  plan.add(faults::FaultPlan::crash(1, 110));
  plan.add(faults::FaultPlan::remove_host(1, 170));
  core::WorkloadSpec spec;
  spec.arrivals = core::ArrivalProcess::kOpenLoop;
  spec.offered_per_s = 100;
  spec.warmup = 2;
  spec.measured = 22;
  auto cfg = base_config(5, 45);
  cfg.initial_members = {0, 1, 2};
  cfg.heartbeat_timeout_ms = 20.0;
  cfg.fault_plan = &plan;
  return core::run_workload(cfg, spec);
}

std::int64_t to_ns(double ms) { return std::llround(ms * 1e6); }

TEST(MembershipWorkloadTest, HeartbeatStreamUnderAChangingViewIsPinned) {
  const auto res = heartbeat_membership_stream();
  struct Instance {
    std::int32_t cid;
    std::int64_t start_ns;
    std::int64_t decide_ns;
    std::int32_t rounds;
  };
  const std::vector<Instance> instances{
      {0, 26826127, 27406216, 1},    {1, 31323225, 32054940, 1},
      {2, 34138401, 34811013, 1},    {3, 40000000, 40370799, 1},
      {4, 80000000, 80688940, 1},    {5, 83990961, 85115899, 1},
      {6, 96269074, 97088282, 1},    {7, 103790944, 105029124, 1},
      {8, 108815434, 109559834, 1},  {9, 113711554, 114835618, 1},
      {10, 114716467, 115778773, 1}, {11, 119351116, 120252860, 1},
      {12, 125540945, 126395227, 1}, {13, 129835245, 130867197, 1},
      {14, 148324360, 149241877, 1}, {15, 157365248, 158567799, 1},
      {16, 164033780, 164682628, 1}, {17, 170000000, 170658631, 1},
      {18, 174241414, 174869581, 1}, {19, 193062983, 193899212, 1},
      {20, 200314104, 201201629, 1}, {21, 203721365, 204439919, 1},
      {22, 210900285, 211836898, 1}, {23, 224024253, 224845015, 1},
      {24, 229084898, 229917292, 1}, {25, 234878216, 236134697, 1},
      {26, 241642200, 242267385, 1}};
  ASSERT_EQ(res.instances.size(), instances.size());
  for (std::size_t k = 0; k < instances.size(); ++k) {
    const auto& got = res.instances[k];
    SCOPED_TRACE("instance " + std::to_string(k));
    EXPECT_EQ(got.cid, instances[k].cid);
    EXPECT_EQ(to_ns(got.start_ms), instances[k].start_ns);
    ASSERT_TRUE(got.decided());
    EXPECT_EQ(to_ns(got.start_ms) + to_ns(*got.latency_ms), instances[k].decide_ns);
    EXPECT_EQ(got.rounds, instances[k].rounds);
  }

  ASSERT_EQ(res.membership_changes.size(), 3u);
  const std::vector<std::tuple<std::int64_t, bool, int, std::uint32_t>> changes{
      {40370799, true, 3, 1}, {80688940, true, 4, 2}, {170658631, false, 1, 3}};
  for (std::size_t k = 0; k < changes.size(); ++k) {
    const auto& c = res.membership_changes[k];
    EXPECT_EQ(std::tuple(to_ns(c.at_ms), c.added, c.host, c.epoch), changes[k]) << k;
  }

  // (monitor, monitored, instant in ns, to_suspect) in pair order.
  const std::vector<std::tuple<runtime::HostId, runtime::HostId, std::int64_t, bool>> expected{
      {0, 1, 129453428, true},  {0, 1, 170658631, false}, {0, 3, 40565129, true},
      {0, 3, 40565129, false},  {0, 4, 81060628, true},   {0, 4, 81060628, false},
      {1, 3, 40719168, true},   {1, 3, 40719168, false},  {1, 4, 81202793, true},
      {1, 4, 81202793, false},  {2, 1, 118203845, true},  {2, 1, 170658631, false},
      {2, 3, 41000574, true},   {2, 3, 41000574, false},  {2, 4, 81213290, true},
      {2, 4, 81213290, false},  {3, 1, 118239220, true},  {3, 1, 170658631, false},
      {3, 4, 81223589, true},   {3, 4, 81223589, false},  {4, 1, 118278534, true},
      {4, 1, 170658631, false}, {4, 3, 82507134, true},   {4, 3, 82507134, false}};
  std::vector<std::tuple<runtime::HostId, runtime::HostId, std::int64_t, bool>> transitions;
  for (const auto& [pair, history] : res.detector_histories) {
    for (const fd::Transition& t : history.transitions()) {
      transitions.emplace_back(pair.first, pair.second, t.at.ns(), t.to_suspect);
    }
  }
  EXPECT_EQ(transitions, expected);
}

TEST(MembershipWorkloadTest, HeartbeatDetectorFollowsTheView) {
  const auto res = heartbeat_membership_stream();
  ASSERT_EQ(res.membership_changes.size(), 3u);
  const double joined3_ms = res.membership_changes[0].at_ms;
  const double joined4_ms = res.membership_changes[1].at_ms;
  const double removed1_ms = res.membership_changes[2].at_ms;
  const auto end = des::TimePoint::origin() + des::Duration::from_ms(res.sim_duration_ms);
  for (const auto& [pair, history] : res.detector_histories) {
    const auto [monitor, peer] = pair;
    SCOPED_TRACE("monitor " + std::to_string(monitor) + " peer " + std::to_string(peer));
    const auto& transitions = history.transitions();
    if (peer == 3 || peer == 4) {
      // A non-member's silence is never suspected, and a joiner starts
      // trusted with a fresh reception clock: its only transitions are the
      // instantaneous blip of its first message after the restart that
      // brought it in.
      const double joined_ms = peer == 3 ? joined3_ms : joined4_ms;
      for (const fd::Transition& t : transitions) EXPECT_GE(t.at.to_ms(), joined_ms);
      EXPECT_EQ(history.suspected_time(end), des::Duration::zero());
    }
    if (peer == 1) {
      // The crashed member is suspected; its removal retires the suspicion
      // with a trust transition at the switch, and it is never suspected
      // again.
      ASSERT_EQ(transitions.size(), 2u);
      EXPECT_TRUE(transitions[0].to_suspect);
      EXPECT_FALSE(transitions[1].to_suspect);
      EXPECT_EQ(transitions[1].at.to_ms(), removed1_ms);
    }
  }
  EXPECT_EQ(res.value_stats.undecided, 0u);
}

// --------------------------------------------------------------------------
// Registered scenarios: thread-count invariance
// --------------------------------------------------------------------------

std::string run_scenario_csv(const std::string& name, std::size_t threads,
                             const std::map<std::string, std::string>& overrides) {
  const auto& registry = core::CampaignRegistry::global();
  core::ReplicationRunner runner{threads};
  core::RunOptions options;
  options.scale = core::Scale::quick();
  options.runner = &runner;
  options.axis_overrides = overrides;
  const auto table = registry.run(name, options);
  std::ostringstream csv;
  table.write_csv(csv);
  return csv.str();
}

TEST(WorkloadScenarioTest, LoadLatencySweepThreadCountInvariant) {
  const std::map<std::string, std::string> overrides{
      {"n", "3"}, {"offered_per_s", "300,900"}, {"instances", "60"}, {"warmup", "10"}};
  EXPECT_EQ(run_scenario_csv("load_latency_sweep", 1, overrides),
            run_scenario_csv("load_latency_sweep", 4, overrides));
}

TEST(WorkloadScenarioTest, LoadLatencySweepBatchingAxesThreadCountInvariant) {
  // The new batching/pipelining axes on load_latency_sweep: sweeping them
  // fans out more points, which must not perturb per-point seeds.
  const std::map<std::string, std::string> overrides{
      {"n", "3"},           {"algorithm", "ct"},       {"offered_per_s", "900"},
      {"batch_size", "1,8"}, {"batch_linger_ms", "5"}, {"pipeline_window", "0,4"},
      {"instances", "60"},  {"warmup", "10"}};
  EXPECT_EQ(run_scenario_csv("load_latency_sweep", 1, overrides),
            run_scenario_csv("load_latency_sweep", 4, overrides));
}

TEST(WorkloadScenarioTest, BatchThroughputSweepThreadCountInvariant) {
  const std::map<std::string, std::string> overrides{
      {"batch_size", "1,16"}, {"offered_values_per_s", "1500"},
      {"instances", "150"},   {"warmup", "20"}};
  EXPECT_EQ(run_scenario_csv("batch_throughput_sweep", 1, overrides),
            run_scenario_csv("batch_throughput_sweep", 4, overrides));
}

TEST(WorkloadScenarioTest, BatchThroughputSweepShowsTheAmortisation) {
  // The tentpole's headline: at an offered value rate past the unbatched
  // instance knee, batching recovers the offered rate.
  const auto& registry = core::CampaignRegistry::global();
  core::RunOptions options;
  options.scale = core::Scale::quick();
  options.axis_overrides = {{"batch_size", "1,16"},
                            {"offered_values_per_s", "1500"},
                            {"instances", "200"},
                            {"warmup", "20"}};
  const auto table = registry.run("batch_throughput_sweep", options);
  ASSERT_EQ(table.row_count(), 2u);
  const double unbatched = std::get<double>(table.cell(0, 7));  // values_per_s
  const double batched = std::get<double>(table.cell(1, 7));
  EXPECT_GT(batched, 2.0 * unbatched);
  EXPECT_GT(batched, 1200.0);
}

TEST(WorkloadScenarioTest, ClosedLoopClientsThreadCountInvariant) {
  const std::map<std::string, std::string> overrides{
      {"n", "3"}, {"clients", "1,4"}, {"instances", "60"}, {"warmup", "10"}};
  EXPECT_EQ(run_scenario_csv("closed_loop_clients", 1, overrides),
            run_scenario_csv("closed_loop_clients", 4, overrides));
}

TEST(WorkloadScenarioTest, CrashUnderLoadThreadCountInvariant) {
  const std::map<std::string, std::string> overrides{
      {"n", "3"}, {"downtime_ms", "20,60"}, {"instances", "80"}, {"warmup", "10"}};
  EXPECT_EQ(run_scenario_csv("crash_under_load", 1, overrides),
            run_scenario_csv("crash_under_load", 4, overrides));
}

TEST(WorkloadScenarioTest, RecoveryUnderLoadThreadCountInvariant) {
  const std::map<std::string, std::string> overrides{
      {"n", "3"}, {"instances", "80"}, {"warmup", "10"}};
  EXPECT_EQ(run_scenario_csv("recovery_under_load", 1, overrides),
            run_scenario_csv("recovery_under_load", 4, overrides));
}

TEST(WorkloadScenarioTest, RollingRestartThreadCountInvariant) {
  const std::map<std::string, std::string> overrides{
      {"n", "3"}, {"instances", "60"}, {"warmup", "10"}};
  EXPECT_EQ(run_scenario_csv("rolling_restart", 1, overrides),
            run_scenario_csv("rolling_restart", 4, overrides));
}

TEST(WorkloadScenarioTest, MembershipGrowthThreadCountInvariant) {
  const std::map<std::string, std::string> overrides{{"instances", "60"}, {"warmup", "10"}};
  EXPECT_EQ(run_scenario_csv("membership_growth", 1, overrides),
            run_scenario_csv("membership_growth", 4, overrides));
}

TEST(WorkloadScenarioTest, RollingRestartDeliversEverythingInBothModes) {
  // The availability-envelope liveness gate: under a full rolling restart,
  // resubmission delivers every submitted value exactly once in both modes
  // (at this load replay rarely engages -- the stream is mostly idle at
  // each crash instant -- so only its absence on volatile rows is checked).
  const auto& registry = core::CampaignRegistry::global();
  core::RunOptions options;
  options.scale = core::Scale::quick();
  options.axis_overrides = {{"n", "3"}, {"instances", "60"}, {"warmup", "10"}};
  const auto table = registry.run("rolling_restart", options);
  ASSERT_EQ(table.row_count(), 2u);  // volatile, durable
  for (std::size_t r = 0; r < table.row_count(); ++r) {
    EXPECT_EQ(std::get<std::int64_t>(table.at(r, "undelivered")), 0) << r;
    if (std::get<std::string>(table.at(r, "mode")) == "volatile") {
      EXPECT_EQ(std::get<std::int64_t>(table.at(r, "replayed")), 0) << r;
    }
  }
}

TEST(WorkloadScenarioTest, RollingRestartPlanFileFoldsLikeTheBuiltPlan) {
  // bench/plans/rolling_restart_quick.json holds the plan the scenario
  // builds itself at these settings (one rolling_restart at 150 ms, 60 ms
  // down, 150 ms stagger). Replayed through --fault-plan it must fold the
  // same before / during / after windows, not count every instance as
  // "before".
  const auto& registry = core::CampaignRegistry::global();
  core::RunOptions options;
  options.scale = core::Scale::quick();
  options.axis_overrides = {{"n", "3"}, {"instances", "60"}, {"warmup", "10"}};
  const auto built = registry.run("rolling_restart", options);
  options.fault_plan = faults::FaultPlan::from_json(
      R"({"events": [{"kind": "rolling_restart", "at_ms": 150, "duration_ms": 60,)"
      R"( "stagger_ms": 150}]})");
  const auto replayed = registry.run("rolling_restart", options);
  EXPECT_EQ(replayed.to_csv(), built.to_csv());
  EXPECT_TRUE(std::holds_alternative<stats::MeanCI>(replayed.at(0, "during_ms")));
}

TEST(WorkloadScenarioTest, RestrictedGridReproducesFullGridSubset) {
  // --set restrictions must reproduce the matching rows of the full grid
  // bit for bit (restriction-stable per-point seeds).
  const std::map<std::string, std::string> full{
      {"n", "3"}, {"offered_per_s", "300,900"}, {"instances", "60"}, {"warmup", "10"}};
  const std::map<std::string, std::string> restricted{
      {"n", "3"}, {"offered_per_s", "900"}, {"instances", "60"}, {"warmup", "10"}};
  const std::string full_csv = run_scenario_csv("load_latency_sweep", 2, full);
  const std::string restricted_csv = run_scenario_csv("load_latency_sweep", 2, restricted);
  // Every restricted row (beyond the two header lines) appears verbatim in
  // the full output.
  std::istringstream lines{restricted_csv};
  std::string line;
  std::size_t row = 0;
  while (std::getline(lines, line)) {
    if (++row <= 2 || line.empty()) continue;
    EXPECT_NE(full_csv.find(line), std::string::npos) << line;
  }
}

TEST(WorkloadScenarioTest, CrashUnderLoadShowsTheTransient) {
  const auto& registry = core::CampaignRegistry::global();
  core::RunOptions options;
  options.scale = core::Scale::quick();
  options.axis_overrides = {{"n", "3"}, {"downtime_ms", "20"}};
  const auto table = registry.run("crash_under_load", options);
  ASSERT_EQ(table.row_count(), 1u);
  const auto& before = std::get<stats::MeanCI>(table.cell(0, 3));
  const auto& during = std::get<stats::MeanCI>(table.cell(0, 4));
  const auto& after = std::get<stats::MeanCI>(table.cell(0, 5));
  // The detection delay dominates the short window; the stream returns to
  // the baseline afterwards.
  EXPECT_GT(during.mean, 2.0 * before.mean);
  EXPECT_NEAR(after.mean, before.mean, 0.5 * before.mean);
}

}  // namespace
