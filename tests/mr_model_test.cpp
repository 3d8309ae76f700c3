// Tests of the Mostefaoui-Raynal SAN model, including cross-validation
// against the MR protocol implementation on the emulator (the same
// model-vs-measurement methodology the paper applies to Chandra-Toueg).
#include <gtest/gtest.h>

#include "core/replication.hpp"
#include "core/workload.hpp"
#include "des/random.hpp"
#include "san/study.hpp"
#include "sanmodels/consensus_model.hpp"
#include "sanmodels/mr_model.hpp"

namespace sanperf::sanmodels {
namespace {

// Study loops fan out over the shared replication pool (SANPERF_THREADS);
// results are bit-identical to TransientStudy::run at any thread count, so
// this only shrinks the suite's wall clock.
san::StudyResult run_study(const san::TransientStudy& study, std::size_t replications,
                           std::uint64_t seed) {
  return core::run_study(core::default_runner(), study, replications, seed);
}

TEST(MrSanTest, Class1DecidesOnce) {
  MrSanConfig cfg;
  cfg.n = 3;
  cfg.transport = TransportParams::nominal(3);
  const auto built = build_mr_san(cfg);
  san::SanSimulator sim{built.model, des::RandomEngine{1}};
  sim.set_stop_predicate(built.stop_predicate());
  const auto res = sim.run(des::Duration::seconds(5));
  EXPECT_EQ(res.reason, san::StopReason::kPredicate);
  // Two communication steps: faster than a CT round but non-trivial.
  EXPECT_GT(sim.now().to_ms(), 0.15);
  EXPECT_LT(sim.now().to_ms(), 2.0);
}

TEST(MrSanTest, LatencyGrowsWithN) {
  double prev = 0;
  for (const std::size_t n : {3u, 5u, 7u}) {
    MrSanConfig cfg;
    cfg.n = n;
    cfg.transport = TransportParams::nominal(n);
    const auto built = build_mr_san(cfg);
    san::TransientStudy study{built.model, built.stop_predicate()};
    const auto result = run_study(study, 200, 7 + n);
    EXPECT_EQ(result.dropped, 0u) << "n=" << n;
    EXPECT_GT(result.summary.mean(), prev);
    prev = result.summary.mean();
  }
}

TEST(MrSanTest, CoordinatorCrashCostsOneRound) {
  MrSanConfig base;
  base.n = 5;
  base.transport = TransportParams::nominal(5);
  const auto ok_model = build_mr_san(base);
  MrSanConfig crash = base;
  crash.initially_crashed = 0;
  const auto crash_model = build_mr_san(crash);

  san::TransientStudy ok_study{ok_model.model, ok_model.stop_predicate()};
  san::TransientStudy crash_study{crash_model.model, crash_model.stop_predicate()};
  const auto ok = run_study(ok_study, 400, 11);
  const auto bad = run_study(crash_study, 400, 11);
  ASSERT_EQ(ok.dropped, 0u);
  ASSERT_EQ(bad.dropped, 0u);
  // One wasted all-to-all bottoms round plus its contention: roughly a
  // factor 2-4 (the emulator's ext_algorithms comparison shows the same
  // expensive MR crash recovery).
  EXPECT_GT(bad.summary.mean(), ok.summary.mean() * 1.3);
  EXPECT_LT(bad.summary.mean(), ok.summary.mean() * 4.0);
}

TEST(MrSanTest, FasterThanCtFailureFreeInTheModelToo) {
  // The two-step vs three-step gap must show inside the SAN framework,
  // mirroring the emulator comparison of ext_algorithms.
  for (const std::size_t n : {3u, 5u}) {
    MrSanConfig mr_cfg;
    mr_cfg.n = n;
    mr_cfg.transport = TransportParams::nominal(n);
    const auto mr_model = build_mr_san(mr_cfg);
    ConsensusSanConfig ct_cfg;
    ct_cfg.n = n;
    ct_cfg.transport = TransportParams::nominal(n);
    const auto ct_model = build_consensus_san(ct_cfg);

    san::TransientStudy mr_study{mr_model.model, mr_model.stop_predicate()};
    san::TransientStudy ct_study{ct_model.model, ct_model.stop_predicate()};
    const auto mr = run_study(mr_study, 400, 13);
    const auto ct = run_study(ct_study, 400, 13);
    EXPECT_LT(mr.summary.mean(), ct.summary.mean()) << "n=" << n;
  }
}

TEST(MrSanTest, Class3BadQosSlowsItDown) {
  MrSanConfig cfg;
  cfg.n = 3;
  cfg.transport = TransportParams::nominal(3);
  const auto good = build_mr_san(cfg);

  fd::QosEstimate qos;
  qos.t_mr_ms = 5.0;
  qos.t_m_ms = 2.0;
  cfg.qos_fd = fd::AbstractFdParams::from_qos(qos, fd::AbstractFdParams::Sojourn::kExponential);
  const auto bad = build_mr_san(cfg);

  san::TransientStudy good_study{good.model, good.stop_predicate()};
  san::TransientStudy bad_study{bad.model, bad.stop_predicate()};
  bad_study.set_time_limit(des::Duration::seconds(10));
  const auto g = run_study(good_study, 300, 17);
  const auto b = run_study(bad_study, 300, 17);
  EXPECT_GT(b.summary.mean(), g.summary.mean() * 1.2);
}

TEST(MrSanTest, ModelTracksEmulatorClass1) {
  // Model-vs-implementation validation for MR, the same exercise the paper
  // runs for CT: nominal transport against the emulator's measurement.
  for (const std::size_t n : {3u, 5u}) {
    MrSanConfig cfg;
    cfg.n = n;
    cfg.transport = TransportParams::nominal(n);
    const auto built = build_mr_san(cfg);
    san::TransientStudy study{built.model, built.stop_predicate()};
    const auto sim = run_study(study, 400, 19);

    core::WorkloadConfig emu;
    emu.n = n;
    emu.timers = net::TimerModel::ideal();
    emu.algorithm = core::Algorithm::kMostefaouiRaynal;
    const des::SeedSplitter seeds{21, "exec"};
    const auto meas = core::fold_latency_outcomes(core::default_runner().map(
        400, [&](std::size_t k) { return core::run_one_shot(emu, k, seeds.stream_seed(k)); }));
    const double ratio = sim.summary.mean() / meas.summary().mean();
    EXPECT_GT(ratio, 0.6) << "n=" << n;
    EXPECT_LT(ratio, 1.6) << "n=" << n;
  }
}

TEST(MrSanTest, RejectsBadConfig) {
  MrSanConfig cfg;
  cfg.n = 1;
  EXPECT_THROW(build_mr_san(cfg), std::invalid_argument);
  cfg.n = 3;
  cfg.initially_crashed = 5;
  EXPECT_THROW(build_mr_san(cfg), std::invalid_argument);
}

TEST(MrSanTest, DeterministicGivenSeed) {
  MrSanConfig cfg;
  cfg.n = 3;
  cfg.transport = TransportParams::nominal(3);
  const auto built = build_mr_san(cfg);
  san::TransientStudy study{built.model, built.stop_predicate()};
  const auto a = run_study(study, 50, 23);
  const auto b = run_study(study, 50, 23);
  EXPECT_EQ(a.rewards, b.rewards);
}

}  // namespace
}  // namespace sanperf::sanmodels
