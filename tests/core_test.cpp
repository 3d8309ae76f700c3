// Tests of the combined-methodology core: measurement campaigns,
// calibration, simulation wrappers and the paper context.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>

#include "core/calibration.hpp"
#include "core/campaign.hpp"
#include "core/config.hpp"
#include "core/experiments.hpp"
#include "core/measurement.hpp"
#include "core/report.hpp"
#include "core/simulation.hpp"
#include "stats/ks.hpp"

namespace sanperf::core {
namespace {

TEST(ScaleTest, PresetsAndEnvParsing) {
  EXPECT_EQ(Scale::quick().name(), "quick");
  EXPECT_EQ(Scale::defaults().name(), "default");
  EXPECT_EQ(Scale::full().name(), "full");
  EXPECT_EQ(Scale::full().class1_executions, 5000u);  // the paper's 5000
  EXPECT_EQ(Scale::full().class3_runs, 20u);
  EXPECT_EQ(Scale::full().class3_executions, 1000u);
}

TEST(ScaleTest, FromNameAcceptsThePresetsOnly) {
  EXPECT_EQ(Scale::from_name("quick").name(), "quick");
  EXPECT_EQ(Scale::from_name("default").name(), "default");
  EXPECT_EQ(Scale::from_name("full").name(), "full");
  try {
    (void)Scale::from_name("qiuck");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "unknown scale 'qiuck' (quick|default|full)");
  }
}

TEST(ScaleTest, FromEnvRejectsAnUnknownScale) {
  const char* prev = std::getenv("SANPERF_SCALE");
  const std::optional<std::string> saved =
      prev != nullptr ? std::optional<std::string>{prev} : std::nullopt;
  ::setenv("SANPERF_SCALE", "bogus", 1);
  try {
    (void)Scale::from_env();
    ADD_FAILURE() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "SANPERF_SCALE: unknown scale 'bogus' (quick|default|full)");
  }
  ::setenv("SANPERF_SCALE", "quick", 1);
  EXPECT_EQ(Scale::from_env().name(), "quick");
  ::unsetenv("SANPERF_SCALE");
  EXPECT_EQ(Scale::from_env().name(), "default");
  if (saved) ::setenv("SANPERF_SCALE", saved->c_str(), 1);
}

TEST(MeasureDelaysTest, UnicastMatchesNetworkGroundTruth) {
  const auto params = net::NetworkParams::defaults();
  const auto delays = measure_unicast_delays(params, 3000, 5);
  ASSERT_EQ(delays.size(), 3000u);
  stats::SummaryStats s;
  for (const double d : delays) s.add(d);
  EXPECT_NEAR(s.mean(), params.expected_unicast_e2e_ms(), 0.005);
  EXPECT_GE(s.min(), 0.099);
  EXPECT_LE(s.max(), 0.351);
}

TEST(MeasureDelaysTest, BroadcastSlowerThanUnicastAndGrowsWithN) {
  const auto params = net::NetworkParams::defaults();
  const auto uni = measure_unicast_delays(params, 1000, 6);
  const auto b3 = measure_broadcast_delays(params, 3, 1000, 7);
  const auto b5 = measure_broadcast_delays(params, 5, 1000, 8);
  const auto mean = [](const std::vector<double>& xs) {
    stats::SummaryStats s;
    for (const double x : xs) s.add(x);
    return s.mean();
  };
  EXPECT_GT(mean(b3), mean(uni));
  EXPECT_GT(mean(b5), mean(b3));
}

TEST(MeasureLatencyTest, Class1AllDecideAndRoundsAreOne) {
  const auto res = measure_latency(3, net::NetworkParams::defaults(),
                                   net::TimerModel::ideal(), -1, 100, 9);
  EXPECT_EQ(res.undecided, 0u);
  ASSERT_EQ(res.latencies_ms.size(), 100u);
  for (const auto r : res.rounds) EXPECT_EQ(r, 1);
  const auto s = res.summary();
  EXPECT_GT(s.mean(), 0.4);
  EXPECT_LT(s.mean(), 3.0);
}

TEST(MeasureLatencyTest, CoordinatorCrashSlowerParticipantCrashClose) {
  const auto params = net::NetworkParams::defaults();
  const auto timers = net::TimerModel::ideal();
  const auto ok = measure_latency(5, params, timers, -1, 150, 10);
  const auto coord = measure_latency(5, params, timers, 0, 150, 10);
  const auto part = measure_latency(5, params, timers, 1, 150, 10);
  EXPECT_GT(coord.summary().mean(), ok.summary().mean() * 1.2);
  EXPECT_LT(part.summary().mean(), ok.summary().mean() * 1.05);
}

TEST(MeasureLatencyTest, N3ParticipantCrashAnomaly) {
  // Section 5.3: with n = 3 the crash of a participant INCREASES measured
  // latency, because the coordinator unicasts to the dead process first.
  const auto params = net::NetworkParams::defaults();
  const auto timers = net::TimerModel::ideal();
  const auto ok = measure_latency(3, params, timers, -1, 400, 11);
  const auto part = measure_latency(3, params, timers, 1, 400, 11);
  EXPECT_GT(part.summary().mean(), ok.summary().mean());
}

TEST(MeasureClass3Test, RunProducesLatenciesAndQos) {
  const auto run = measure_class3_run(3, net::NetworkParams::defaults(),
                                      net::TimerModel::defaults(), /*timeout_ms=*/5.0,
                                      /*executions=*/40, 12);
  EXPECT_GT(run.latency.latencies_ms.size() + run.latency.undecided, 35u);
  EXPECT_GT(run.experiment_ms, 300.0);
  // With T = 5 ms on the stall-prone timer model, mistakes must occur.
  EXPECT_GT(run.qos.pairs_used, 0u);
  EXPECT_GT(run.qos.t_mr_ms, 0.0);
  EXPECT_GT(run.qos.t_m_ms, 0.0);
  EXPECT_LT(run.qos.t_m_ms, run.qos.t_mr_ms);
}

TEST(MeasureClass3Test, GenerousTimeoutGivesQuietDetectorsAndFastLatency) {
  const auto bad = measure_class3(3, net::NetworkParams::defaults(),
                                  net::TimerModel::defaults(), 2.0, 2, 30, 13);
  const auto good = measure_class3(3, net::NetworkParams::defaults(),
                                   net::TimerModel::defaults(), 100.0, 2, 30, 13);
  EXPECT_GT(bad.latency_ms.mean, good.latency_ms.mean);
  if (bad.pooled_qos.pairs_used > 0 && good.pooled_qos.pairs_used > 0) {
    EXPECT_GT(good.pooled_qos.t_mr_ms, bad.pooled_qos.t_mr_ms);
  }
}

TEST(CalibrationTest, ShiftFitSubtractsCpuShare) {
  const stats::BimodalUniform fit{0.8, 0.10, 0.13, 0.145, 0.35};
  const auto shifted = shift_fit(fit, 0.05);
  EXPECT_NEAR(shifted.a1, 0.05, 1e-12);
  EXPECT_NEAR(shifted.b2, 0.30, 1e-12);
  EXPECT_DOUBLE_EQ(shifted.p1, 0.8);
}

TEST(CalibrationTest, MakeTransportUsesTsendSymmetrically) {
  const stats::BimodalUniform uni{0.8, 0.10, 0.13, 0.145, 0.35};
  const stats::BimodalUniform bc{0.8, 0.20, 0.30, 0.35, 0.70};
  const auto t = make_transport(uni, bc, 0.025);
  EXPECT_DOUBLE_EQ(t.send_cpu.mean_ms(), 0.025);
  EXPECT_DOUBLE_EQ(t.recv_cpu.mean_ms(), 0.025);
  EXPECT_NEAR(t.frame_unicast.mean_ms(), uni.mean() - 0.05, 1e-12);
  EXPECT_NEAR(t.frame_broadcast.mean_ms(), bc.mean() - 0.05, 1e-12);
}

TEST(CalibrationTest, CalibrationRecoversGroundTruthE2e) {
  // The calibrated SAN unicast chain must reproduce the emulator's
  // end-to-end delay distribution: fit e2e, subtract 2 t_send, rebuild.
  const auto params = net::NetworkParams::defaults();
  const auto delays = measure_unicast_delays(params, 4000, 14);
  const auto fit = stats::fit_bimodal_uniform(delays);
  // Ground truth e2e is wire + pipeline + 0.05.
  EXPECT_NEAR(fit.mean(), params.expected_unicast_e2e_ms(), 0.01);
  const auto transport = make_transport(fit, fit, kTsendMs);
  EXPECT_NEAR(transport.frame_unicast.mean_ms(), params.expected_unicast_e2e_ms() - 0.05, 0.01);
}

TEST(SimulationTest, Class1MeanStableAcrossSeeds) {
  const auto transport = sanmodels::TransportParams::nominal(3);
  const auto a = simulate_class1(3, transport, 400, 1);
  const auto b = simulate_class1(3, transport, 400, 2);
  EXPECT_NEAR(a.summary.mean(), b.summary.mean(), 0.05);
  EXPECT_EQ(a.dropped, 0u);
}

TEST(SimulationTest, MeasurementAndSimulationAgreeClass1) {
  // The headline validation: calibrate the SAN from emulator delays, then
  // compare class-1 latency from both methodologies (paper Section 5.2:
  // 1.06 vs 1.030 for n = 3, 1.43 vs 1.442 for n = 5).
  const auto scale = Scale::quick();
  const auto ctx = make_context(scale, 99);
  for (const std::size_t n : {3u, 5u}) {
    const auto meas = measure_latency(n, ctx.network, net::TimerModel::ideal(), -1, 300,
                                      1000 + n);
    const auto sim = simulate_class1(n, ctx.transport(n), 300, 2000 + n);
    const double m = meas.summary().mean();
    const double s = sim.summary.mean();
    EXPECT_NEAR(s / m, 1.0, 0.25) << "n=" << n << " meas=" << m << " sim=" << s;
  }
}

TEST(ExperimentsTest, ContextProvidesCalibratedTransports) {
  const auto ctx = make_context(Scale::quick(), 15);
  EXPECT_GT(ctx.unicast_fit.mean(), 0.1);
  EXPECT_LT(ctx.unicast_fit.mean(), 0.2);
  for (const std::size_t n : {3u, 5u}) {
    const auto t = ctx.transport(n);
    EXPECT_GT(t.frame_broadcast.mean_ms(), t.frame_unicast.mean_ms());
  }
  EXPECT_THROW(ctx.transport(9), std::out_of_range);
}

TEST(ExperimentsTest, Fig7bSweepSelectsInteriorTsend) {
  RunOptions options;
  options.scale = Scale::quick();
  options.scale.class1_executions = 200;
  options.scale.sim_replications = 200;
  options.seed = 17;
  const auto table = CampaignRegistry::global().run("fig7b", options);
  ASSERT_EQ(table.row_count(), 1 + tsend_candidates().size());  // measured + 6 candidates
  std::size_t selected = 0;
  for (std::size_t r = 1; r < table.row_count(); ++r) {
    const double ks = std::get<double>(table.at(r, "ks_distance"));
    EXPECT_GE(ks, 0.0);
    EXPECT_LE(ks, 1.0);
    if (std::get<std::int64_t>(table.at(r, "selected")) == 0) continue;
    ++selected;
    // The emulator's ground truth is 0.025 ms; the sweep must not pick the
    // extremes.
    const double best = std::get<double>(table.at(r, "t_send_ms"));
    EXPECT_GE(best, 0.010);
    EXPECT_LE(best, 0.035);
  }
  EXPECT_EQ(selected, 1u);
}

TEST(ExperimentsTest, PaperTable1ReferenceShape) {
  const auto& rows = paper_table1();
  ASSERT_EQ(rows.size(), 5u);
  EXPECT_EQ(rows[0].n, 3u);
  EXPECT_DOUBLE_EQ(rows[0].meas_no_crash, 1.06);
  EXPECT_DOUBLE_EQ(rows[1].sim_no_crash, 1.442);
  EXPECT_TRUE(std::isnan(rows[2].sim_no_crash));
}

TEST(ReportTest, TableAndFormatting) {
  std::ostringstream os;
  TablePrinter table{os, {{"a", 6}, {"b", 8}}};
  table.print_header();
  table.print_row({"x", "y"});
  const std::string out = os.str();
  EXPECT_NE(out.find("a"), std::string::npos);
  EXPECT_NE(out.find("x"), std::string::npos);
  EXPECT_NE(out.find("---"), std::string::npos);
  EXPECT_EQ(fmt(1.23456, 2), "1.23");
  EXPECT_EQ(fmt(std::nan(""), 2), "-");
  stats::MeanCI ci;
  ci.mean = 2.5;
  ci.half_width = 0.1;
  ci.count = 10;
  EXPECT_NE(fmt_ci(ci, 2).find("2.50"), std::string::npos);
  EXPECT_NE(fmt_ci(ci, 2).find("+-0.10"), std::string::npos);
}

TEST(ReportTest, CdfPrintingCoversRange) {
  std::ostringstream os;
  const stats::Ecdf e{{1.0, 2.0, 3.0}};
  print_cdfs(os, {{"series", e}}, 5, "ms");
  const std::string out = os.str();
  EXPECT_NE(out.find("series"), std::string::npos);
  EXPECT_NE(out.find("1.000"), std::string::npos);
  EXPECT_NE(out.find("3.000"), std::string::npos);
}

}  // namespace
}  // namespace sanperf::core
