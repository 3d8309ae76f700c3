// Unit and property tests for the statistics module.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "des/random.hpp"
#include "stats/bimodal_fit.hpp"
#include "stats/ecdf.hpp"
#include "stats/ks.hpp"
#include "stats/student_t.hpp"
#include "stats/summary.hpp"

namespace sanperf::stats {
namespace {

TEST(SummaryTest, BasicMoments) {
  SummaryStats s;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(SummaryTest, SingleSampleHasZeroVariance) {
  SummaryStats s;
  s.add(3.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_EQ(s.mean_ci(0.9).half_width, 0.0);
}

TEST(SummaryTest, ConfidenceIntervalCoversTrueMean) {
  // Property: ~90% of 90% CIs over repeated normal samples contain mu.
  des::RandomEngine rng{17};
  int covered = 0;
  const int trials = 400;
  for (int t = 0; t < trials; ++t) {
    SummaryStats s;
    for (int i = 0; i < 30; ++i) s.add(rng.normal(10.0, 2.0));
    if (s.mean_ci(0.90).contains(10.0)) ++covered;
  }
  const double coverage = static_cast<double>(covered) / trials;
  EXPECT_GT(coverage, 0.84);
  EXPECT_LT(coverage, 0.96);
}

TEST(StudentTTest, NormalQuantileKnownValues) {
  EXPECT_NEAR(normal_quantile(0.5), 0.0, 1e-9);
  EXPECT_NEAR(normal_quantile(0.975), 1.959964, 1e-4);
  EXPECT_NEAR(normal_quantile(0.95), 1.644854, 1e-4);
  EXPECT_NEAR(normal_quantile(0.025), -1.959964, 1e-4);
  EXPECT_THROW((void)normal_quantile(0.0), std::invalid_argument);
  EXPECT_THROW((void)normal_quantile(1.0), std::invalid_argument);
}

TEST(StudentTTest, KnownCriticalValues) {
  // Classic t-table entries.
  EXPECT_NEAR(student_t_critical(0.95, 1), 12.706, 0.05);
  EXPECT_NEAR(student_t_critical(0.95, 2), 4.303, 0.02);
  EXPECT_NEAR(student_t_critical(0.90, 10), 1.812, 0.01);
  EXPECT_NEAR(student_t_critical(0.95, 30), 2.042, 0.01);
  EXPECT_NEAR(student_t_critical(0.90, 1000), 1.646, 0.01);
}

TEST(StudentTTest, ApproachesNormalForLargeDof) {
  EXPECT_NEAR(student_t_quantile(0.975, 100000), normal_quantile(0.975), 1e-3);
}

TEST(StudentTTest, SymmetricAroundZero) {
  for (const double dof : {1.0, 2.0, 5.0, 50.0}) {
    EXPECT_NEAR(student_t_quantile(0.3, dof), -student_t_quantile(0.7, dof), 1e-9);
  }
}

TEST(EcdfTest, EvalAndQuantile) {
  const Ecdf e{{1.0, 2.0, 3.0, 4.0}};
  EXPECT_DOUBLE_EQ(e.eval(0.5), 0.0);
  EXPECT_DOUBLE_EQ(e.eval(1.0), 0.25);
  EXPECT_DOUBLE_EQ(e.eval(2.5), 0.5);
  EXPECT_DOUBLE_EQ(e.eval(4.0), 1.0);
  EXPECT_DOUBLE_EQ(e.eval(9.0), 1.0);
  EXPECT_DOUBLE_EQ(e.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(e.quantile(0.25), 1.0);
  EXPECT_DOUBLE_EQ(e.quantile(0.26), 2.0);
  EXPECT_DOUBLE_EQ(e.quantile(1.0), 4.0);
}

TEST(EcdfTest, RejectsBadInput) {
  EXPECT_THROW(Ecdf{std::vector<double>{}}, std::invalid_argument);
  const Ecdf e{{1.0}};
  EXPECT_THROW((void)e.quantile(1.5), std::invalid_argument);
}

TEST(EcdfTest, MonotoneProperty) {
  des::RandomEngine rng{21};
  std::vector<double> xs;
  for (int i = 0; i < 500; ++i) xs.push_back(rng.normal(0, 1));
  const Ecdf e{xs};
  double prev = -1;
  for (double x = -4; x <= 4; x += 0.05) {
    const double f = e.eval(x);
    EXPECT_GE(f, prev);
    EXPECT_GE(f, 0.0);
    EXPECT_LE(f, 1.0);
    prev = f;
  }
}

TEST(EcdfTest, QuantileInverseProperty) {
  des::RandomEngine rng{22};
  std::vector<double> xs;
  for (int i = 0; i < 300; ++i) xs.push_back(rng.uniform(0, 10));
  const Ecdf e{xs};
  for (double p = 0.05; p < 1.0; p += 0.05) {
    EXPECT_GE(e.eval(e.quantile(p)), p - 1e-12);
  }
}

TEST(EcdfTest, CurveSpansRange) {
  const Ecdf e{{1.0, 5.0}};
  const auto curve = e.curve(5);
  ASSERT_EQ(curve.size(), 5u);
  EXPECT_DOUBLE_EQ(curve.front().first, 1.0);
  EXPECT_DOUBLE_EQ(curve.back().first, 5.0);
  EXPECT_DOUBLE_EQ(curve.back().second, 1.0);
}

TEST(KsTest, IdenticalSamplesHaveZeroDistance) {
  const Ecdf a{{1.0, 2.0, 3.0}};
  const Ecdf b{{1.0, 2.0, 3.0}};
  EXPECT_DOUBLE_EQ(ks_distance(a, b), 0.0);
}

TEST(KsTest, DisjointSamplesHaveDistanceOne) {
  const Ecdf a{{1.0, 2.0}};
  const Ecdf b{{10.0, 20.0}};
  EXPECT_DOUBLE_EQ(ks_distance(a, b), 1.0);
}

TEST(KsTest, SymmetricProperty) {
  des::RandomEngine rng{31};
  std::vector<double> xs, ys;
  for (int i = 0; i < 200; ++i) {
    xs.push_back(rng.normal(0, 1));
    ys.push_back(rng.normal(0.5, 1));
  }
  const Ecdf a{xs};
  const Ecdf b{ys};
  EXPECT_DOUBLE_EQ(ks_distance(a, b), ks_distance(b, a));
  EXPECT_GT(ks_distance(a, b), 0.05);
}

TEST(KsTest, OneSampleAgainstTrueCdf) {
  des::RandomEngine rng{32};
  std::vector<double> xs;
  for (int i = 0; i < 5000; ++i) xs.push_back(rng.uniform(0, 1));
  const Ecdf e{xs};
  const double d = ks_distance(e, [](double x) { return std::clamp(x, 0.0, 1.0); });
  EXPECT_LT(d, 0.03);  // well within KS acceptance at n = 5000
}

TEST(BimodalFitTest, MeanAndCdf) {
  const BimodalUniform b{0.8, 0.10, 0.13, 0.145, 0.35};
  EXPECT_NEAR(b.mean(), 0.8 * 0.115 + 0.2 * 0.2475, 1e-12);
  EXPECT_DOUBLE_EQ(b.cdf(0.05), 0.0);
  EXPECT_DOUBLE_EQ(b.cdf(0.4), 1.0);
  EXPECT_NEAR(b.cdf(0.13), 0.8, 1e-12);
  EXPECT_NE(b.to_string().find("U[0.100,0.130]"), std::string::npos);
}

TEST(BimodalFitTest, RecoversGroundTruthMixture) {
  // Draw from a known two-uniform mixture and check the fit finds it.
  des::RandomEngine rng{33};
  std::vector<double> xs;
  for (int i = 0; i < 4000; ++i) {
    xs.push_back(rng.bernoulli(0.8) ? rng.uniform(0.10, 0.13) : rng.uniform(0.145, 0.35));
  }
  const BimodalUniform fit = fit_bimodal_uniform(xs);
  EXPECT_NEAR(fit.p1, 0.8, 0.05);
  EXPECT_NEAR(fit.a1, 0.10, 0.01);
  EXPECT_NEAR(fit.b1, 0.13, 0.01);
  EXPECT_NEAR(fit.a2, 0.145, 0.01);
  EXPECT_NEAR(fit.b2, 0.35, 0.02);
}

TEST(BimodalFitTest, FitCdfTracksEmpirical) {
  des::RandomEngine rng{34};
  std::vector<double> xs;
  for (int i = 0; i < 3000; ++i) {
    xs.push_back(rng.bernoulli(0.6) ? rng.uniform(1.0, 2.0) : rng.uniform(5.0, 9.0));
  }
  const BimodalUniform fit = fit_bimodal_uniform(xs);
  const Ecdf e{xs};
  const double d = ks_distance(e, [&fit](double x) { return fit.cdf(x); });
  EXPECT_LT(d, 0.05);
}

TEST(BimodalFitTest, RejectsTinySamples) {
  EXPECT_THROW((void)fit_bimodal_uniform({1.0, 2.0, 3.0}), std::invalid_argument);
}

TEST(BimodalFitTest, UnimodalDataStillProducesValidMixture) {
  des::RandomEngine rng{35};
  std::vector<double> xs;
  for (int i = 0; i < 1000; ++i) xs.push_back(rng.uniform(3.0, 4.0));
  const BimodalUniform fit = fit_bimodal_uniform(xs);
  EXPECT_GE(fit.a1, 3.0);
  EXPECT_LE(fit.b2, 4.0);
  EXPECT_GT(fit.p1, 0.0);
  EXPECT_LT(fit.p1, 1.0);
  EXPECT_NEAR(fit.mean(), 3.5, 0.05);
}

}  // namespace
}  // namespace sanperf::stats
