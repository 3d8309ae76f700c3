// Tests of the analytical (CTMC) transient solver against closed forms and
// against the simulative solver.
#include <gtest/gtest.h>

#include <cmath>

#include "san/analytic.hpp"
#include "san/model.hpp"
#include "san/study.hpp"

namespace sanperf::san {
namespace {

// --------------------------------------------------------------------------
// Closed forms
// --------------------------------------------------------------------------

TEST(CtmcSolverTest, SingleExponentialStage) {
  SanModel m;
  const auto a = m.place("a", 1);
  const auto b = m.place("b");
  m.timed_activity("t", Distribution::exponential_ms(4.0)).in(a).out(b);
  CtmcTransientSolver solver{m, [b](const Marking& mk) { return mk.get(b) > 0; }};
  EXPECT_EQ(solver.state_count(), 2u);
  EXPECT_EQ(solver.absorbing_count(), 1u);
  EXPECT_NEAR(solver.mean_time_to_stop_ms(), 4.0, 1e-9);
  // P(T <= t) = 1 - exp(-t/4).
  EXPECT_NEAR(solver.probability_stopped_by(4.0), 1 - std::exp(-1.0), 1e-6);
  EXPECT_NEAR(solver.probability_stopped_by(0.0), 0.0, 1e-9);
  EXPECT_NEAR(solver.probability_stopped_by(80.0), 1.0, 1e-6);
}

TEST(CtmcSolverTest, TandemStagesSumMeans) {
  // Erlang: mean absorption = sum of stage means.
  SanModel m;
  const auto a = m.place("a", 1);
  const auto b = m.place("b");
  const auto c = m.place("c");
  const auto d = m.place("d");
  m.timed_activity("t1", Distribution::exponential_ms(1.0)).in(a).out(b);
  m.timed_activity("t2", Distribution::exponential_ms(2.0)).in(b).out(c);
  m.timed_activity("t3", Distribution::exponential_ms(3.0)).in(c).out(d);
  CtmcTransientSolver solver{m, [d](const Marking& mk) { return mk.get(d) > 0; }};
  EXPECT_EQ(solver.state_count(), 4u);
  EXPECT_NEAR(solver.mean_time_to_stop_ms(), 6.0, 1e-9);
}

TEST(CtmcSolverTest, RaceOfTwoExponentials) {
  // min(Exp(1/2), Exp(1/3)): mean 1/(1/2+1/3) = 1.2 ms to absorb either way.
  SanModel m;
  const auto a = m.place("a", 1);
  const auto x = m.place("x");
  const auto y = m.place("y");
  m.timed_activity("fast", Distribution::exponential_ms(2.0)).in(a).out(x);
  m.timed_activity("slow", Distribution::exponential_ms(3.0)).in(a).out(y);
  CtmcTransientSolver solver{
      m, [x, y](const Marking& mk) { return mk.get(x) + mk.get(y) > 0; }};
  EXPECT_NEAR(solver.mean_time_to_stop_ms(), 1.2, 1e-9);
}

TEST(CtmcSolverTest, InstantaneousCascadeWithCases) {
  // After the timed stage, an instantaneous coin flips into a fast or slow
  // second stage: mean = 1 + 0.3 * 5 + 0.7 * 2.
  SanModel m;
  const auto a = m.place("a", 1);
  const auto mid = m.place("mid");
  const auto fast_q = m.place("fast_q");
  const auto slow_q = m.place("slow_q");
  const auto done = m.place("done");
  m.timed_activity("first", Distribution::exponential_ms(1.0)).in(a).out(mid);
  m.instant_activity("route").in(mid).case_prob(0.3).out(slow_q).case_prob(0.7).out(fast_q);
  m.timed_activity("slow", Distribution::exponential_ms(5.0)).in(slow_q).out(done);
  m.timed_activity("fast", Distribution::exponential_ms(2.0)).in(fast_q).out(done);
  CtmcTransientSolver solver{m, [done](const Marking& mk) { return mk.get(done) > 0; }};
  EXPECT_NEAR(solver.mean_time_to_stop_ms(), 1 + 0.3 * 5 + 0.7 * 2, 1e-9);
}

TEST(CtmcSolverTest, WeightedInstantaneousRace) {
  // Two instantaneous activities race 3:1 into different exponential tails.
  SanModel m;
  const auto a = m.place("a", 1);
  const auto left = m.place("left");
  const auto right = m.place("right");
  const auto done = m.place("done");
  m.instant_activity("go_left", 3.0).in(a).out(left);
  m.instant_activity("go_right", 1.0).in(a).out(right);
  m.timed_activity("l", Distribution::exponential_ms(4.0)).in(left).out(done);
  m.timed_activity("r", Distribution::exponential_ms(8.0)).in(right).out(done);
  CtmcTransientSolver solver{m, [done](const Marking& mk) { return mk.get(done) > 0; }};
  EXPECT_NEAR(solver.mean_time_to_stop_ms(), 0.75 * 4 + 0.25 * 8, 1e-9);
}

TEST(CtmcSolverTest, Mm1kTimeToFill) {
  // M/M/1/K starting empty, absorbing at K=3: birth 1/ms, death 0.5/ms.
  // Mean first-passage times from the birth-death recursion.
  SanModel m;
  const auto queue = m.place("q", 0);
  const auto arrivals = m.place("src", 1);
  const auto gate = m.input_gate("not_full", {queue},
                                 [queue](const Marking& mk) { return mk.get(queue) < 3; });
  m.timed_activity("arrive", Distribution::exponential_ms(1.0))
      .in(arrivals)
      .in_gate(gate)
      .out(arrivals)
      .out(queue);
  m.timed_activity("serve", Distribution::exponential_ms(2.0)).in(queue);
  CtmcTransientSolver solver{m, [queue](const Marking& mk) { return mk.get(queue) >= 3; }};
  EXPECT_EQ(solver.state_count(), 4u);
  // Hand-solved: with lambda=1, mu=0.5: t0 = 1 + t1; t1 = 2/3 + (1/3)t0 + (2/3)...
  // Solve numerically here instead: compare against high-precision simulation.
  TransientStudy study{m, [queue](const Marking& mk) { return mk.get(queue) >= 3; }};
  const auto sim = study.run(30000, 9);
  EXPECT_NEAR(solver.mean_time_to_stop_ms(), sim.summary.mean(),
              4 * sim.ci.half_width + 0.02);
}

// --------------------------------------------------------------------------
// Agreement with the simulative solver
// --------------------------------------------------------------------------

TEST(CtmcSolverTest, MatchesSimulationOnBranchyModel) {
  SanModel m;
  const auto a = m.place("a", 2);  // two concurrent tokens
  const auto b = m.place("b");
  const auto done = m.place("done");
  m.timed_activity("stage1", Distribution::exponential_ms(1.5)).in(a).out(b);
  m.timed_activity("stage2", Distribution::exponential_ms(0.7)).in(b).out(done);
  const auto stop = [done](const Marking& mk) { return mk.get(done) >= 2; };
  CtmcTransientSolver solver{m, stop};
  TransientStudy study{m, stop};
  const auto sim = study.run(30000, 10);
  EXPECT_NEAR(solver.mean_time_to_stop_ms(), sim.summary.mean(), 4 * sim.ci.half_width + 0.02);
  // Distribution-level agreement at a few quantiles.
  const auto ecdf = sim.ecdf();
  for (const double t : {1.0, 2.0, 4.0, 8.0}) {
    EXPECT_NEAR(solver.probability_stopped_by(t), ecdf.eval(t), 0.02) << "t=" << t;
  }
}

// --------------------------------------------------------------------------
// Constraints
// --------------------------------------------------------------------------

TEST(CtmcSolverTest, RejectsNonExponentialModels) {
  // The paper's own situation: bimodal-uniform network delays force
  // simulation (Section 3.1).
  SanModel m;
  const auto a = m.place("a", 1);
  const auto b = m.place("b");
  m.timed_activity("t", Distribution::bimodal_uniform_ms(0.8, 0.1, 0.13, 0.145, 0.35))
      .in(a)
      .out(b);
  EXPECT_THROW(
      (CtmcTransientSolver{m, [b](const Marking& mk) { return mk.get(b) > 0; }}),
      std::invalid_argument);
}

TEST(CtmcSolverTest, DetectsInfiniteMeanOnDeadlock) {
  SanModel m;
  const auto a = m.place("a", 1);
  const auto stuck = m.place("stuck");
  const auto done = m.place("done");
  // Half the probability mass deadlocks without reaching `done`.
  m.timed_activity("t", Distribution::exponential_ms(1.0))
      .in(a)
      .case_prob(0.5)
      .out(done)
      .case_prob(0.5)
      .out(stuck);
  CtmcTransientSolver solver{m, [done](const Marking& mk) { return mk.get(done) > 0; }};
  EXPECT_THROW(static_cast<void>(solver.mean_time_to_stop_ms()), std::runtime_error);
  // The transient probability is still well-defined.
  EXPECT_NEAR(solver.probability_stopped_by(1000.0), 0.5, 1e-6);
}

TEST(CtmcSolverTest, StateCapEnforced) {
  // An unbounded counter chain exceeds any finite cap.
  SanModel m;
  const auto a = m.place("a", 1);
  const auto count = m.place("count");
  m.timed_activity("inc", Distribution::exponential_ms(1.0)).in(a).out(a).out(count);
  const auto never = m.place("never");
  AnalyticOptions opts;
  opts.max_states = 100;
  EXPECT_THROW(
      (CtmcTransientSolver{m, [never](const Marking& mk) { return mk.get(never) > 0; }, opts}),
      std::runtime_error);
}

TEST(CtmcSolverTest, StopAtInitialMarking) {
  SanModel m;
  const auto a = m.place("a", 1);
  const auto b = m.place("b");
  m.timed_activity("t", Distribution::exponential_ms(1.0)).in(a).out(b);
  CtmcTransientSolver solver{m, [a](const Marking& mk) { return mk.get(a) > 0; }};
  EXPECT_NEAR(solver.mean_time_to_stop_ms(), 0.0, 1e-12);
  EXPECT_NEAR(solver.probability_stopped_by(0.0), 1.0, 1e-12);
}

}  // namespace
}  // namespace sanperf::san
