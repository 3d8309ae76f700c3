// Tests of the SAN formalism: distributions, model structure, simulator
// semantics (enabling, race policy, instantaneous priority, gates, cases),
// composition helpers and transient studies.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "san/compose.hpp"
#include "san/distribution.hpp"
#include "san/model.hpp"
#include "san/simulator.hpp"
#include "san/study.hpp"

namespace sanperf::san {
namespace {

des::RandomEngine rng_for_test() { return des::RandomEngine{12345}; }

// --------------------------------------------------------------------------
// Distribution
// --------------------------------------------------------------------------

TEST(DistributionTest, DeterministicAlwaysSame) {
  auto rng = rng_for_test();
  const auto d = Distribution::deterministic_ms(0.025);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(d.sample(rng), des::Duration::from_ms(0.025));
  }
  EXPECT_TRUE(d.is_deterministic());
  EXPECT_DOUBLE_EQ(d.mean_ms(), 0.025);
}

TEST(DistributionTest, UniformBoundsAndMean) {
  auto rng = rng_for_test();
  const auto d = Distribution::uniform_ms(1.0, 3.0);
  double sum = 0;
  const int k = 20000;
  for (int i = 0; i < k; ++i) {
    const double x = d.sample(rng).to_ms();
    EXPECT_GE(x, 1.0);
    EXPECT_LE(x, 3.0);
    sum += x;
  }
  EXPECT_NEAR(sum / k, 2.0, 0.02);
  EXPECT_DOUBLE_EQ(d.mean_ms(), 2.0);
  EXPECT_FALSE(d.is_deterministic());
}

TEST(DistributionTest, ExponentialMean) {
  auto rng = rng_for_test();
  const auto d = Distribution::exponential_ms(4.0);
  double sum = 0;
  const int k = 100000;
  for (int i = 0; i < k; ++i) sum += d.sample(rng).to_ms();
  EXPECT_NEAR(sum / k, 4.0, 0.1);
  EXPECT_DOUBLE_EQ(d.mean_ms(), 4.0);
}

TEST(DistributionTest, WeibullMean) {
  auto rng = rng_for_test();
  const auto d = Distribution::weibull_ms(2.0, 1.0);
  double sum = 0;
  const int k = 100000;
  for (int i = 0; i < k; ++i) sum += d.sample(rng).to_ms();
  const double expected = std::tgamma(1.5);  // scale * Gamma(1 + 1/k)
  EXPECT_NEAR(sum / k, expected, 0.01);
  EXPECT_NEAR(d.mean_ms(), expected, 1e-12);
}

TEST(DistributionTest, BimodalComponentsAndWeights) {
  auto rng = rng_for_test();
  const auto d = Distribution::bimodal_uniform_ms(0.8, 0.10, 0.13, 0.145, 0.35);
  int low = 0;
  const int k = 50000;
  for (int i = 0; i < k; ++i) {
    const double x = d.sample(rng).to_ms();
    EXPECT_TRUE((x >= 0.10 && x <= 0.13) || (x >= 0.145 && x <= 0.35));
    if (x <= 0.13) ++low;
  }
  EXPECT_NEAR(static_cast<double>(low) / k, 0.8, 0.01);
  EXPECT_NEAR(d.mean_ms(), 0.8 * 0.115 + 0.2 * 0.2475, 1e-12);
}

TEST(DistributionTest, MixtureOfMixtures) {
  const auto bimodal = Distribution::bimodal_uniform_ms(0.5, 0.0, 1.0, 2.0, 3.0);
  const auto mixed = Distribution::mixture({{0.5, bimodal},
                                            {0.5, Distribution::deterministic_ms(10.0)}});
  EXPECT_NEAR(mixed.mean_ms(), 0.5 * 1.5 + 0.5 * 10.0, 1e-12);
}

TEST(DistributionTest, FromFitMatchesBimodal) {
  stats::BimodalUniform fit{0.7, 1.0, 2.0, 3.0, 4.0};
  const auto d = Distribution::from_fit(fit);
  EXPECT_NEAR(d.mean_ms(), fit.mean(), 1e-12);
}

TEST(DistributionTest, RejectsBadParameters) {
  EXPECT_THROW(Distribution::deterministic_ms(-1), std::invalid_argument);
  EXPECT_THROW(Distribution::exponential_ms(0), std::invalid_argument);
  EXPECT_THROW(Distribution::uniform_ms(2, 1), std::invalid_argument);
  EXPECT_THROW(Distribution::weibull_ms(0, 1), std::invalid_argument);
  EXPECT_THROW(Distribution::bimodal_uniform_ms(1.5, 0, 1, 2, 3), std::invalid_argument);
  EXPECT_THROW(Distribution::mixture({}), std::invalid_argument);

  // Non-finite parameters: deterministic_ms(NaN), exponential_ms(inf) and
  // uniform_ms(0, inf) would sample INT64_MIN ns.
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(Distribution::deterministic_ms(nan), std::invalid_argument);
  EXPECT_THROW(Distribution::deterministic_ms(inf), std::invalid_argument);
  EXPECT_THROW(Distribution::exponential_ms(inf), std::invalid_argument);
  EXPECT_THROW(Distribution::exponential_ms(nan), std::invalid_argument);
  EXPECT_THROW(Distribution::uniform_ms(0, inf), std::invalid_argument);
  EXPECT_THROW(Distribution::uniform_ms(nan, 1), std::invalid_argument);
  EXPECT_THROW(Distribution::weibull_ms(inf, 1), std::invalid_argument);
  EXPECT_THROW(Distribution::weibull_ms(2, inf), std::invalid_argument);
  EXPECT_THROW(Distribution::bimodal_uniform_ms(0.5, 0, 1, 2, inf), std::invalid_argument);
  EXPECT_THROW(Distribution::bimodal_uniform_ms(nan, 0, 1, 2, 3), std::invalid_argument);
  // Each mode needs 0 <= a <= b, as uniform_ms does: a negative mode runs a
  // SAN's clock backwards.
  EXPECT_THROW(Distribution::bimodal_uniform_ms(0.5, -2, -1, -2, -1), std::invalid_argument);
  EXPECT_THROW(Distribution::bimodal_uniform_ms(0.5, 0, 1, 3, 2), std::invalid_argument);
  EXPECT_THROW(Distribution::bimodal_uniform_ms(0.5, 1, 0, 2, 3), std::invalid_argument);
  const auto det = Distribution::deterministic_ms(1);
  EXPECT_THROW(Distribution::mixture({{inf, det}}), std::invalid_argument);
  EXPECT_THROW(Distribution::mixture({{nan, det}}), std::invalid_argument);
  EXPECT_THROW(Distribution::mixture({{0.5, det}, {-1, det}}), std::invalid_argument);
  // A rejection names its factory.
  try {
    (void)Distribution::bimodal_uniform_ms(0.5, -2, -1, -2, -1);
    FAIL() << "accepted a negative mode";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string{e.what()}.find("bimodal_uniform_ms"), std::string::npos);
  }
  // The boundaries stay accepted.
  EXPECT_NO_THROW((void)Distribution::deterministic_ms(0));
  EXPECT_NO_THROW((void)Distribution::uniform_ms(0, 0));
  EXPECT_NO_THROW((void)Distribution::bimodal_uniform_ms(0.5, 0, 0, 1, 1));
}

// --------------------------------------------------------------------------
// Model structure
// --------------------------------------------------------------------------

TEST(SanModelTest, PlaceLookupAndInitialMarking) {
  SanModel m;
  const PlaceId a = m.place("a", 2);
  const PlaceId b = m.place("b");
  EXPECT_EQ(m.find_place("a"), a);
  EXPECT_TRUE(m.has_place("b"));
  EXPECT_FALSE(m.has_place("c"));
  EXPECT_THROW((void)m.find_place("c"), std::out_of_range);
  EXPECT_THROW(m.place("a"), std::logic_error);  // duplicate
  const Marking init = m.initial_marking();
  EXPECT_EQ(init.get(a), 2);
  EXPECT_EQ(init.get(b), 0);
}

TEST(SanModelTest, ValidateCatchesBadCaseProbabilities) {
  SanModel m;
  const PlaceId a = m.place("a", 1);
  const PlaceId b = m.place("b");
  m.instant_activity("act").in(a).case_prob(0.5).out(b).case_prob(0.3).out(b);
  EXPECT_THROW(m.validate(), std::logic_error);
}

TEST(SanModelTest, ValidateCatchesUntriggerableActivity) {
  SanModel m;
  const PlaceId b = m.place("b");
  m.instant_activity("act").out(b);  // no input arc, no gate
  EXPECT_THROW(m.validate(), std::logic_error);
}

TEST(SanModelTest, DependentsIndexCoversArcsAndGateReads) {
  SanModel m;
  const PlaceId a = m.place("a", 1);
  const PlaceId g = m.place("g", 0);
  const PlaceId out = m.place("out");
  const auto gate = m.input_gate("gate", {g}, [g](const Marking& mk) { return mk.get(g) > 0; });
  auto act = m.timed_activity("t", Distribution::deterministic_ms(1));
  act.in(a).in_gate(gate).out(out);
  const auto& deps_a = m.dependents(a);
  const auto& deps_g = m.dependents(g);
  ASSERT_EQ(deps_a.size(), 1u);
  ASSERT_EQ(deps_g.size(), 1u);
  EXPECT_EQ(deps_a[0], act.id());
  EXPECT_EQ(deps_g[0], act.id());
  EXPECT_TRUE(m.dependents(out).empty());
}

TEST(SanModelTest, EnabledCountsRepeatedArcsAndMaskTracksMutation) {
  SanModel m;
  const PlaceId a = m.place("a", 2);
  const PlaceId b = m.place("b", 1);
  const auto gate = m.input_gate("b_empty", {b}, [b](const Marking& mk) { return mk.get(b) == 0; });
  const auto pair = m.timed_activity("pair", Distribution::deterministic_ms(1)).in(a).in(b).in(a);
  const auto gated = m.instant_activity("gated").in(a).in_gate(gate);
  m.prepare();
  Marking mk = m.initial_marking();
  EXPECT_TRUE(m.enabled(pair.id(), mk));    // a = 2 covers its two arcs
  EXPECT_FALSE(m.enabled(gated.id(), mk));  // the gate reads b = 1
  mk.set(a, 1);
  EXPECT_FALSE(m.enabled(pair.id(), mk));
  mk.set(b, 0);
  EXPECT_TRUE(m.enabled(gated.id(), mk));
  EXPECT_EQ(m.instantaneous_mask(), std::vector<std::uint64_t>{0b10});

  // A mutation after prepare() rebuilds the tables on next use.
  for (int i = 0; i < 70; ++i) m.instant_activity("i" + std::to_string(i)).in(b);
  const auto& mask = m.instantaneous_mask();
  ASSERT_EQ(mask.size(), 2u);
  EXPECT_EQ(mask[0], ~std::uint64_t{1});           // all but "pair"
  EXPECT_EQ(mask[1], (std::uint64_t{1} << 8) - 1);  // activities 64..71
  EXPECT_EQ(m.dependents(b).size(), 72u);

  // The lazy build validates first: an arc from a place that does not exist
  // throws instead of indexing past the tables.
  m.instant_activity("dangling").in(PlaceId{99});
  EXPECT_THROW((void)m.instantaneous_mask(), std::logic_error);
}

TEST(SanModelTest, RejectsNonFiniteInstantaneousWeights) {
  SanModel m;
  const auto message = [&m](const std::string& name, double weight) -> std::string {
    try {
      m.instant_activity(name, weight);
    } catch (const std::logic_error& e) {
      return e.what();
    }
    return "accepted";
  };
  EXPECT_EQ(message("inf", std::numeric_limits<double>::infinity()),
            "SanModel: non-finite weight on inf");
  EXPECT_EQ(message("nan", std::numeric_limits<double>::quiet_NaN()),
            "SanModel: non-finite weight on nan");
  EXPECT_EQ(message("zero", 0.0), "SanModel: non-positive weight on zero");
  EXPECT_EQ(message("big", std::numeric_limits<double>::max()), "accepted");
  EXPECT_EQ(m.activity_count(), 1u);
}

TEST(MarkingTest, RejectsNegativeTokens) {
  Marking m{2};
  m.set(0, 3);
  EXPECT_EQ(m.get(0), 3);
  EXPECT_THROW(m.set(1, -1), std::logic_error);
  EXPECT_THROW(m.add(1, -1), std::logic_error);
}

TEST(MarkingTest, JournalRecordsEachTouchedPlaceOnceWithItsFirstCount) {
  Marking m{3};
  m.set(0, 4);
  MarkingJournal journal;
  journal.reset(m.size());
  {
    const Marking::JournalScope scope{m, journal};
    EXPECT_TRUE(m.journaled());
    m.add(2, 1);
    m.set(0, 9);
    m.add(2, 1);
    m.set(0, 4);  // back to its first count: recorded, but unchanged
    EXPECT_THROW(m.set(1, -1), std::logic_error);  // rejected before it is recorded
  }
  EXPECT_FALSE(m.journaled());
  ASSERT_EQ(journal.entries().size(), 2u);
  EXPECT_EQ(journal.entries()[0].place, 2u);
  EXPECT_EQ(journal.entries()[0].before, 0);
  EXPECT_EQ(journal.entries()[1].place, 0u);
  EXPECT_EQ(journal.entries()[1].before, 4);
  journal.clear();
  EXPECT_TRUE(journal.entries().empty());
  m.add(1, 1);  // no journal attached
  EXPECT_TRUE(journal.entries().empty());
}

// Copies and moves carry tokens, never the journal; a journaled marking
// that is assigned a whole marking records every place.
TEST(MarkingTest, CopiesCarryTokensOnly) {
  Marking m{3};
  m.set(0, 1);
  Marking target{3};
  target.set(2, 5);
  MarkingJournal journal;
  journal.reset(m.size());
  {
    const Marking::JournalScope scope{m, journal};
    Marking copy{m};
    EXPECT_FALSE(copy.journaled());
    EXPECT_EQ(copy, m);
    const Marking moved{std::move(copy)};
    EXPECT_FALSE(moved.journaled());
    Marking assigned{3};
    assigned = m;
    EXPECT_FALSE(assigned.journaled());
    m = target;
    EXPECT_TRUE(m.journaled());
    EXPECT_THROW(m = Marking{4}, std::logic_error);
  }
  EXPECT_EQ(m, target);
  ASSERT_EQ(journal.entries().size(), 3u);
  EXPECT_EQ(journal.entries()[0].before, 1);
  EXPECT_EQ(journal.entries()[2].before, 0);
}

// --------------------------------------------------------------------------
// Simulator semantics
// --------------------------------------------------------------------------

TEST(SanSimulatorTest, SimpleTimedChainFiresInOrder) {
  SanModel m;
  const PlaceId a = m.place("a", 1);
  const PlaceId b = m.place("b");
  const PlaceId c = m.place("c");
  m.timed_activity("t1", Distribution::deterministic_ms(2)).in(a).out(b);
  m.timed_activity("t2", Distribution::deterministic_ms(3)).in(b).out(c);

  SanSimulator sim{m, rng_for_test()};
  const auto res = sim.run();
  EXPECT_EQ(res.reason, StopReason::kDeadlock);
  EXPECT_EQ(sim.marking().get(c), 1);
  EXPECT_EQ(res.end_time, des::TimePoint::origin() + des::Duration::from_ms(5));
  EXPECT_EQ(res.firings, 2u);
}

TEST(SanSimulatorTest, StopPredicateEndsRun) {
  SanModel m;
  const PlaceId a = m.place("a", 1);
  const PlaceId b = m.place("b");
  m.timed_activity("loop", Distribution::deterministic_ms(1)).in(a).out(a).out(b);

  SanSimulator sim{m, rng_for_test()};
  sim.set_stop_predicate([b](const Marking& mk) { return mk.get(b) >= 3; });
  const auto res = sim.run();
  EXPECT_EQ(res.reason, StopReason::kPredicate);
  EXPECT_EQ(sim.marking().get(b), 3);
  EXPECT_EQ(res.end_time, des::TimePoint::origin() + des::Duration::from_ms(3));
}

TEST(SanSimulatorTest, TimeLimitRespected) {
  SanModel m;
  const PlaceId a = m.place("a", 1);
  m.timed_activity("loop", Distribution::deterministic_ms(1)).in(a).out(a);
  SanSimulator sim{m, rng_for_test()};
  const auto res = sim.run(des::Duration::from_ms(10.5));
  EXPECT_EQ(res.reason, StopReason::kTimeLimit);
  EXPECT_EQ(res.firings, 10u);
  // The clock stops at the limit, not at the last firing (10 ms).
  EXPECT_EQ(res.end_time, des::TimePoint::origin() + des::Duration::from_ms(10.5));
  EXPECT_EQ(sim.now(), res.end_time);
}

TEST(SanSimulatorTest, InstantaneousFiresBeforeTimed) {
  SanModel m;
  const PlaceId a = m.place("a", 1);
  const PlaceId b = m.place("b");
  const PlaceId c = m.place("c");
  // Both enabled initially; the instantaneous one must win and disable the
  // timed one by stealing the token.
  m.timed_activity("slow", Distribution::deterministic_ms(1)).in(a).out(b);
  m.instant_activity("fast").in(a).out(c);
  SanSimulator sim{m, rng_for_test()};
  const auto res = sim.run();
  EXPECT_EQ(sim.marking().get(c), 1);
  EXPECT_EQ(sim.marking().get(b), 0);
  EXPECT_EQ(res.end_time, des::TimePoint::origin());
}

TEST(SanSimulatorTest, InstantaneousWeightsRespected) {
  SanModel m;
  const PlaceId a = m.place("a", 1);
  const PlaceId x = m.place("x");
  const PlaceId y = m.place("y");
  m.instant_activity("to_x", 3.0).in(a).out(x);
  m.instant_activity("to_y", 1.0).in(a).out(y);

  int hits_x = 0;
  const int k = 4000;
  SanSimulator sim{m, rng_for_test()};
  const des::RandomEngine master{777};
  for (int i = 0; i < k; ++i) {
    sim.reset(master.substream("rep", static_cast<std::uint64_t>(i)));
    sim.run();
    hits_x += sim.marking().get(x);
  }
  EXPECT_NEAR(static_cast<double>(hits_x) / k, 0.75, 0.03);
}

TEST(SanSimulatorTest, CaseProbabilitiesRespected) {
  SanModel m;
  const PlaceId a = m.place("a", 1);
  const PlaceId x = m.place("x");
  const PlaceId y = m.place("y");
  m.instant_activity("act").in(a).case_prob(0.25).out(x).case_prob(0.75).out(y);

  int hits_y = 0;
  const int k = 4000;
  SanSimulator sim{m, rng_for_test()};
  const des::RandomEngine master{778};
  for (int i = 0; i < k; ++i) {
    sim.reset(master.substream("rep", static_cast<std::uint64_t>(i)));
    sim.run();
    hits_y += sim.marking().get(y);
  }
  EXPECT_NEAR(static_cast<double>(hits_y) / k, 0.75, 0.03);
}

TEST(SanSimulatorTest, InputGatePredicateAndFunction) {
  SanModel m;
  const PlaceId a = m.place("a", 1);
  const PlaceId guard = m.place("guard", 0);
  const PlaceId out = m.place("out");
  const auto gate = m.input_gate(
      "g", {guard}, [guard](const Marking& mk) { return mk.get(guard) >= 2; },
      [guard](Marking& mk) { mk.set(guard, 0); });
  m.timed_activity("t", Distribution::deterministic_ms(1)).in(a).in_gate(gate).out(out);
  const PlaceId src = m.place("src", 2);
  m.timed_activity("feeder", Distribution::deterministic_ms(3)).in(src).out(guard);

  SanSimulator sim{m, rng_for_test()};
  sim.run();
  // feeder fires at 3 and 6; gate opens at 6; t fires at 7 and clears guard.
  EXPECT_EQ(sim.marking().get(out), 1);
  EXPECT_EQ(sim.marking().get(guard), 0);
  EXPECT_EQ(sim.now(), des::TimePoint::origin() + des::Duration::from_ms(7));
}

TEST(SanSimulatorTest, OutputGateRunsOnFiring) {
  SanModel m;
  const PlaceId a = m.place("a", 1);
  const PlaceId out = m.place("out");
  const auto og = m.output_gate("og", [out](Marking& mk) { mk.add(out, 5); });
  m.instant_activity("act").in(a).out_gate(og);
  SanSimulator sim{m, rng_for_test()};
  sim.run();
  EXPECT_EQ(sim.marking().get(out), 5);
}

TEST(SanSimulatorTest, RacePolicyAbortsDisabledActivation) {
  SanModel m;
  const PlaceId token = m.place("token", 1);
  const PlaceId fast_out = m.place("fast_out");
  const PlaceId slow_out = m.place("slow_out");
  // Two timed activities race for one token; the slower activation must be
  // aborted when the faster one consumes the token.
  m.timed_activity("fast", Distribution::deterministic_ms(1)).in(token).out(fast_out);
  m.timed_activity("slow", Distribution::deterministic_ms(5)).in(token).out(slow_out);
  SanSimulator sim{m, rng_for_test()};
  const auto res = sim.run();
  EXPECT_EQ(sim.marking().get(fast_out), 1);
  EXPECT_EQ(sim.marking().get(slow_out), 0);
  EXPECT_EQ(res.firings, 1u);
  EXPECT_EQ(res.end_time, des::TimePoint::origin() + des::Duration::from_ms(1));
}

TEST(SanSimulatorTest, ReenabledActivitySamplesAfresh) {
  SanModel m;
  const PlaceId gate_tokens = m.place("gt", 0);
  const PlaceId src = m.place("src", 2);
  const PlaceId out = m.place("out");
  // "work" is enabled only while gt > 0; the feeder pulses gt on and the
  // consumer pulls it off, forcing re-enabling cycles.
  m.timed_activity("feeder", Distribution::deterministic_ms(10)).in(src).out(gate_tokens);
  m.timed_activity("work", Distribution::deterministic_ms(4)).in(gate_tokens).out(out);
  SanSimulator sim{m, rng_for_test()};
  sim.run();
  // feeder at 10 -> work at 14; feeder at 20 -> work at 24.
  EXPECT_EQ(sim.marking().get(out), 2);
  EXPECT_EQ(sim.now(), des::TimePoint::origin() + des::Duration::from_ms(24));
}

TEST(SanSimulatorTest, MultiplicityRequiresEnoughTokens) {
  SanModel m;
  const PlaceId a = m.place("a", 1);
  const PlaceId out = m.place("out");
  // Consumes two tokens from `a` per firing.
  m.instant_activity("pair").in(a).in(a).out(out);
  SanSimulator sim{m, rng_for_test()};
  sim.run();
  EXPECT_EQ(sim.marking().get(out), 0);  // only one token: disabled

  SanModel m2;
  const PlaceId a2 = m2.place("a", 4);
  const PlaceId out2 = m2.place("out");
  m2.instant_activity("pair").in(a2).in(a2).out(out2);
  SanSimulator sim2{m2, rng_for_test()};
  sim2.run();
  EXPECT_EQ(sim2.marking().get(out2), 2);
  EXPECT_EQ(sim2.marking().get(a2), 0);
}

TEST(SanSimulatorTest, LivelockDetected) {
  SanModel m;
  const PlaceId a = m.place("a", 1);
  m.instant_activity("spin").in(a).out(a);
  SanSimulator sim{m, rng_for_test()};
  EXPECT_THROW(sim.run(), std::runtime_error);
}

TEST(SanSimulatorTest, FireHookAndCounts) {
  SanModel m;
  const PlaceId a = m.place("a", 3);
  const PlaceId b = m.place("b");
  const auto act = m.timed_activity("t", Distribution::deterministic_ms(1)).in(a).out(b);
  SanSimulator sim{m, rng_for_test()};
  int hook_calls = 0;
  sim.set_fire_hook([&](ActivityId id, des::TimePoint) {
    EXPECT_EQ(id, act.id());
    ++hook_calls;
  });
  sim.run();
  EXPECT_EQ(hook_calls, 3);
  EXPECT_EQ(sim.fire_count(act.id()), 3u);
  EXPECT_EQ(sim.total_firings(), 3u);
}

TEST(SanSimulatorTest, ResetRestoresInitialState) {
  SanModel m;
  const PlaceId a = m.place("a", 1);
  const PlaceId b = m.place("b");
  m.timed_activity("t", Distribution::deterministic_ms(1)).in(a).out(b);
  SanSimulator sim{m, rng_for_test()};
  sim.run();
  EXPECT_EQ(sim.marking().get(b), 1);
  sim.reset(rng_for_test());
  EXPECT_EQ(sim.marking().get(b), 0);
  EXPECT_EQ(sim.marking().get(a), 1);
  EXPECT_EQ(sim.total_firings(), 0u);
  sim.run();
  EXPECT_EQ(sim.marking().get(b), 1);
}

// A gate that assigns the whole marking bypasses set() and add() per
// place; the journal must still see the places it changed.
TEST(SanSimulatorTest, GateAssigningTheWholeMarkingRefreshesDependents) {
  SanModel m;
  const PlaceId a = m.place("a", 1);
  const PlaceId b = m.place("b");
  const PlaceId done = m.place("done");
  Marking handoff = m.initial_marking();
  handoff.set(a, 0);
  handoff.set(b, 1);
  const auto assign = m.output_gate("assign", [handoff](Marking& mk) { mk = handoff; });
  m.timed_activity("t", Distribution::deterministic_ms(1)).in(a).out_gate(assign);
  const auto u = m.timed_activity("u", Distribution::deterministic_ms(1)).in(b).out(done);
  SanSimulator sim{m, rng_for_test()};
  EXPECT_EQ(sim.run().reason, StopReason::kDeadlock);
  EXPECT_EQ(sim.fire_count(u.id()), 1u);
  EXPECT_EQ(sim.marking().get(done), 1);
}

TEST(SanSimulatorTest, DeterministicGivenSeed) {
  SanModel m;
  const PlaceId a = m.place("a", 1);
  const PlaceId b = m.place("b");
  m.timed_activity("t", Distribution::uniform_ms(1, 5)).in(a).out(b).out(a);
  SanSimulator s1{m, des::RandomEngine{9}};
  SanSimulator s2{m, des::RandomEngine{9}};
  s1.set_stop_predicate([b](const Marking& mk) { return mk.get(b) >= 50; });
  s2.set_stop_predicate([b](const Marking& mk) { return mk.get(b) >= 50; });
  EXPECT_EQ(s1.run().end_time, s2.run().end_time);
}

// A single-server queue built from grab/serve pairs: utilisation and token
// conservation sanity-check of the resource idiom used by the transport
// chains.
TEST(SanSimulatorTest, ResourceGrabServeMutualExclusion) {
  SanModel m;
  const PlaceId jobs = m.place("jobs", 5);
  const PlaceId server = m.place("server", 1);
  const PlaceId busy = m.place("busy");
  const PlaceId done = m.place("done");
  m.instant_activity("grab").in(jobs).in(server).out(busy);
  m.timed_activity("serve", Distribution::deterministic_ms(2)).in(busy).out(done).out(server);
  SanSimulator sim{m, rng_for_test()};
  // busy can never exceed 1: the server place enforces mutual exclusion.
  sim.set_fire_hook([&](ActivityId, des::TimePoint) {
    EXPECT_LE(sim.marking().get(busy), 1);
  });
  const auto res = sim.run();
  EXPECT_EQ(sim.marking().get(done), 5);
  EXPECT_EQ(sim.marking().get(server), 1);
  // 5 jobs serialised at 2 ms each.
  EXPECT_EQ(res.end_time, des::TimePoint::origin() + des::Duration::from_ms(10));
}

// --------------------------------------------------------------------------
// Full-rescan reference
// --------------------------------------------------------------------------

struct Firing {
  ActivityId activity;
  des::TimePoint at;
  friend bool operator==(const Firing&, const Firing&) = default;
};

/// SanSimulator's semantics with the sensitivity lists switched off: after
/// every firing each activity is re-evaluated in ascending id order, and the
/// instantaneous candidates come from a scan of every activity. Refreshing an
/// activity whose enabling did not change draws nothing, so this fires the
/// same activities at the same instants as the simulator.
class RescanReference {
 public:
  RescanReference(const SanModel& model, std::uint64_t seed)
      : model_{model}, rng_{seed}, marking_{model.initial_marking()},
        enabled_(model.activity_count(), false) {}

  void run(des::TimePoint deadline, std::size_t max_firings) {
    max_firings_ = max_firings;
    refresh_all();
    settle();
    while (firings.size() < max_firings_ && !pending_.empty()) {
      const auto next = std::min_element(pending_.begin(), pending_.end(), [](auto& x, auto& y) {
        return std::tie(x.at, x.seq) < std::tie(y.at, y.seq);
      });
      if (next->at > deadline) return;
      now_ = next->at;
      const ActivityId a = next->activity;
      pending_.erase(next);
      fire(a);
      settle();
    }
  }

  std::vector<Firing> firings;
  std::size_t choices = 0;  ///< instantaneous picks among several candidates
  [[nodiscard]] const Marking& marking() const { return marking_; }

 private:
  struct Pending {
    des::TimePoint at;
    std::uint64_t seq;
    ActivityId activity;
  };

  [[nodiscard]] bool enabled(const Activity& act) const {
    for (const PlaceId p : act.input_places) {
      if (marking_.get(p) < std::count(act.input_places.begin(), act.input_places.end(), p)) {
        return false;
      }
    }
    return std::all_of(act.input_gates.begin(), act.input_gates.end(),
                       [&](InputGateId g) { return model_.in_gate(g).enabled(marking_); });
  }

  void refresh_all() {
    for (ActivityId a = 0; a < model_.activity_count(); ++a) {
      const Activity& act = model_.activity(a);
      const bool en = enabled(act);
      if (en == enabled_[a]) continue;
      enabled_[a] = en;
      if (!act.timed) continue;
      if (en) {
        pending_.push_back({now_ + act.delay.sample(rng_), seq_++, a});
      } else {
        std::erase_if(pending_, [a](const Pending& p) { return p.activity == a; });
      }
    }
  }

  void settle() {
    while (firings.size() < max_firings_) {
      std::vector<ActivityId> ids;
      std::vector<double> weights;
      for (ActivityId a = 0; a < model_.activity_count(); ++a) {
        if (!enabled_[a] || model_.activity(a).timed) continue;
        ids.push_back(a);
        weights.push_back(model_.activity(a).weight);
      }
      if (ids.empty()) return;
      if (ids.size() > 1) ++choices;
      fire(ids.size() == 1 ? ids.front() : ids[rng_.categorical(weights)]);
    }
  }

  void fire(ActivityId a) {
    const Activity& act = model_.activity(a);
    for (const PlaceId p : act.input_places) marking_.add(p, -1);
    for (const InputGateId g : act.input_gates) {
      if (model_.in_gate(g).fire) model_.in_gate(g).fire(marking_);
    }
    const Case* chosen = &act.cases.front();
    if (act.cases.size() > 1) {
      std::vector<double> probs;
      for (const Case& c : act.cases) probs.push_back(c.probability);
      chosen = &act.cases[rng_.categorical(probs)];
    }
    for (const PlaceId p : chosen->output_places) marking_.add(p, 1);
    for (const OutputGateId g : chosen->output_gates) model_.out_gate(g).fire(marking_);
    firings.push_back({a, now_});
    enabled_[a] = false;  // the activation is spent
    refresh_all();
  }

  const SanModel& model_;
  des::RandomEngine rng_;
  Marking marking_;
  des::TimePoint now_ = des::TimePoint::origin();
  std::vector<bool> enabled_;
  std::vector<Pending> pending_;
  std::uint64_t seq_ = 0;
  std::size_t max_firings_ = 0;
};

/// A random small SAN: 17 to 47 places (never a multiple of 16), repeated
/// input arcs, input gates whose function writes a place and restores it,
/// output gates that write arbitrary places, instantaneous activities with
/// distinct weights, and zero-delay timed activities.
SanModel random_san(des::RandomEngine& g) {
  SanModel m;
  const auto places = static_cast<PlaceId>(16 * g.uniform_int(1, 2) + g.uniform_int(1, 15));
  for (PlaceId p = 0; p < places; ++p) {
    m.place("p" + std::to_string(p), static_cast<std::int32_t>(g.uniform_int(0, 2)));
  }
  auto any_place = [&] { return static_cast<PlaceId>(g.uniform_int(0, places - 1)); };

  std::vector<InputGateId> in_gates;
  for (int i = 0; i < 6; ++i) {
    const PlaceId r = any_place();
    const PlaceId q = any_place();
    const auto k = static_cast<std::int32_t>(g.uniform_int(1, 2));
    std::function<void(Marking&)> fire;
    switch (g.uniform_int(0, 2)) {
      case 0:  // writes a place and restores it: no net change
        fire = [q](Marking& mk) {
          const std::int32_t v = mk.get(q);
          mk.set(q, v + 7);
          mk.set(q, v);
        };
        break;
      case 1:
        fire = [q](Marking& mk) { mk.add(q, 1); };
        break;
      default:
        break;
    }
    in_gates.push_back(m.input_gate(
        "ig" + std::to_string(i), {r}, [r, k](const Marking& mk) { return mk.get(r) < k; },
        std::move(fire)));
  }
  std::vector<OutputGateId> out_gates;
  for (int i = 0; i < 4; ++i) {
    const PlaceId q = any_place();
    out_gates.push_back(m.output_gate("og" + std::to_string(i), [q](Marking& mk) {
      mk.set(q, (mk.get(q) + 2) % 3);
    }));
  }

  const auto activities = g.uniform_int(8, 30);
  for (std::int64_t i = 0; i < activities; ++i) {
    const std::string name = "a" + std::to_string(i);
    const bool instantaneous = g.bernoulli(0.35);
    ActivityRef act = instantaneous
        ? m.instant_activity(name, 0.5 + 0.25 * static_cast<double>(i))
        : m.timed_activity(name, std::array{Distribution::deterministic_ms(0),
                                            Distribution::deterministic_ms(1),
                                            Distribution::exponential_ms(1),
                                            Distribution::uniform_ms(0.5, 2)}[g.uniform_int(0, 3)]);
    const auto arcs = g.uniform_int(0, 3);
    PlaceId last = any_place();
    for (std::int64_t j = 0; j < arcs; ++j) {
      if (!g.bernoulli(0.3)) last = any_place();  // else repeat the previous arc
      act.in(last);
    }
    const auto gates = g.uniform_int(arcs == 0 ? 1 : 0, 2);
    for (std::int64_t j = 0; j < gates; ++j) act.in_gate(in_gates[g.uniform_int(0, 5)]);
    const auto cases = g.uniform_int(1, 3);
    for (std::int64_t c = 0; c < cases; ++c) {
      if (cases > 1) act.case_prob(cases == 2 ? 0.5 : (c == 0 ? 0.5 : 0.25));
      // case_prob() reuses an empty first case, so a split's cases are never empty.
      for (std::int64_t j = g.uniform_int(cases > 1 ? 1 : 0, 2); j > 0; --j) act.out(any_place());
      if (g.bernoulli(0.3)) act.out_gate(out_gates[g.uniform_int(0, 3)]);
    }
  }
  return m;
}

TEST(SanSimulatorTest, MatchesFullRescanReferenceOnRandomModels) {
  constexpr std::size_t kMaxFirings = 400;
  const auto limit = des::Duration::from_ms(40);
  des::RandomEngine gen{20260601};
  std::size_t firings = 0;
  std::size_t choices = 0;
  for (std::uint64_t model_index = 0; model_index < 250; ++model_index) {
    const SanModel model = random_san(gen);
    RescanReference ref{model, model_index};
    ref.run(des::TimePoint::origin() + limit, kMaxFirings);

    std::vector<Firing> got;
    SanSimulator sim{model, des::RandomEngine{model_index}};
    sim.set_fire_hook([&](ActivityId a, des::TimePoint at) { got.push_back({a, at}); });
    sim.set_stop_predicate([&](const Marking&) { return got.size() >= kMaxFirings; });
    sim.run(limit);

    ASSERT_EQ(got, ref.firings) << "model " << model_index;
    ASSERT_EQ(sim.marking(), ref.marking()) << "model " << model_index;
    firings += got.size();
    choices += ref.choices;
  }
  // The models must exercise the paths the comparison is about.
  EXPECT_GT(firings, 10'000u);
  EXPECT_GT(choices, 100u);
}

// A gate that throws mid-firing leaves the marking without a journal, and
// reset() forgets what the interrupted firing recorded. The throw comes
// when the counter n goes 1 -> 2; had reset() kept that record, the first
// firing after it (n 0 -> 1) would read as "n unchanged" and never enable
// `seen`.
TEST(SanSimulatorTest, GateThrowingMidFiringLeavesNoJournal) {
  SanModel m;
  const PlaceId a = m.place("a", 1);
  const PlaceId b = m.place("b");
  const PlaceId n = m.place("n");
  const PlaceId seen = m.place("seen");
  bool armed = true;
  const auto boom = m.output_gate("boom", [&armed, n](Marking& mk) {
    if (armed && mk.get(n) == 2) throw std::runtime_error{"boom"};
  });
  m.timed_activity("t", Distribution::exponential_ms(1)).in(a).out(b).out(n).out_gate(boom);
  m.timed_activity("u", Distribution::exponential_ms(1)).in(b).out(a);
  const auto first = m.input_gate("first", {n, seen}, [n, seen](const Marking& mk) {
    return mk.get(n) >= 1 && mk.get(seen) == 0;
  });
  m.instant_activity("see").in_gate(first).out(seen);

  std::vector<Firing> got;
  SanSimulator sim{m, des::RandomEngine{3}};
  sim.set_fire_hook([&got](ActivityId act, des::TimePoint at) { got.push_back({act, at}); });
  EXPECT_THROW((void)sim.run(), std::runtime_error);
  EXPECT_FALSE(sim.marking().journaled());

  armed = false;
  const auto limit = des::Duration::from_ms(50);
  got.clear();
  sim.reset(des::RandomEngine{3});
  sim.run(limit);
  std::vector<Firing> want;
  SanSimulator fresh{m, des::RandomEngine{3}};
  fresh.set_fire_hook([&want](ActivityId act, des::TimePoint at) { want.push_back({act, at}); });
  fresh.run(limit);
  EXPECT_GT(want.size(), 20u);
  EXPECT_EQ(got, want);
  EXPECT_EQ(sim.marking(), fresh.marking());
}

// --------------------------------------------------------------------------
// Composition helpers
// --------------------------------------------------------------------------

TEST(ComposeTest, ScopeQualifiesNames) {
  SanModel m;
  const Scope scope{m, "P1"};
  const PlaceId p = scope.place("state", 1);
  EXPECT_EQ(m.place_name(p), "P1.state");
  EXPECT_EQ(scope.find_place("state"), p);
  const Scope child = scope.sub("A");
  child.place("x");
  EXPECT_TRUE(m.has_place("P1.A.x"));
}

TEST(ComposeTest, RepBuildsDisjointReplicasSharingPlaces) {
  SanModel m;
  const PlaceId shared = m.place("shared", 0);
  rep(m, "R", 3, [shared](const Scope& scope, std::size_t) {
    const PlaceId local = scope.place("tok", 1);
    scope.instant_activity("fire").in(local).out(shared);
  });
  m.validate();
  EXPECT_TRUE(m.has_place("R[0].tok"));
  EXPECT_TRUE(m.has_place("R[2].tok"));
  SanSimulator sim{m, rng_for_test()};
  sim.run();
  EXPECT_EQ(sim.marking().get(shared), 3);  // JOIN via the shared place
}

TEST(ComposeTest, JoinRunsEveryPart) {
  SanModel m;
  const PlaceId shared = m.place("bus", 1);
  join(m, {{"producer",
            [shared](const Scope& s) {
              const PlaceId p = s.place("go", 1);
              s.instant_activity("put").in(p).out(shared);
            }},
           {"consumer",
            [shared](const Scope& s) {
              const PlaceId sink = s.place("sink");
              s.instant_activity("take").in(shared).out(sink);
            }}});
  m.validate();
  EXPECT_TRUE(m.has_place("producer.go"));
  EXPECT_TRUE(m.has_place("consumer.sink"));
}

// --------------------------------------------------------------------------
// Transient studies
// --------------------------------------------------------------------------

TEST(TransientStudyTest, TimeToAbsorptionMeanAndCi) {
  SanModel m;
  const PlaceId a = m.place("a", 1);
  const PlaceId b = m.place("b");
  m.timed_activity("t", Distribution::uniform_ms(2, 4)).in(a).out(b);
  TransientStudy study{m, [b](const Marking& mk) { return mk.get(b) > 0; }};
  const auto result = study.run(2000, 4242);
  EXPECT_EQ(result.rewards.size(), 2000u);
  EXPECT_NEAR(result.summary.mean(), 3.0, 0.05);
  EXPECT_TRUE(result.ci.contains(result.summary.mean()));
  EXPECT_EQ(result.dropped, 0u);
  EXPECT_GT(result.ci.half_width, 0.0);
}

TEST(TransientStudyTest, ReproducibleForSameSeed) {
  SanModel m;
  const PlaceId a = m.place("a", 1);
  const PlaceId b = m.place("b");
  m.timed_activity("t", Distribution::exponential_ms(1)).in(a).out(b);
  TransientStudy study{m, [b](const Marking& mk) { return mk.get(b) > 0; }};
  const auto r1 = study.run(100, 1);
  const auto r2 = study.run(100, 1);
  EXPECT_EQ(r1.rewards, r2.rewards);
  const auto r3 = study.run(100, 2);
  EXPECT_NE(r1.rewards, r3.rewards);
}

TEST(TransientStudyTest, DropsRunsThatNeverStop) {
  SanModel m;
  const PlaceId a = m.place("a", 1);
  const PlaceId b = m.place("b");
  // Fires into an absorbing place that never satisfies the predicate.
  m.timed_activity("t", Distribution::deterministic_ms(1)).in(a).out(b);
  const PlaceId never = m.place("never");
  TransientStudy study{m, [never](const Marking& mk) { return mk.get(never) > 0; }};
  study.set_time_limit(des::Duration::from_ms(10));
  const auto result = study.run(50, 3);
  EXPECT_EQ(result.dropped, 50u);
  EXPECT_TRUE(result.rewards.empty());
}

}  // namespace
}  // namespace sanperf::san
