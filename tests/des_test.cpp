// Unit and property tests for the discrete-event kernel.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <random>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "des/event_queue.hpp"
#include "des/random.hpp"
#include "des/simulator.hpp"
#include "des/time.hpp"

namespace sanperf::des {
namespace {

TEST(DurationTest, ConversionRoundTrips) {
  EXPECT_EQ(Duration::millis(3).ns(), 3'000'000);
  EXPECT_EQ(Duration::micros(5).ns(), 5'000);
  EXPECT_EQ(Duration::seconds(2).ns(), 2'000'000'000);
  EXPECT_DOUBLE_EQ(Duration::from_ms(0.025).to_ms(), 0.025);
  EXPECT_DOUBLE_EQ(Duration::from_seconds(1.5).to_seconds(), 1.5);
}

TEST(DurationTest, ArithmeticAndOrdering) {
  const auto a = Duration::millis(10);
  const auto b = Duration::millis(3);
  EXPECT_EQ((a + b).ns(), Duration::millis(13).ns());
  EXPECT_EQ((a - b).ns(), Duration::millis(7).ns());
  EXPECT_EQ((b * 4).ns(), Duration::millis(12).ns());
  EXPECT_LT(b, a);
  EXPECT_EQ(Duration::zero().ns(), 0);
}

TEST(DurationTest, FromMsRoundsToNearestNanosecond) {
  EXPECT_EQ(Duration::from_ms(0.0000001).ns(), 0);   // 0.1 ns rounds down
  EXPECT_EQ(Duration::from_ms(0.0000006).ns(), 1);   // 0.6 ns rounds up
}

TEST(TimePointTest, ArithmeticWithDurations) {
  const auto t = TimePoint::origin() + Duration::millis(5);
  EXPECT_EQ(t.ns(), 5'000'000);
  EXPECT_EQ((t + Duration::millis(2)).ns(), 7'000'000);
  EXPECT_EQ((t - TimePoint::origin()).ns(), 5'000'000);
  EXPECT_LT(TimePoint::origin(), t);
}

TEST(TimeRenderTest, AdaptiveUnits) {
  EXPECT_EQ(Duration::nanos(12).to_string(), "12ns");
  EXPECT_NE(Duration::micros(500).to_string().find("us"), std::string::npos);
  EXPECT_NE(Duration::millis(20).to_string().find("ms"), std::string::npos);
  EXPECT_NE(Duration::seconds(20).to_string().find("s"), std::string::npos);
}

TEST(EventQueueTest, OrdersByTime) {
  EventQueue q;
  std::vector<int> fired;
  q.push(TimePoint::origin() + Duration::millis(2), [&] { fired.push_back(2); });
  q.push(TimePoint::origin() + Duration::millis(1), [&] { fired.push_back(1); });
  q.push(TimePoint::origin() + Duration::millis(3), [&] { fired.push_back(3); });
  while (!q.empty()) q.pop().action();
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, TieBreaksByInsertionOrder) {
  EventQueue q;
  std::vector<int> fired;
  const auto t = TimePoint::origin() + Duration::millis(1);
  for (int i = 0; i < 10; ++i) {
    q.push(t, [&fired, i] { fired.push_back(i); });
  }
  while (!q.empty()) q.pop().action();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(fired[static_cast<std::size_t>(i)], i);
}

TEST(EventQueueTest, CancelRemovesEvent) {
  EventQueue q;
  bool fired = false;
  const EventId id = q.push(TimePoint::origin() + Duration::millis(1), [&] { fired = true; });
  EXPECT_TRUE(q.pending(id));
  EXPECT_TRUE(q.cancel(id));
  EXPECT_FALSE(q.pending(id));
  EXPECT_FALSE(q.cancel(id));  // double-cancel
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(fired);
}

TEST(EventQueueTest, CancelAfterPopFails) {
  EventQueue q;
  const EventId id = q.push(TimePoint::origin(), [] {});
  q.pop();
  EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueueTest, CancelledHeadDoesNotBlockNextTime) {
  EventQueue q;
  const EventId early = q.push(TimePoint::origin() + Duration::millis(1), [] {});
  q.push(TimePoint::origin() + Duration::millis(5), [] {});
  q.cancel(early);
  EXPECT_EQ(q.next_time(), TimePoint::origin() + Duration::millis(5));
  EXPECT_EQ(q.size(), 1u);
}

TEST(EventQueueTest, PopOnEmptyThrows) {
  EventQueue q;
  EXPECT_THROW(q.pop(), std::logic_error);
  EXPECT_THROW((void)q.next_time(), std::logic_error);
}

// Property: against a reference model (multimap ordered by time then
// insertion sequence), a random operation sequence yields identical pop
// order. The reference tracks its own insertion counter because EventIds
// encode recycled slots, not insertion order.
TEST(EventQueueTest, PropertyMatchesReferenceModel) {
  RandomEngine rng{42};
  EventQueue q;
  std::multimap<std::pair<std::int64_t, std::uint64_t>, std::pair<EventId, int>> reference;
  std::vector<EventId> live;
  std::uint64_t seq = 0;
  int payload = 0;
  std::vector<int> fired;

  for (int step = 0; step < 3000; ++step) {
    const double u = rng.uniform01();
    if (u < 0.55 || q.empty()) {
      const auto at = TimePoint::origin() + Duration::nanos(rng.uniform_int(0, 1000));
      const int tag = payload++;
      const EventId id = q.push(at, [&fired, tag] { fired.push_back(tag); });
      reference.emplace(std::make_pair(at.ns(), seq++), std::make_pair(id, tag));
      live.push_back(id);
    } else if (u < 0.75 && !live.empty()) {
      const auto idx = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(live.size()) - 1));
      const EventId id = live[idx];
      const bool cancelled = q.cancel(id);
      const auto it = std::find_if(reference.begin(), reference.end(),
                                   [id](const auto& kv) { return kv.second.first == id; });
      EXPECT_EQ(cancelled, it != reference.end());
      if (it != reference.end()) reference.erase(it);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(idx));
    } else {
      ASSERT_EQ(q.size(), reference.size());
      auto popped = q.pop();
      ASSERT_FALSE(reference.empty());
      popped.action();
      EXPECT_EQ(popped.id, reference.begin()->second.first);
      EXPECT_EQ(fired.back(), reference.begin()->second.second);
      reference.erase(reference.begin());
    }
  }
}

// --- Slot reuse and generation stamps ---------------------------------------

TEST(EventQueueTest, CancelledSlotIsReusedWithoutSlabGrowth) {
  EventQueue q;
  const EventId a = q.push(TimePoint::origin() + Duration::millis(1), [] {});
  ASSERT_TRUE(q.cancel(a));
  const std::size_t capacity = q.slot_capacity();
  // Steady-state churn: every push must recycle the freed slot.
  for (int i = 0; i < 100; ++i) {
    const EventId id = q.push(TimePoint::origin() + Duration::millis(1 + i), [] {});
    EXPECT_NE(id, a) << "recycled slot must carry a fresh generation";
    EXPECT_TRUE(q.cancel(id));
    EXPECT_EQ(q.slot_capacity(), capacity);
  }
}

TEST(EventQueueTest, StaleIdOnReusedSlotDoesNotCancelNewEvent) {
  EventQueue q;
  const EventId old_id = q.push(TimePoint::origin() + Duration::millis(1), [] {});
  q.pop();  // fires: the slot is released and recycled below
  bool fired = false;
  const EventId fresh = q.push(TimePoint::origin() + Duration::millis(2), [&] { fired = true; });
  // The stale handle aliases the same slot but an older generation.
  EXPECT_FALSE(q.pending(old_id));
  EXPECT_FALSE(q.cancel(old_id));
  EXPECT_TRUE(q.pending(fresh));
  q.pop().action();
  EXPECT_TRUE(fired);
}

TEST(EventQueueTest, CancelAfterFireViaRecycledSlotFails) {
  EventQueue q;
  std::vector<EventId> ids;
  for (int i = 0; i < 8; ++i) {
    ids.push_back(q.push(TimePoint::origin() + Duration::millis(i), [] {}));
  }
  while (!q.empty()) q.pop();
  // Refill: slots are recycled, every old handle must stay dead.
  for (int i = 0; i < 8; ++i) q.push(TimePoint::origin() + Duration::millis(i), [] {});
  for (const EventId id : ids) {
    EXPECT_FALSE(q.pending(id));
    EXPECT_FALSE(q.cancel(id));
  }
  EXPECT_EQ(q.size(), 8u);
}

TEST(EventQueueTest, ClearMidRunStalesAllIdsAndKeepsSlab) {
  EventQueue q;
  std::vector<EventId> ids;
  for (int i = 0; i < 16; ++i) {
    ids.push_back(q.push(TimePoint::origin() + Duration::millis(i), [] {}));
  }
  q.pop();  // mid-run: one already fired
  const std::size_t capacity = q.slot_capacity();
  q.clear();
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.slot_capacity(), capacity);
  for (const EventId id : ids) {
    EXPECT_FALSE(q.pending(id));
    EXPECT_FALSE(q.cancel(id));
  }
  // The queue keeps working after clear, reusing the retained slab.
  std::vector<int> order;
  q.push(TimePoint::origin() + Duration::millis(2), [&] { order.push_back(2); });
  q.push(TimePoint::origin() + Duration::millis(1), [&] { order.push_back(1); });
  EXPECT_EQ(q.slot_capacity(), capacity);
  while (!q.empty()) q.pop().action();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(EventQueueTest, CancelInMiddleOfHeapPreservesOrder) {
  // True O(log n) removal must keep the remaining pop order intact no
  // matter where in the heap the cancelled entry sits.
  for (int victim = 0; victim < 12; ++victim) {
    EventQueue q;
    std::vector<EventId> ids;
    std::vector<int> fired;
    for (int i = 0; i < 12; ++i) {
      ids.push_back(
          q.push(TimePoint::origin() + Duration::millis(11 - i), [&fired, i] { fired.push_back(i); }));
    }
    ASSERT_TRUE(q.cancel(ids[static_cast<std::size_t>(victim)]));
    while (!q.empty()) q.pop().action();
    ASSERT_EQ(fired.size(), 11u);
    for (std::size_t k = 1; k < fired.size(); ++k) EXPECT_LT(fired[k], fired[k - 1]);
    for (const int f : fired) EXPECT_NE(f, victim);
  }
}

// --- EventAction storage ----------------------------------------------------

// Every callable lives in EventAction's inline buffer. One that is too big,
// or whose move may throw (a slot could not relocate it), must not convert
// at all: there is no heap-held fallback.
TEST(EventActionTest, OnlyInlineNothrowMovableClosuresConvert) {
  std::array<unsigned char, 56> bytes{};
  bytes.fill(3);
  int sum = 0;
  auto at_limit = [bytes, &sum] {
    for (const unsigned char b : bytes) sum += b;
  };
  std::array<unsigned char, 72> big{};
  auto oversized = [big] { static_cast<void>(big); };
  const std::vector<std::int64_t> payload{1, 2};
  auto const_copy = [payload] { static_cast<void>(payload); };  // holds a const vector
  auto fresh_copy = [payload = std::vector<std::int64_t>{payload}] { static_cast<void>(payload); };

  static_assert(sizeof(at_limit) == EventAction::kInlineBytes);
  static_assert(std::is_nothrow_move_constructible_v<decltype(at_limit)>);
  static_assert(std::is_constructible_v<EventAction, decltype(at_limit)>);
  static_assert(sizeof(oversized) == 72);
  static_assert(!std::is_constructible_v<EventAction, decltype(oversized)>);
  static_assert(!std::is_nothrow_move_constructible_v<decltype(const_copy)>);
  static_assert(!std::is_constructible_v<EventAction, decltype(const_copy)>);
  static_assert(std::is_constructible_v<EventAction, decltype(fresh_copy)>);

  // A closure at the size limit survives relocation intact.
  EventAction first{at_limit};
  EventAction second{std::move(first)};
  second();
  EXPECT_EQ(sum, 3 * 56);
}

TEST(SimulatorTest, ClockAdvancesToEventTimes) {
  Simulator sim;
  std::vector<std::int64_t> times;
  sim.schedule(Duration::millis(5), [&] { times.push_back(sim.now().ns()); });
  sim.schedule(Duration::millis(1), [&] { times.push_back(sim.now().ns()); });
  sim.run();
  EXPECT_EQ(times, (std::vector<std::int64_t>{1'000'000, 5'000'000}));
  EXPECT_EQ(sim.events_processed(), 2u);
}

TEST(SimulatorTest, NestedSchedulingFromHandlers) {
  Simulator sim;
  int count = 0;
  std::function<void()> chain = [&] {
    if (++count < 5) sim.schedule(Duration::millis(1), chain);
  };
  sim.schedule(Duration::millis(1), chain);
  sim.run();
  EXPECT_EQ(count, 5);
  EXPECT_EQ(sim.now(), TimePoint::origin() + Duration::millis(5));
}

TEST(SimulatorTest, NegativeDelayRejected) {
  Simulator sim;
  EXPECT_THROW(sim.schedule(Duration::millis(-1), [] {}), std::invalid_argument);
}

TEST(SimulatorTest, ScheduleInPastRejected) {
  Simulator sim;
  sim.schedule(Duration::millis(2), [] {});
  sim.run();
  EXPECT_THROW(sim.schedule_at(TimePoint::origin() + Duration::millis(1), [] {}),
               std::invalid_argument);
}

TEST(SimulatorTest, RunUntilStopsAtDeadline) {
  Simulator sim;
  int fired = 0;
  sim.schedule(Duration::millis(1), [&] { ++fired; });
  sim.schedule(Duration::millis(10), [&] { ++fired; });
  sim.run_until(TimePoint::origin() + Duration::millis(5));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), TimePoint::origin() + Duration::millis(5));
  EXPECT_EQ(sim.queue_size(), 1u);
}

TEST(SimulatorTest, RunUntilExecutesEventsAtExactDeadline) {
  Simulator sim;
  int fired = 0;
  sim.schedule(Duration::millis(5), [&] { ++fired; });
  sim.run_until(TimePoint::origin() + Duration::millis(5));
  EXPECT_EQ(fired, 1);
}

TEST(SimulatorTest, StopInterruptsRun) {
  Simulator sim;
  int fired = 0;
  sim.schedule(Duration::millis(1), [&] {
    ++fired;
    sim.stop();
  });
  sim.schedule(Duration::millis(2), [&] { ++fired; });
  sim.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.queue_size(), 1u);
}

TEST(SimulatorTest, ResetClearsState) {
  Simulator sim;
  sim.schedule(Duration::millis(1), [] {});
  sim.run();
  sim.schedule(Duration::millis(1), [] {});
  sim.reset();
  EXPECT_TRUE(sim.queue_empty());
  EXPECT_EQ(sim.now(), TimePoint::origin());
  EXPECT_EQ(sim.events_processed(), 0u);
}

TEST(SimulatorTest, CancelPreventsExecution) {
  Simulator sim;
  bool fired = false;
  const EventId id = sim.schedule(Duration::millis(1), [&] { fired = true; });
  EXPECT_TRUE(sim.cancel(id));
  sim.run();
  EXPECT_FALSE(fired);
}

TEST(RandomTest, DeterministicForSameSeed) {
  RandomEngine a{7};
  RandomEngine b{7};
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(RandomTest, DifferentSeedsDiffer) {
  RandomEngine a{7};
  RandomEngine b{8};
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += a.next_u64() == b.next_u64() ? 1 : 0;
  EXPECT_LT(equal, 5);
}

TEST(RandomTest, SubstreamsAreStableAndIndependent) {
  const RandomEngine root{99};
  RandomEngine s1 = root.substream("alpha", 0);
  RandomEngine s1b = root.substream("alpha", 0);
  RandomEngine s2 = root.substream("alpha", 1);
  RandomEngine s3 = root.substream("beta", 0);
  EXPECT_EQ(s1.next_u64(), s1b.next_u64());
  EXPECT_NE(s1.next_u64(), s2.next_u64());
  EXPECT_NE(s2.next_u64(), s3.next_u64());
}

// An engine computes each state word when a draw first needs it; none of
// that may show. 1,000 draws cross the end of the first seeded half (word
// 156), the first twist (312) and the second (624).
TEST(RandomTest, MatchesStdMt19937_64ForEverySeedAndDrawCount) {
  std::vector<std::uint64_t> seeds{0ULL, 1ULL, 99ULL, 20020612ULL, ~0ULL};
  for (std::uint64_t i = 0; seeds.size() < 1000; ++i) seeds.push_back(mix64(i));
  for (const std::uint64_t seed : seeds) {
    RandomEngine lazy{seed};
    std::mt19937_64 eager{mix64(seed)};
    for (int i = 0; i < 1000; ++i) ASSERT_EQ(lazy.next_u64(), eager()) << seed << " draw " << i;
  }
}

TEST(RandomTest, CopiesContinueLikeTheOriginal) {
  RandomEngine original{31};
  const RandomEngine before_first = original;
  std::vector<std::uint64_t> drawn;
  for (int i = 0; i < 10; ++i) drawn.push_back(original.next_u64());
  const RandomEngine after_tenth = original;
  for (int i = 0; i < 500; ++i) drawn.push_back(original.next_u64());

  RandomEngine fresh = before_first;
  for (const std::uint64_t x : drawn) ASSERT_EQ(fresh.next_u64(), x);
  RandomEngine resumed = after_tenth;
  for (std::size_t i = 10; i < drawn.size(); ++i) ASSERT_EQ(resumed.next_u64(), drawn[i]);
  // Assignment over an engine that has drawn behaves like a copy too.
  resumed = before_first;
  EXPECT_EQ(resumed.next_u64(), drawn.front());
}

// A copy holds only the words computed so far, so every offset into the
// state (seeded half, twisted prefix, second generation) is checked.
TEST(RandomTest, CopyAndAssignmentContinueAtEveryOffset) {
  constexpr int kOffsets = 624;
  constexpr int kAhead = 700;
  std::mt19937_64 reference{mix64(31)};
  std::vector<std::uint64_t> expected(kOffsets + kAhead);
  for (std::uint64_t& x : expected) x = reference();

  RandomEngine walker{31};
  for (int offset = 0; offset < kOffsets; ++offset) {
    RandomEngine copied{walker};
    RandomEngine assigned{7};
    for (int i = 0; i < offset % 4 * 100; ++i) (void)assigned.next_u64();  // drawn or not
    assigned = walker;
    RandomEngine& alias = assigned;
    assigned = alias;  // self-assignment keeps the state
    RandomEngine moved{std::move(copied)};
    for (int i = 0; i < kAhead; ++i) {
      const std::uint64_t want = expected[static_cast<std::size_t>(offset + i)];
      ASSERT_EQ(moved.next_u64(), want) << "copy at offset " << offset << " draw " << i;
      ASSERT_EQ(assigned.next_u64(), want) << "assignment at offset " << offset << " draw " << i;
    }
    ASSERT_EQ(walker.next_u64(), expected[static_cast<std::size_t>(offset)]);
  }

  // A drawn engine over an undrawn one, and back.
  RandomEngine undrawn{5};
  RandomEngine drawn{6};
  std::mt19937_64 six{mix64(6)};
  for (int i = 0; i < 400; ++i) ASSERT_EQ(drawn.next_u64(), six());
  RandomEngine target{5};
  target = drawn;
  for (int i = 0; i < 700; ++i) ASSERT_EQ(target.next_u64(), six()) << "draw " << i;
  target = undrawn;
  std::mt19937_64 five{mix64(5)};
  for (int i = 0; i < 700; ++i) ASSERT_EQ(target.next_u64(), five()) << "draw " << i;
}

// The distributions draw through the engine's result_type, min() and
// max(), so they consume exactly the words they consumed from
// std::mt19937_64.
TEST(RandomTest, DistributionsMatchAReferenceOnStdMt19937_64) {
  struct Reference {
    std::mt19937_64 gen;
    double uniform01() { return static_cast<double>(gen() >> 11) * 0x1.0p-53; }
    double exponential_mean(double mean) {
      double u = uniform01();
      if (u <= 0.0) u = 0x1.0p-53;
      return -mean * std::log(u);
    }
    std::size_t categorical(const std::vector<double>& weights) {
      double total = 0;
      for (const double w : weights) total += w;
      double x = uniform01() * total;
      for (std::size_t i = 0; i < weights.size(); ++i) {
        x -= weights[i];
        if (x < 0) return i;
      }
      return weights.size() - 1;
    }
  };
  const std::vector<double> weights{0.5, 0.0, 2.0, 1e-3, 7.25};
  const std::int64_t lo = std::numeric_limits<std::int64_t>::min();
  const std::int64_t hi = std::numeric_limits<std::int64_t>::max();
  for (const std::uint64_t seed : {3ULL, 4242ULL, 20020612ULL}) {
    RandomEngine rng{seed};
    Reference ref{std::mt19937_64{mix64(seed)}};
    for (int i = 0; i < 2000; ++i) {
      using Ints = std::uniform_int_distribution<std::int64_t>;
      ASSERT_EQ(rng.uniform_int(0, 4), (Ints{0, 4}(ref.gen)));
      ASSERT_EQ(rng.uniform_int(-7, 1'000'000'007), (Ints{-7, 1'000'000'007}(ref.gen)));
      ASSERT_EQ(rng.uniform_int(lo, hi), (Ints{lo, hi}(ref.gen)));
      ASSERT_EQ(rng.normal(1.5, 0.25), (std::normal_distribution<double>{1.5, 0.25}(ref.gen)));
      ASSERT_EQ(rng.weibull(1.7, 3.0), (std::weibull_distribution<double>{1.7, 3.0}(ref.gen)));
      ASSERT_EQ(rng.exponential_mean(2.5), ref.exponential_mean(2.5));
      ASSERT_EQ(rng.categorical(weights), ref.categorical(weights)) << seed << " draw " << i;
      ASSERT_EQ(rng.uniform01(), ref.uniform01());
    }
  }
}

TEST(RandomTest, SubstreamSeedDoesNotDependOnDraws) {
  const RandomEngine untouched{57};
  RandomEngine drawn{57};
  for (int i = 0; i < 7; ++i) (void)drawn.next_u64();
  for (const std::uint64_t index : {0ULL, 1ULL, 4096ULL}) {
    EXPECT_EQ(untouched.substream("net", index).seed(), drawn.substream("net", index).seed());
    EXPECT_EQ(untouched.substream("net", index).next_u64(),
              drawn.substream("net", index).next_u64());
  }
}

TEST(RandomTest, UniformBounds) {
  RandomEngine rng{5};
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.uniform(2.0, 3.0);
    EXPECT_GE(x, 2.0);
    EXPECT_LT(x, 3.0);
  }
  EXPECT_THROW((void)rng.uniform(3.0, 2.0), std::invalid_argument);
}

TEST(RandomTest, UniformMeanCloseToCenter) {
  RandomEngine rng{6};
  double sum = 0;
  const int k = 100000;
  for (int i = 0; i < k; ++i) sum += rng.uniform(0.0, 1.0);
  EXPECT_NEAR(sum / k, 0.5, 0.01);
}

TEST(RandomTest, ExponentialMeanMatches) {
  RandomEngine rng{11};
  double sum = 0;
  const int k = 200000;
  for (int i = 0; i < k; ++i) sum += rng.exponential_mean(2.5);
  EXPECT_NEAR(sum / k, 2.5, 0.05);
  EXPECT_THROW((void)rng.exponential_mean(0.0), std::invalid_argument);
}

TEST(RandomTest, BernoulliFrequency) {
  RandomEngine rng{12};
  int hits = 0;
  const int k = 100000;
  for (int i = 0; i < k; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / k, 0.3, 0.01);
}

TEST(RandomTest, CategoricalProportions) {
  RandomEngine rng{13};
  const std::vector<double> w{1.0, 3.0, 6.0};
  std::vector<int> counts(3, 0);
  const int k = 100000;
  for (int i = 0; i < k; ++i) ++counts[rng.categorical(w)];
  EXPECT_NEAR(counts[0] / static_cast<double>(k), 0.1, 0.01);
  EXPECT_NEAR(counts[1] / static_cast<double>(k), 0.3, 0.01);
  EXPECT_NEAR(counts[2] / static_cast<double>(k), 0.6, 0.01);
  EXPECT_THROW((void)rng.categorical({}), std::invalid_argument);
  EXPECT_THROW((void)rng.categorical({0.0, 0.0}), std::invalid_argument);
  EXPECT_THROW((void)rng.categorical({1.0, -1.0}), std::invalid_argument);
}

// An infinite weight used to lose every draw (inf - inf is NaN), and a NaN
// weight was reported as a zero sum. A rejection names the weight.
TEST(RandomTest, CategoricalRejectsNonFiniteWeights) {
  RandomEngine rng{16};
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double big = std::numeric_limits<double>::max();
  const auto message = [&rng](const std::vector<double>& weights) -> std::string {
    try {
      (void)rng.categorical(weights);
    } catch (const std::invalid_argument& e) {
      return e.what();
    }
    return "accepted";
  };
  EXPECT_EQ(message({inf, 1.0}), "categorical: weight 0 is not finite");
  EXPECT_EQ(message({1.0, -inf}), "categorical: weight 1 is not finite");
  EXPECT_EQ(message({1.0, 2.0, nan}), "categorical: weight 2 is not finite");
  EXPECT_EQ(message({1.0, -1.0}), "categorical: weight 1 is negative");
  EXPECT_EQ(message({big, big}), "categorical: weights sum to infinity");
  EXPECT_EQ(message({0.0, 0.0}), "categorical: weights sum to zero");
}

TEST(RandomTest, UniformIntCoversRangeInclusive) {
  RandomEngine rng{14};
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 10000; ++i) {
    const auto x = rng.uniform_int(1, 4);
    EXPECT_GE(x, 1);
    EXPECT_LE(x, 4);
    saw_lo = saw_lo || x == 1;
    saw_hi = saw_hi || x == 4;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RandomTest, WeibullShapeOneIsExponential) {
  RandomEngine rng{15};
  double sum = 0;
  const int k = 200000;
  for (int i = 0; i < k; ++i) sum += rng.weibull(1.0, 2.0);
  EXPECT_NEAR(sum / k, 2.0, 0.05);
}

}  // namespace
}  // namespace sanperf::des
