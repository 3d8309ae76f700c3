// Tests for the batching layer (consensus/batcher.hpp) and the two
// streamed-consensus bugfixes: the symmetric NTP start-offset draw and
// per-instance coordinator rotation surviving a host-0 crash without
// per-instance stalls.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <vector>

#include "consensus/batcher.hpp"
#include "consensus/ct_consensus.hpp"
#include "consensus/sequencer.hpp"
#include "core/workload.hpp"
#include "des/random.hpp"
#include "des/simulator.hpp"
#include "faults/plan.hpp"
#include "fd/failure_detector.hpp"
#include "runtime/cluster.hpp"

namespace {

using namespace sanperf;
using consensus::BatchedValue;
using consensus::Batcher;
using consensus::BatcherConfig;

struct Closed {
  std::vector<BatchedValue> batch;
  Batcher::CloseReason reason;
  des::TimePoint at;
};

struct Harness {
  des::Simulator sim;
  std::vector<Closed> closed;
  Batcher batcher;

  explicit Harness(BatcherConfig cfg)
      : batcher{sim, cfg, [this](std::vector<BatchedValue> b, Batcher::CloseReason r) {
                  closed.push_back({std::move(b), r, sim.now()});
                }} {}
};

// --------------------------------------------------------------------------
// Batcher formation
// --------------------------------------------------------------------------

TEST(BatcherTest, ClosesOnSizeSynchronously) {
  Harness h{{.max_batch = 3, .linger_ms = 50.0}};
  h.batcher.submit(10);
  h.batcher.submit(11);
  EXPECT_TRUE(h.closed.empty());  // below threshold: still lingering
  h.batcher.submit(12);
  ASSERT_EQ(h.closed.size(), 1u);  // closed inside submit, no event needed
  EXPECT_EQ(h.closed[0].reason, Batcher::CloseReason::kSize);
  ASSERT_EQ(h.closed[0].batch.size(), 3u);
  EXPECT_EQ(h.closed[0].batch[0].value, 10);
  EXPECT_EQ(h.closed[0].batch[2].value, 12);
  EXPECT_EQ(h.batcher.pending(), 0u);
}

TEST(BatcherTest, UnbatchedNeverTouchesTheEventQueue) {
  // max_batch = 1 is the degenerate bit-identicality contract: every value
  // closes synchronously and the simulator never sees an event.
  Harness h{{.max_batch = 1, .linger_ms = 25.0}};
  for (int v = 0; v < 5; ++v) h.batcher.submit(v);
  EXPECT_EQ(h.closed.size(), 5u);
  EXPECT_EQ(h.sim.queue_size(), 0u);
  EXPECT_EQ(h.sim.events_processed(), 0u);
  for (const auto& c : h.closed) {
    EXPECT_EQ(c.reason, Batcher::CloseReason::kSize);
    EXPECT_EQ(c.batch.size(), 1u);
  }
}

TEST(BatcherTest, LingerDeadlineClosesAPartialBatch) {
  Harness h{{.max_batch = 8, .linger_ms = 5.0}};
  h.batcher.submit(1);
  h.sim.schedule(des::Duration::from_ms(2.0), [&] { h.batcher.submit(2); });
  h.sim.run();
  ASSERT_EQ(h.closed.size(), 1u);
  EXPECT_EQ(h.closed[0].reason, Batcher::CloseReason::kLinger);
  ASSERT_EQ(h.closed[0].batch.size(), 2u);
  // The deadline runs from the batch's *first* value.
  EXPECT_DOUBLE_EQ((h.closed[0].at - des::TimePoint::origin()).to_ms(), 5.0);
  // Per-value submission times survive for queueing-delay attribution.
  EXPECT_DOUBLE_EQ((h.closed[0].batch[1].enqueued_at - des::TimePoint::origin()).to_ms(), 2.0);
}

TEST(BatcherTest, SizeCloseCancelsTheLingerTimer) {
  Harness h{{.max_batch = 2, .linger_ms = 5.0}};
  h.batcher.submit(1);
  h.batcher.submit(2);  // closes on size; the armed deadline must die
  h.sim.run();
  ASSERT_EQ(h.closed.size(), 1u);  // no ghost linger close on an empty batch
  EXPECT_EQ(h.closed[0].reason, Batcher::CloseReason::kSize);
}

TEST(BatcherTest, ZeroLingerGroupsSameInstantSubmissions) {
  // linger_ms = 0 still defers the close to the event queue, so values
  // submitted at one simulated instant share a batch instead of each
  // paying its own consensus instance.
  Harness h{{.max_batch = 100, .linger_ms = 0.0}};
  h.sim.schedule(des::Duration::from_ms(1.0), [&] {
    h.batcher.submit(7);
    h.batcher.submit(8);
    h.batcher.submit(9);
  });
  h.sim.run();
  ASSERT_EQ(h.closed.size(), 1u);
  EXPECT_EQ(h.closed[0].batch.size(), 3u);
  EXPECT_EQ(h.closed[0].reason, Batcher::CloseReason::kLinger);
  EXPECT_DOUBLE_EQ((h.closed[0].at - des::TimePoint::origin()).to_ms(), 1.0);
}

TEST(BatcherTest, FlushDrainsThePartialBatchAndDisarmsTheTimer) {
  Harness h{{.max_batch = 8, .linger_ms = 100.0}};
  h.batcher.submit(42);
  h.batcher.flush();
  ASSERT_EQ(h.closed.size(), 1u);
  EXPECT_EQ(h.closed[0].reason, Batcher::CloseReason::kFlush);
  h.batcher.flush();  // idempotent on an empty batch
  h.sim.run();        // the cancelled linger timer must not fire
  EXPECT_EQ(h.closed.size(), 1u);
}

TEST(BatcherTest, StatsCountValuesBatchesAndReasons) {
  Harness h{{.max_batch = 2, .linger_ms = 5.0}};
  h.batcher.submit(1);
  h.batcher.submit(2);                                               // size
  h.sim.schedule(des::Duration::from_ms(1.0), [&] { h.batcher.submit(3); });  // linger
  h.sim.run();
  h.batcher.submit(4);
  h.batcher.flush();  // flush
  const auto& s = h.batcher.stats();
  EXPECT_EQ(s.values, 4u);
  EXPECT_EQ(s.batches, 3u);
  EXPECT_EQ(s.closed_on_size, 1u);
  EXPECT_EQ(s.closed_on_linger, 1u);
  EXPECT_EQ(s.closed_on_flush, 1u);
}

// --------------------------------------------------------------------------
// Bugfix: symmetric NTP start offsets
// --------------------------------------------------------------------------

TEST(NtpSkewTest, OffsetsFillASymmetricWindowWithNoAtomAtZero) {
  // The historic draw was max(0, uniform(-w, +w)): half the probability
  // mass collapsed onto a point atom at zero. The fix realises the same
  // +-w window as w + uniform(-w, +w): support [0, 2w), mean w, and the
  // atom is gone.
  des::RandomEngine rng{12345};
  const double w = 0.05;
  const int kDraws = 4000;
  double sum = 0;
  int below_mid = 0;
  int exactly_zero = 0;
  for (int k = 0; k < kDraws; ++k) {
    const double off = consensus::draw_ntp_start_offset(rng, w).to_ms();
    ASSERT_GE(off, 0.0);
    ASSERT_LT(off, 2 * w);
    sum += off;
    if (off < w) ++below_mid;
    if (off == 0.0) ++exactly_zero;
  }
  EXPECT_EQ(exactly_zero, 0);  // the clamp's atom put ~2000 draws here
  EXPECT_NEAR(sum / kDraws, w, 0.1 * w);
  // Symmetric about the midpoint: about half the draws on each side.
  EXPECT_NEAR(static_cast<double>(below_mid) / kDraws, 0.5, 0.05);
}

// --------------------------------------------------------------------------
// Bugfix: per-instance coordinator rotation
// --------------------------------------------------------------------------

runtime::ClusterConfig ct_cluster_config(std::size_t n, std::uint64_t seed) {
  runtime::ClusterConfig cfg;
  cfg.n = n;
  cfg.seed = seed;
  cfg.timers = net::TimerModel::defaults();
  return cfg;
}

void add_ct_layers(runtime::Cluster& cluster) {
  for (runtime::HostId i = 0; i < static_cast<runtime::HostId>(cluster.n()); ++i) {
    auto& proc = cluster.process(i);
    auto& fd_layer = proc.add_layer<fd::StaticFd>();
    proc.add_layer<consensus::CtConsensus>(fd_layer);
  }
}

TEST(CoordinatorRotationTest, RoundOneCoordinatorFollowsCidModN) {
  // Instance cid = 1 on n = 3: the round-1 coordinator decides first (it
  // alone holds a majority of acks before the DECIDE broadcast travels).
  // With rotation that is host 1; pinned, host 0.
  for (const bool rotate : {false, true}) {
    runtime::Cluster cluster{ct_cluster_config(3, 99)};
    add_ct_layers(cluster);
    std::optional<runtime::HostId> first_decider;
    for (runtime::HostId i = 0; i < 3; ++i) {
      auto& cons = cluster.process(i).layer<consensus::CtConsensus>();
      cons.set_rotate_coordinators(rotate);
      cons.set_decide_callback([&first_decider](const consensus::DecisionEvent& ev) {
        if (!first_decider) first_decider = ev.by;
      });
    }
    cluster.run_until(des::TimePoint::origin());
    for (runtime::HostId i = 0; i < 3; ++i) {
      cluster.process(i).layer<consensus::CtConsensus>().propose(1, 100 + i);
    }
    cluster.run_until(des::TimePoint::origin() + des::Duration::from_ms(50));
    auto& cons0 = cluster.process(0).layer<consensus::CtConsensus>();
    EXPECT_TRUE(cons0.has_decided(1));
    EXPECT_EQ(cons0.rounds_used(1), 1);
    ASSERT_TRUE(first_decider.has_value());
    EXPECT_EQ(*first_decider, rotate ? 1u : 0u);
  }
}

TEST(CoordinatorRotationTest, RotatedStreamSurvivesHostZeroCrashWithoutStalls) {
  // A mid-stream host-0 crash under a live heartbeat detector. Pinned,
  // *every* instance launched before the suspicion lands stalls in phase 3
  // waiting for the dead coordinator; rotated, only the cid % 3 == 0 third
  // does, and the rest decide at the baseline latency.
  const auto run_stream = [](bool rotate) {
    core::WorkloadConfig cfg;
    cfg.n = 3;
    cfg.network = net::NetworkParams::defaults();
    cfg.timers = net::TimerModel::defaults();
    cfg.heartbeat_timeout_ms = 40.0;
    cfg.rotate_coordinators = rotate;
    cfg.seed = 2002;
    static const faults::FaultPlan plan{{faults::FaultPlan::crash(0, 60.0)}};
    cfg.fault_plan = &plan;
    core::WorkloadSpec spec;
    spec.arrivals = core::ArrivalProcess::kBurst;
    spec.separation_ms = 2.0;
    spec.warmup = 0;
    spec.measured = 90;
    return core::run_workload(cfg, spec);
  };
  const auto pinned = run_stream(false);
  const auto rotated = run_stream(true);
  ASSERT_EQ(pinned.stats.undecided, 0u);
  ASSERT_EQ(rotated.stats.undecided, 0u);
  const auto stalled = [](const core::WorkloadResult& r) {
    return static_cast<std::size_t>(
        std::count_if(r.instances.begin(), r.instances.end(),
                      [](const auto& rec) { return rec.decided() && *rec.latency_ms > 10.0; }));
  };
  // Detection-window stalls: rotation cuts them to roughly a third.
  EXPECT_GT(stalled(pinned), 0u);
  EXPECT_LT(2 * stalled(rotated), stalled(pinned));
  EXPECT_LT(rotated.stats.mean_latency_ms, pinned.stats.mean_latency_ms);
}

}  // namespace
