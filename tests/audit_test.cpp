// Negative tests for the SANPERF_AUDIT invariant layer: each test corrupts
// simulation state through a test-only backdoor and asserts that exactly
// the right invariant trips. A positive determinism test proves the hooks
// observe without perturbing (CI additionally diffs the quick goldens at
// --tol 0.0 against the audit build for cross-build bit-identicality).
// In audit-off builds the layer is compiled out and this suite SKIPs.
#include <gtest/gtest.h>

#include "core/audit.hpp"

#if SANPERF_AUDIT_ENABLED

#include <any>
#include <cstdint>
#include <map>
#include <string>
#include <type_traits>
#include <vector>

#include "consensus/ct_consensus.hpp"
#include "consensus/durable_log.hpp"
#include "consensus/instance_gc.hpp"
#include "consensus/mr_consensus.hpp"
#include "consensus/payload.hpp"
#include "des/simulator.hpp"
#include "fd/failure_detector.hpp"
#include "net/network.hpp"
#include "runtime/cluster.hpp"
#include "topo/topology.hpp"

namespace sanperf {
namespace {

using consensus::CtConsensus;
using consensus::MrConsensus;
using fd::StaticFd;
using runtime::Cluster;
using runtime::ClusterConfig;
using runtime::HostId;
using runtime::Message;
using runtime::MsgKind;

/// What the throwing handler reports back to the test.
struct AuditFailure {
  std::string invariant;
  std::string detail;
};

[[noreturn]] void throwing_handler(const audit::Violation& v) {
  throw AuditFailure{v.invariant, v.detail};
}

/// Installs the throwing handler for the test's lifetime so a tripped
/// invariant surfaces as a catchable exception instead of an abort.
class AuditTest : public ::testing::Test {
 protected:
  void SetUp() override { prev_ = audit::set_handler(&throwing_handler); }
  void TearDown() override { audit::set_handler(prev_); }

  /// Runs `fn` and returns the invariant name it tripped ("" if none).
  template <typename Fn>
  static std::string tripped(Fn&& fn) {
    try {
      fn();
    } catch (const AuditFailure& f) {
      return f.invariant;
    }
    return {};
  }

 private:
  audit::Handler prev_ = nullptr;
};

ClusterConfig tiny_config(std::size_t n, std::uint64_t seed) {
  ClusterConfig cfg;
  cfg.n = n;
  cfg.seed = seed;
  cfg.timers = net::TimerModel::ideal();
  return cfg;
}

/// Builds a StaticFd + `Layer` consensus stack on every process.
template <typename Layer>
void add_consensus_stack(Cluster& cluster) {
  for (HostId i = 0; i < static_cast<HostId>(cluster.n()); ++i) {
    auto& proc = cluster.process(i);
    auto& fd_layer = proc.add_layer<StaticFd>();
    proc.add_layer<Layer>(fd_layer);
  }
}

/// Proposes on every host and runs until all live hosts decided cid 0.
template <typename Layer>
void run_to_decision(Cluster& cluster) {
  const des::TimePoint t0 = des::TimePoint::origin() + des::Duration::from_ms(1.0);
  for (HostId i = 0; i < static_cast<HostId>(cluster.n()); ++i) {
    auto& proc = cluster.process(i);
    cluster.sim().schedule_at(t0, [&proc] {
      proc.layer<Layer>().propose(0, 100 + proc.id());
    });
  }
  cluster.run_until(des::TimePoint::origin() + des::Duration::from_ms(5000.0));
  for (HostId i = 0; i < static_cast<HostId>(cluster.n()); ++i) {
    ASSERT_TRUE(cluster.process(i).layer<Layer>().has_decided(0));
  }
}

// --- infrastructure ----------------------------------------------------------

TEST_F(AuditTest, ChecksRunGrowsDuringASimulation) {
  const std::uint64_t before = audit::checks_run();
  Cluster cluster{tiny_config(3, 7)};
  add_consensus_stack<CtConsensus>(cluster);
  run_to_decision<CtConsensus>(cluster);
  EXPECT_GT(audit::checks_run(), before);
}

TEST_F(AuditTest, AuditHooksDoNotPerturbTheRun) {
  // The checks are observers: two identical runs under the audit build must
  // produce bit-identical trajectories (the cross-build half of this
  // property is CI's --tol 0.0 golden diff against the audit binaries).
  auto decide_ms = [](std::uint64_t seed) {
    Cluster cluster{tiny_config(3, seed)};
    add_consensus_stack<CtConsensus>(cluster);
    double at = -1.0;
    cluster.process(0).layer<CtConsensus>().set_decide_callback(
        [&at](const consensus::DecisionEvent& ev) { at = ev.at.to_ms(); });
    const des::TimePoint t0 = des::TimePoint::origin() + des::Duration::from_ms(1.0);
    for (HostId i = 0; i < 3; ++i) {
      auto& proc = cluster.process(i);
      cluster.sim().schedule_at(t0, [&proc] {
        proc.layer<CtConsensus>().propose(0, 100 + proc.id());
      });
    }
    cluster.run_until(des::TimePoint::origin() + des::Duration::from_ms(5000.0));
    return at;
  };
  const double first = decide_ms(11);
  EXPECT_GT(first, 0.0);
  EXPECT_EQ(first, decide_ms(11));
}

// --- des/ --------------------------------------------------------------------

TEST_F(AuditTest, DeadGenerationSlotFireTrips) {
  des::EventQueue queue;
  bool ran = false;
  const des::EventId id =
      queue.push(des::TimePoint::origin() + des::Duration::from_ms(1.0), [&ran] { ran = true; });
  queue.audit_corrupt_kill_slot(id);  // stale generation, still heap-resident
  EXPECT_EQ(tripped([&] { queue.pop(); }), "des.no_dead_slot_fire");
  EXPECT_FALSE(ran);
}

TEST_F(AuditTest, BrokenHeapBackReferenceTrips) {
  des::EventQueue queue;
  for (int i = 0; i < 4; ++i) {
    queue.push(des::TimePoint::origin() + des::Duration::from_ms(i), [] {});
  }
  const des::EventId id =
      queue.push(des::TimePoint::origin() + des::Duration::from_ms(9.0), [] {});
  EXPECT_EQ(tripped([&] { queue.audit_check_heap(); }), "");  // consistent before
  queue.audit_corrupt_heap_pos(id);
  EXPECT_EQ(tripped([&] { queue.audit_check_heap(); }), "des.heap_index_consistency");
}

TEST_F(AuditTest, UnsortedDeadlineLaneTrips) {
  des::EventQueue queue;
  const auto at = [](double ms) { return des::TimePoint::origin() + des::Duration::from_ms(ms); };
  queue.push(at(3.0), [] {});
  queue.push_deadline(at(10.0), [] {});
  const des::EventId waiting = queue.push_deadline(at(20.0), [] {});
  queue.push_deadline(at(30.0), [] {});
  EXPECT_EQ(tripped([&] { queue.audit_check_heap(); }), "");  // consistent before
  // A waiting entry now falls due before the lane's front, which would let
  // it fire late, after events it should precede.
  queue.audit_corrupt_slot_time(waiting, at(5.0));
  EXPECT_EQ(tripped([&] { queue.audit_check_heap(); }), "des.heap_index_consistency");
}

TEST_F(AuditTest, SimulatedTimeRewindTrips) {
  des::Simulator sim;
  sim.schedule_at(des::TimePoint::origin() + des::Duration::from_ms(10.0), [] {});
  const des::EventId late =
      sim.schedule_at(des::TimePoint::origin() + des::Duration::from_ms(20.0), [] {});
  // Rewrite the later event's firing time behind the first WITHOUT
  // re-sifting: once the clock reaches 10 ms, the corrupted event fires in
  // the past.
  sim.audit_queue().audit_corrupt_slot_time(
      late, des::TimePoint::origin() + des::Duration::from_ms(5.0));
  EXPECT_EQ(tripped([&] {
              sim.run_until(des::TimePoint::origin() + des::Duration::from_ms(100.0));
            }),
            "des.monotonic_time");
}

// --- net/ --------------------------------------------------------------------

TEST_F(AuditTest, DeliveryToCrashedHostTrips) {
  des::Simulator sim;
  des::RandomEngine rng{42};
  net::ContentionNetwork network{sim, rng.substream("net"), net::NetworkParams::defaults(), 2};
  network.host_down(1);
  net::Packet pkt;
  pkt.src = 0;
  pkt.dst = 1;
  EXPECT_EQ(tripped([&] { network.audit_force_deliver(pkt); }), "net.no_delivery_to_crashed");
}

TEST_F(AuditTest, UnaccountedDeliveryTripsFrameConservation) {
  des::Simulator sim;
  des::RandomEngine rng{42};
  net::ContentionNetwork network{sim, rng.substream("net"), net::NetworkParams::defaults(), 2};
  EXPECT_EQ(tripped([&] { network.audit_check_frame_conservation(true); }), "");
  // A delivery that no send ever paid for: frames materialised from thin air.
  net::Packet pkt;
  pkt.src = 0;
  pkt.dst = 1;
  network.audit_force_deliver(pkt);
  EXPECT_EQ(tripped([&] { network.audit_check_frame_conservation(false); }),
            "net.frame_conservation");
}

TEST_F(AuditTest, PhantomLinkEntryTripsLinkConservation) {
  // Per-link entered/exited must reconcile at drain, on a routed access
  // edge and on the hub alike.
  const topo::Topology two_racks = topo::Topology::uniform(4, 2);
  for (const topo::Topology* topology : {&two_racks, static_cast<const topo::Topology*>(nullptr)}) {
    SCOPED_TRACE(topology != nullptr ? "routed" : "hub");
    des::Simulator sim;
    des::RandomEngine rng{42};
    net::ContentionNetwork network{sim, rng.substream("net"), net::NetworkParams::defaults(), 4,
                                   topology};
    ASSERT_EQ(network.route_table().link(0).type, topology != nullptr
                                                      ? topo::RouteTable::LinkType::kAccess
                                                      : topo::RouteTable::LinkType::kHub);
    // Real traffic reconciles.
    network.set_deliver([](const net::Packet&) {});
    network.broadcast(0, std::any{});
    sim.run();
    EXPECT_EQ(network.link_exited(0), 3u);
    EXPECT_EQ(tripped([&] { network.audit_check_frame_conservation(true); }), "");
    // A frame entered link 0 that no send ever routed (and never exits).
    network.audit_corrupt_link_entry(0);
    EXPECT_EQ(tripped([&] { network.audit_check_frame_conservation(true); }),
              "net.link_conservation");
  }
}

TEST_F(AuditTest, DeliveryAcrossPartitionedSwitchTrips) {
  // The injector's frame filter is supposed to drop every frame crossing
  // an open partition; an oracle that says "partitioned" while a frame
  // still reaches the receiver edge undropped is a filter bug.
  des::Simulator sim;
  des::RandomEngine rng{42};
  const topo::Topology topology = topo::Topology::uniform(4, 2);
  net::ContentionNetwork network{sim, rng.substream("net"), net::NetworkParams::defaults(), 4,
                                 &topology};
  network.set_deliver([](const net::Packet&) {});
  network.set_partition_oracle([](net::HostId, net::HostId) { return true; });
  network.send(0, 3, std::any{});  // cross-rack, and no filter drops it
  EXPECT_EQ(tripped([&] {
              sim.run_until(des::TimePoint::origin() + des::Duration::from_ms(100.0));
            }),
            "net.no_delivery_across_partition");
}

// --- runtime/ ----------------------------------------------------------------

TEST_F(AuditTest, EpochGuardSuppressesPrecrashTimers) {
  Cluster cluster{tiny_config(2, 3)};
  auto& proc = cluster.process(0);
  bool fired = false;
  proc.set_timer(des::Duration::from_ms(5.0), [&fired] { fired = true; });
  cluster.crash_at(0, des::TimePoint::origin() + des::Duration::from_ms(2.0));
  cluster.run_until(des::TimePoint::origin() + des::Duration::from_ms(10.0));
  EXPECT_FALSE(fired);
  EXPECT_EQ(proc.audit_timers_suppressed(), 1u);
}

TEST_F(AuditTest, UnguardedPrecrashTimerTrips) {
  Cluster cluster{tiny_config(2, 3)};
  auto& proc = cluster.process(0);
  // The backdoor arms the timer WITHOUT the epoch guard: the pre-crash
  // chain survives into the crashed process and the audit must catch it.
  proc.audit_arm_unguarded_timer(des::Duration::from_ms(5.0), [] {});
  cluster.crash_at(0, des::TimePoint::origin() + des::Duration::from_ms(2.0));
  EXPECT_EQ(tripped([&] {
              cluster.run_until(des::TimePoint::origin() + des::Duration::from_ms(10.0));
            }),
            "runtime.timer_epoch_guard");
}

// --- consensus/ --------------------------------------------------------------

// The lifecycle audits live in the shared ConsensusLayer; each runs against
// both protocols.
template <typename Layer>
class ConsensusAuditTest : public AuditTest {
 protected:
  /// A message kind only the protocol's own rounds use.
  static constexpr MsgKind kRoundKind =
      std::is_same_v<Layer, CtConsensus> ? MsgKind::kEstimate : MsgKind::kAux;
};

struct LayerName {
  template <typename Layer>
  static std::string GetName(int /*index*/) {
    return std::is_same_v<Layer, CtConsensus> ? "Ct" : "Mr";
  }
};

using ConsensusLayers = ::testing::Types<CtConsensus, MrConsensus>;
TYPED_TEST_SUITE(ConsensusAuditTest, ConsensusLayers, LayerName);

TYPED_TEST(ConsensusAuditTest, DoubleDecideTrips) {
  Cluster cluster{tiny_config(3, 5)};
  add_consensus_stack<TypeParam>(cluster);
  run_to_decision<TypeParam>(cluster);
  auto& cons = cluster.process(0).layer<TypeParam>();
  const std::vector<std::int64_t> decided = cons.decision_values(0);
  // Corrupt: host 0 forgets it decided, then a late DECIDE re-drives the
  // decide path for the same instance.
  cons.audit_corrupt_clear_decided(0);
  Message dec;
  dec.kind = MsgKind::kDecide;
  dec.cid = 0;
  dec.round = cons.rounds_used(0);
  dec.from = 1;
  consensus::detail::set_payload(dec, decided);
  EXPECT_EQ(TestFixture::tripped([&] { cons.on_message(dec); }), "consensus.no_double_decide");
}

TYPED_TEST(ConsensusAuditTest, ConflictingDecideTrips) {
  Cluster cluster{tiny_config(3, 5)};
  add_consensus_stack<TypeParam>(cluster);
  run_to_decision<TypeParam>(cluster);
  auto& cons = cluster.process(0).layer<TypeParam>();
  Message dec;
  dec.kind = MsgKind::kDecide;
  dec.cid = 0;
  dec.round = cons.rounds_used(0);
  dec.from = 1;
  consensus::detail::set_payload(dec, {999999});  // not what host 0 decided
  EXPECT_EQ(TestFixture::tripped([&] { cons.on_message(dec); }),
            "consensus.decision_agreement");
}

TYPED_TEST(ConsensusAuditTest, CrossEpochSenderTrips) {
  // Epoch 0 membership is {0, 1, 2}; host 3 exists in the cluster but is
  // not a member of the epoch the instance launched under, so its round
  // traffic must not be allowed into the instance's quorum.
  Cluster cluster{tiny_config(4, 9), {0, 1, 2}};
  add_consensus_stack<TypeParam>(cluster);
  auto& cons = cluster.process(0).layer<TypeParam>();
  Message msg;
  msg.kind = TestFixture::kRoundKind;
  msg.cid = 0;
  msg.round = 1;
  msg.from = 3;
  msg.view_epoch = 0;
  consensus::detail::set_payload(msg, {7});
  EXPECT_EQ(TestFixture::tripped([&] { cons.on_message(msg); }), "consensus.quorum_in_epoch");
}

TYPED_TEST(ConsensusAuditTest, CorruptedReplayTrips) {
  Cluster cluster{tiny_config(3, 5)};
  for (HostId i = 0; i < 3; ++i) {
    auto& proc = cluster.process(i);
    auto& fd_layer = proc.add_layer<StaticFd>();
    auto& cons = proc.add_layer<TypeParam>(fd_layer);
    cons.set_durable_log({.enabled = true, .append_latency_ms = 0.0});
  }
  run_to_decision<TypeParam>(cluster);
  auto& proc = cluster.process(0);
  proc.crash();  // snapshots the pre-crash state (instance 0 decided)
  // Corrupt the log between crash and replay: the restored decision no
  // longer matches what stood before the crash.
  proc.layer<TypeParam>().audit_mutable_log().state(0).decision = {424242};
  EXPECT_EQ(TestFixture::tripped([&] { proc.restart(); }), "consensus.replay_matches_precrash");
}

TEST_F(AuditTest, GcWatermarkRewindTrips) {
  consensus::detail::InstanceGc gc;
  gc.enable(true);
  std::map<std::int32_t, int> instances{{0, 0}, {1, 0}, {2, 0}};
  for (std::int32_t cid = 0; cid < 3; ++cid) gc.mark(cid);
  gc.sweep(instances);
  EXPECT_EQ(gc.floor(), 3);
  gc.audit_corrupt_floor(1);  // collected instances would resurrect as undecided
  gc.mark(3);
  EXPECT_EQ(tripped([&] { gc.sweep(instances); }), "consensus.gc_watermark_monotonic");
}

TEST_F(AuditTest, LogCompactionRewindTrips) {
  consensus::DurableLog log;
  log.configure({.enabled = true});
  for (std::int32_t cid = 0; cid < 6; ++cid) log.state(cid).started = true;
  log.compact(4);
  EXPECT_EQ(tripped([&] { log.compact(2); }), "consensus.gc_watermark_monotonic");
}

}  // namespace
}  // namespace sanperf

#else  // !SANPERF_AUDIT_ENABLED

TEST(AuditTest, CompiledOut) {
  GTEST_SKIP() << "audit layer compiled out; configure with -DSANPERF_AUDIT=ON";
}

#endif
