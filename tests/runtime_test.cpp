// Tests of the process runtime: layer dispatch, timers, broadcast order,
// crash-stop semantics, cluster wiring and the membership view.
#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "runtime/cluster.hpp"
#include "runtime/membership.hpp"
#include "runtime/message.hpp"
#include "runtime/process.hpp"

namespace sanperf::runtime {
namespace {

ClusterConfig test_config(std::size_t n, std::uint64_t seed = 1) {
  ClusterConfig cfg;
  cfg.n = n;
  cfg.seed = seed;
  cfg.timers = net::TimerModel::ideal();
  // Degenerate frame time for deterministic arithmetic in tests.
  cfg.network.wire_service = {1.0, 0.09, 0.09, 0.0, 0.0};
  cfg.network.pipeline_latency = {1.0, 0.0, 0.0, 0.0, 0.0};
  return cfg;
}

/// Records everything it sees; optionally echoes PING with PONG.
class RecorderLayer : public Layer {
 public:
  void on_message(const Message& m) override {
    received.push_back(m);
    if (m.kind == MsgKind::kPing && echo) {
      Message pong;
      pong.kind = MsgKind::kPong;
      pong.probe_id = m.probe_id;
      process().send(pong, m.from);
    }
  }
  void on_start() override { started = true; }
  void on_crash() override { crashed = true; }

  std::vector<Message> received;
  bool started = false;
  bool crashed = false;
  bool echo = false;
};

TEST(MessageTest, KindNamesAndFormat) {
  EXPECT_STREQ(to_string(MsgKind::kHeartbeat), "HEARTBEAT");
  EXPECT_STREQ(to_string(MsgKind::kDecide), "DECIDE");
  Message m;
  m.kind = MsgKind::kEstimate;
  m.from = 1;
  m.to = 2;
  m.round = 3;
  EXPECT_NE(m.to_string().find("ESTIMATE"), std::string::npos);
  EXPECT_NE(m.to_string().find("1->2"), std::string::npos);
}

TEST(ProcessTest, SendStampsAndDelivers) {
  Cluster cluster{test_config(2)};
  auto& r0 = cluster.process(0).add_layer<RecorderLayer>();
  auto& r1 = cluster.process(1).add_layer<RecorderLayer>();
  cluster.sim().schedule(des::Duration::from_ms(1), [&cluster] {
    Message m;
    m.kind = MsgKind::kApp;
    m.value = 42;
    cluster.process(0).send(m, 1);
  });
  cluster.run_until(des::TimePoint::origin() + des::Duration::from_ms(10));
  ASSERT_EQ(r1.received.size(), 1u);
  EXPECT_EQ(r1.received[0].value, 42);
  EXPECT_EQ(r1.received[0].from, 0u);
  EXPECT_EQ(r1.received[0].to, 1u);
  EXPECT_DOUBLE_EQ(r1.received[0].sent_at.to_ms(), 1.0);
  EXPECT_TRUE(r0.received.empty());
  EXPECT_TRUE(r0.started);
  EXPECT_EQ(cluster.process(0).messages_sent(), 1u);
  EXPECT_EQ(cluster.process(1).messages_received(), 1u);
}

TEST(ProcessTest, SelfSendRejected) {
  Cluster cluster{test_config(2)};
  cluster.process(0).add_layer<RecorderLayer>();
  cluster.run_until(des::TimePoint::origin());
  EXPECT_THROW(cluster.process(0).send(Message{}, 0), std::invalid_argument);
}

TEST(ProcessTest, BroadcastReachesAllOthersInIdOrder) {
  Cluster cluster{test_config(4)};
  std::vector<RecorderLayer*> recorders;
  for (HostId i = 0; i < 4; ++i) {
    recorders.push_back(&cluster.process(i).add_layer<RecorderLayer>());
  }
  cluster.sim().schedule(des::Duration::zero(), [&cluster] {
    Message m;
    m.kind = MsgKind::kApp;
    cluster.process(1).broadcast(m);
  });
  cluster.run_until(des::TimePoint::origin() + des::Duration::from_ms(10));
  EXPECT_TRUE(recorders[1]->received.empty());  // no self-delivery
  std::vector<double> arrivals;
  for (const HostId i : {0u, 2u, 3u}) {
    ASSERT_EQ(recorders[i]->received.size(), 1u);
    arrivals.push_back(recorders[i]->received[0].sent_at.to_ms());
  }
  // A broadcast is n-1 unicasts sent back to back; ascending-id frame order
  // means host 0's frame occupies the medium first.
  EXPECT_EQ(cluster.process(1).messages_sent(), 3u);
}

TEST(ProcessTest, BroadcastUnicastOrderIsAscendingByDeliveryTime) {
  Cluster cluster{test_config(4)};
  std::vector<RecorderLayer*> recorders;
  for (HostId i = 0; i < 4; ++i) {
    recorders.push_back(&cluster.process(i).add_layer<RecorderLayer>());
  }
  std::vector<std::pair<double, HostId>> deliveries;
  cluster.sim().schedule(des::Duration::zero(), [&cluster] {
    Message m;
    m.kind = MsgKind::kApp;
    cluster.process(0).broadcast(m);
  });
  cluster.run_until(des::TimePoint::origin() + des::Duration::from_ms(10));
  // With identical service times, destination 1 hears first, then 2, then 3.
  double prev = -1;
  for (const HostId i : {1u, 2u, 3u}) {
    ASSERT_EQ(recorders[i]->received.size(), 1u);
    // Delivery time == now when the recorder ran; infer from per-host stats.
    EXPECT_GT(cluster.process(i).messages_received(), 0u);
    (void)prev;
  }
}

TEST(ProcessTest, TimersFireAndCancel) {
  Cluster cluster{test_config(2)};
  cluster.process(0).add_layer<RecorderLayer>();
  int fired = 0;
  cluster.run_until(des::TimePoint::origin());  // start layers
  auto& p = cluster.process(0);
  p.set_timer(des::Duration::from_ms(1), [&] { ++fired; });
  const TimerId cancelled = p.set_timer(des::Duration::from_ms(2), [&] { ++fired; });
  p.cancel_timer(cancelled);
  cluster.run_until(des::TimePoint::origin() + des::Duration::from_ms(10));
  EXPECT_EQ(fired, 1);
}

TEST(ProcessTest, OsTimerQuantisedByTickModel) {
  ClusterConfig cfg = test_config(2);
  cfg.timers = net::TimerModel::ideal();
  cfg.timers.tick_ms = 10.0;
  Cluster cluster{cfg};
  cluster.process(0).add_layer<RecorderLayer>();
  double fired_at = -1;
  cluster.run_until(des::TimePoint::origin());
  cluster.process(0).set_os_timer(des::Duration::from_ms(3), [&] {
    fired_at = cluster.now().to_ms();
  });
  cluster.run_until(des::TimePoint::origin() + des::Duration::from_ms(50));
  EXPECT_DOUBLE_EQ(fired_at, 10.0);  // rounded up to the next tick
}

TEST(ProcessTest, CrashStopsDeliveryTimersAndSends) {
  Cluster cluster{test_config(3)};
  auto& r0 = cluster.process(0).add_layer<RecorderLayer>();
  auto& r1 = cluster.process(1).add_layer<RecorderLayer>();
  cluster.process(2).add_layer<RecorderLayer>();
  int timer_fired = 0;
  cluster.run_until(des::TimePoint::origin());
  cluster.process(1).set_timer(des::Duration::from_ms(5), [&] { ++timer_fired; });

  // In-flight message to 1, then crash 1 before it arrives.
  Message m;
  m.kind = MsgKind::kApp;
  cluster.process(0).send(m, 1);
  cluster.crash_at(1, des::TimePoint::origin() + des::Duration::from_ms(0.05));
  cluster.run_until(des::TimePoint::origin() + des::Duration::from_ms(20));

  EXPECT_TRUE(r1.crashed);
  EXPECT_TRUE(r1.received.empty());
  EXPECT_EQ(timer_fired, 0);
  EXPECT_TRUE(cluster.process(1).crashed());
  // The crashed process cannot send.
  cluster.process(1).send(m, 0);
  cluster.run_until(des::TimePoint::origin() + des::Duration::from_ms(40));
  EXPECT_TRUE(r0.received.empty());
}

TEST(ProcessTest, RestartRejoinsAndRunsOnRestartHooks) {
  Cluster cluster{test_config(2)};
  auto& r0 = cluster.process(0).add_layer<RecorderLayer>();
  struct RestartLayer : RecorderLayer {
    void on_restart() override { ++restarts; }
    int restarts = 0;
  };
  auto& r1 = cluster.process(1).add_layer<RestartLayer>();
  cluster.run_until(des::TimePoint::origin());

  cluster.crash_at(1, des::TimePoint::origin() + des::Duration::from_ms(1));
  cluster.recover_at(1, des::TimePoint::origin() + des::Duration::from_ms(5));
  cluster.run_until(des::TimePoint::origin() + des::Duration::from_ms(10));
  EXPECT_FALSE(cluster.process(1).crashed());
  EXPECT_EQ(r1.restarts, 1);

  // Traffic flows again in both directions after the warm restart.
  Message m;
  m.kind = MsgKind::kApp;
  cluster.process(0).send(m, 1);
  cluster.process(1).send(m, 0);
  cluster.run_until(des::TimePoint::origin() + des::Duration::from_ms(20));
  EXPECT_EQ(r1.received.size(), 1u);
  EXPECT_EQ(r0.received.size(), 1u);
  // Restarting a live process is a no-op.
  cluster.process(1).restart();
  EXPECT_EQ(r1.restarts, 1);
}

TEST(ProcessTest, PreCrashTimersStayDeadAcrossRestart) {
  // Regression for the warm-restart aliasing bug: a timer armed before the
  // crash must not fire after the recovery (it belongs to the dead epoch),
  // while timers armed after the restart work normally.
  Cluster cluster{test_config(2)};
  cluster.process(0).add_layer<RecorderLayer>();
  cluster.process(1).add_layer<RecorderLayer>();
  cluster.run_until(des::TimePoint::origin());

  int stale_fired = 0;
  int fresh_fired = 0;
  cluster.process(1).set_timer(des::Duration::from_ms(8), [&] { ++stale_fired; });
  cluster.process(1).set_os_timer(des::Duration::from_ms(9), [&] { ++stale_fired; });
  cluster.crash_at(1, des::TimePoint::origin() + des::Duration::from_ms(2));
  cluster.recover_at(1, des::TimePoint::origin() + des::Duration::from_ms(4));
  cluster.sim().schedule_at(des::TimePoint::origin() + des::Duration::from_ms(5), [&] {
    cluster.process(1).set_timer(des::Duration::from_ms(1), [&] { ++fresh_fired; });
  });
  cluster.run_until(des::TimePoint::origin() + des::Duration::from_ms(20));
  EXPECT_EQ(stale_fired, 0);  // both pre-crash timers died with their epoch
  EXPECT_EQ(fresh_fired, 1);
}

// Timers take any callable, move-only ones too, and still drop a firing
// whose epoch a crash ended.
TEST(ProcessTest, TimersTakeMoveOnlyCallablesBehindTheEpochGuard) {
  Cluster cluster{test_config(2)};
  cluster.process(0).add_layer<RecorderLayer>();
  cluster.process(1).add_layer<RecorderLayer>();
  cluster.run_until(des::TimePoint::origin());

  int fired = 0;
  auto arm = [&](Process& p, double ms) {
    p.set_timer(des::Duration::from_ms(ms),
                [&fired, token = std::make_unique<int>(1)] { fired += *token; });
    p.set_os_timer(des::Duration::from_ms(ms),
                   [&fired, token = std::make_unique<int>(10)] { fired += *token; });
  };
  arm(cluster.process(0), 5);
  arm(cluster.process(1), 5);
  cluster.crash_at(1, des::TimePoint::origin() + des::Duration::from_ms(2));
  cluster.run_until(des::TimePoint::origin() + des::Duration::from_ms(10));
  EXPECT_EQ(fired, 11);  // host 0's pair ran; host 1's died with its epoch
#if SANPERF_AUDIT_ENABLED
  EXPECT_EQ(cluster.process(1).audit_timers_suppressed(), 2u);
#endif
}

TEST(ProcessTest, LayerLookupByType) {
  Cluster cluster{test_config(2)};
  auto& rec = cluster.process(0).add_layer<RecorderLayer>();
  EXPECT_EQ(&cluster.process(0).layer<RecorderLayer>(), &rec);
  struct OtherLayer : Layer {
    void on_message(const Message&) override {}
  };
  EXPECT_THROW((void)cluster.process(0).layer<OtherLayer>(), std::logic_error);
}

TEST(ClusterTest, PingPongRoundTrip) {
  Cluster cluster{test_config(2)};
  auto& r0 = cluster.process(0).add_layer<RecorderLayer>();
  auto& r1 = cluster.process(1).add_layer<RecorderLayer>();
  r1.echo = true;
  cluster.sim().schedule(des::Duration::zero(), [&cluster] {
    Message ping;
    ping.kind = MsgKind::kPing;
    ping.probe_id = 7;
    cluster.process(0).send(ping, 1);
  });
  cluster.run_until(des::TimePoint::origin() + des::Duration::from_ms(10));
  ASSERT_EQ(r0.received.size(), 1u);
  EXPECT_EQ(r0.received[0].kind, MsgKind::kPong);
  EXPECT_EQ(r0.received[0].probe_id, 7u);
}

TEST(ClusterTest, RunUntilPredicateStopsEarly) {
  Cluster cluster{test_config(2)};
  auto& r1 = cluster.process(1).add_layer<RecorderLayer>();
  cluster.process(0).add_layer<RecorderLayer>();
  for (int i = 0; i < 10; ++i) {
    cluster.sim().schedule(des::Duration::from_ms(i), [&cluster] {
      Message m;
      m.kind = MsgKind::kApp;
      cluster.process(0).send(m, 1);
    });
  }
  cluster.run_until([&] { return r1.received.size() >= 2; },
                    des::TimePoint::origin() + des::Duration::from_ms(100));
  EXPECT_EQ(r1.received.size(), 2u);
  EXPECT_LT(cluster.now().to_ms(), 3.0);
}

// The predicate form runs no event later than its deadline and leaves the
// clock at the last event it ran, like Simulator::run_until checks the next
// event's time.
TEST(ClusterTest, RunUntilPredicateRunsNothingPastTheDeadline) {
  Cluster cluster{test_config(2)};
  int fired = 0;
  cluster.sim().schedule(des::Duration::from_ms(5), [&fired] { ++fired; });
  cluster.run_until([] { return false; }, des::TimePoint::origin() + des::Duration::from_ms(1));
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(cluster.now(), des::TimePoint::origin());
  EXPECT_EQ(cluster.sim().queue_size(), 1u);
  // An event at exactly the deadline runs.
  cluster.run_until([] { return false; }, des::TimePoint::origin() + des::Duration::from_ms(5));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(cluster.now(), des::TimePoint::origin() + des::Duration::from_ms(5));
}

TEST(ClusterTest, DeterministicAcrossIdenticalSeeds) {
  auto run_one = [](std::uint64_t seed) {
    Cluster cluster{test_config(3, seed)};
    auto& r2 = cluster.process(2).add_layer<RecorderLayer>();
    cluster.process(0).add_layer<RecorderLayer>();
    cluster.process(1).add_layer<RecorderLayer>();
    cluster.sim().schedule(des::Duration::zero(), [&cluster] {
      Message m;
      m.kind = MsgKind::kApp;
      cluster.process(0).broadcast(m);
      cluster.process(1).broadcast(m);
    });
    cluster.run_until(des::TimePoint::origin() + des::Duration::from_ms(5));
    return r2.received.size();
  };
  EXPECT_EQ(run_one(5), run_one(5));
}

TEST(ClusterTest, RejectsTooFewProcesses) {
  ClusterConfig cfg = test_config(2);
  cfg.n = 1;
  EXPECT_THROW(Cluster{cfg}, std::invalid_argument);
}

TEST(ClusterTest, InitialCrashTakesEffectBeforeStart) {
  Cluster cluster{test_config(3)};
  auto& r0 = cluster.process(0).add_layer<RecorderLayer>();
  auto& r1 = cluster.process(1).add_layer<RecorderLayer>();
  cluster.process(2).add_layer<RecorderLayer>();
  cluster.crash_initially(1);
  cluster.sim().schedule(des::Duration::zero(), [&cluster] {
    Message m;
    m.kind = MsgKind::kApp;
    cluster.process(2).broadcast(m);
  });
  cluster.run_until(des::TimePoint::origin() + des::Duration::from_ms(10));
  EXPECT_EQ(r0.received.size(), 1u);
  EXPECT_TRUE(r1.received.empty());
  EXPECT_FALSE(r1.started);  // crashed before on_start
}

// --- MembershipView ----------------------------------------------------------

TEST(MembershipViewTest, EpochHistoryStaysAddressable) {
  MembershipView view{{2, 0, 1}};  // normalized to sorted order
  EXPECT_EQ(view.epoch(), 0u);
  EXPECT_EQ(view.members(), (std::vector<MemberId>{0, 1, 2}));
  EXPECT_EQ(view.add(4), 1u);
  EXPECT_EQ(view.add(3), 2u);
  EXPECT_EQ(view.remove(0), 3u);
  // Every installed epoch keeps resolving (in-flight instances pin theirs).
  EXPECT_EQ(view.members_at(0), (std::vector<MemberId>{0, 1, 2}));
  EXPECT_EQ(view.members_at(1), (std::vector<MemberId>{0, 1, 2, 4}));
  EXPECT_EQ(view.members_at(2), (std::vector<MemberId>{0, 1, 2, 3, 4}));
  EXPECT_EQ(view.members(), (std::vector<MemberId>{1, 2, 3, 4}));
  EXPECT_TRUE(view.is_member_at(0, 0));
  EXPECT_FALSE(view.is_member(0));
  EXPECT_THROW((void)view.members_at(9), std::out_of_range);
}

TEST(MembershipViewTest, RejectsDegenerateChanges) {
  EXPECT_THROW(MembershipView{std::vector<MemberId>{}}, std::invalid_argument);
  EXPECT_THROW((MembershipView{{1, 1}}), std::invalid_argument);
  MembershipView view{{0}};
  EXPECT_THROW(view.add(0), std::invalid_argument);     // already a member
  EXPECT_THROW(view.remove(5), std::invalid_argument);  // not a member
  EXPECT_THROW(view.remove(0), std::invalid_argument);  // cannot empty the group
  EXPECT_EQ(view.epoch(), 0u);                          // rejected changes install nothing
}

// --- The cluster's view ------------------------------------------------------

TEST(ClusterTest, FixedGroupIsEveryHostInOneEpoch) {
  Cluster cluster{test_config(4)};
  EXPECT_EQ(cluster.membership().epoch(), 0u);
  EXPECT_EQ(cluster.membership().members(), (std::vector<MemberId>{0, 1, 2, 3}));
  EXPECT_EQ(&cluster.process(2).membership(), &cluster.membership());
  Cluster subset{test_config(4), {2, 0}};
  EXPECT_EQ(subset.membership().members(), (std::vector<MemberId>{0, 2}));
  EXPECT_THROW((Cluster{test_config(4), {0, 4}}), std::invalid_argument);
  EXPECT_THROW(subset.add_member(4), std::invalid_argument);
}

/// Logs every view change it hears as (host, epoch).
class ViewLogLayer : public Layer {
 public:
  explicit ViewLogLayer(std::vector<std::pair<HostId, MembershipView::Epoch>>& log) : log_{&log} {}
  void on_message(const Message&) override {}
  void on_view_change(MembershipView::Epoch epoch) override {
    log_->emplace_back(process().id(), epoch);
  }

 private:
  std::vector<std::pair<HostId, MembershipView::Epoch>>* log_;
};

TEST(ClusterTest, ViewChangesReachEveryHostInIdOrder) {
  // Crashed and unstarted hosts hear the change too: a layer decides what
  // a change means to a host that is down.
  Cluster cluster{test_config(3), {0, 1}};
  std::vector<std::pair<HostId, MembershipView::Epoch>> log;
  for (HostId i = 0; i < 3; ++i) cluster.process(i).add_layer<ViewLogLayer>(log);
  cluster.crash_initially(2);
  EXPECT_EQ(cluster.add_member(2), 1u);
  cluster.run_until(des::TimePoint::origin());
  EXPECT_EQ(cluster.remove_member(0), 2u);
  EXPECT_EQ(log, (std::vector<std::pair<HostId, MembershipView::Epoch>>{
                     {0, 1}, {1, 1}, {2, 1}, {0, 2}, {1, 2}, {2, 2}}));
  EXPECT_EQ(cluster.membership().members(), (std::vector<MemberId>{1, 2}));
}

TEST(ProcessTest, BroadcastInReachesTheEpochsOtherMembers) {
  Cluster cluster{test_config(4), {0, 1, 3}};
  std::vector<RecorderLayer*> recorders;
  for (HostId i = 0; i < 4; ++i) {
    recorders.push_back(&cluster.process(i).add_layer<RecorderLayer>());
  }
  cluster.sim().schedule(des::Duration::zero(), [&cluster] {
    Message m;
    m.kind = MsgKind::kApp;
    cluster.process(1).broadcast_in(0, m);
  });
  cluster.run_until(des::TimePoint::origin() + des::Duration::from_ms(10));
  EXPECT_EQ(recorders[0]->received.size(), 1u);
  EXPECT_TRUE(recorders[1]->received.empty());  // no self-delivery
  EXPECT_TRUE(recorders[2]->received.empty());  // not a member
  EXPECT_EQ(recorders[3]->received.size(), 1u);
  EXPECT_EQ(recorders[3]->received[0].to, 3u);  // member-wise unicasts
  EXPECT_EQ(cluster.process(1).messages_sent(), 2u);
}

}  // namespace
}  // namespace sanperf::runtime
