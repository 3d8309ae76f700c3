// Tests of failure detection: heartbeat FD behaviour, histories, QoS
// estimation equations and the abstract-FD parameter derivation.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "fd/failure_detector.hpp"
#include "fd/heartbeat_fd.hpp"
#include "fd/history.hpp"
#include "fd/qos.hpp"
#include "runtime/cluster.hpp"

namespace sanperf::fd {
namespace {

using runtime::Cluster;
using runtime::ClusterConfig;
using runtime::HostId;
using runtime::Message;
using runtime::MsgKind;

ClusterConfig fd_config(std::size_t n, std::uint64_t seed = 1) {
  ClusterConfig cfg;
  cfg.n = n;
  cfg.seed = seed;
  cfg.timers = net::TimerModel::ideal();  // exact heartbeat periods
  cfg.network.wire_service = {1.0, 0.09, 0.09, 0.0, 0.0};
  cfg.network.pipeline_latency = {1.0, 0.0, 0.0, 0.0, 0.0};
  return cfg;
}

TEST(StaticFdTest, FixedOutput) {
  StaticFd fd{{2u}};
  EXPECT_TRUE(fd.is_suspected(2));
  EXPECT_FALSE(fd.is_suspected(0));
  EXPECT_FALSE(fd.is_suspected(1));
}

TEST(PairHistoryTest, RecordsAlternatingTransitions) {
  PairHistory h;
  h.record(des::TimePoint::origin() + des::Duration::from_ms(10), true);
  h.record(des::TimePoint::origin() + des::Duration::from_ms(12), false);
  h.record(des::TimePoint::origin() + des::Duration::from_ms(20), true);
  EXPECT_EQ(h.trust_to_suspect_count(), 2u);
  EXPECT_EQ(h.suspect_to_trust_count(), 1u);
  EXPECT_TRUE(h.suspected_at(des::TimePoint::origin() + des::Duration::from_ms(11)));
  EXPECT_FALSE(h.suspected_at(des::TimePoint::origin() + des::Duration::from_ms(15)));
  EXPECT_TRUE(h.suspected_at(des::TimePoint::origin() + des::Duration::from_ms(25)));
}

TEST(PairHistoryTest, SuspectedTimeIntegral) {
  PairHistory h;
  h.record(des::TimePoint::origin() + des::Duration::from_ms(10), true);
  h.record(des::TimePoint::origin() + des::Duration::from_ms(13), false);
  h.record(des::TimePoint::origin() + des::Duration::from_ms(30), true);
  // Open suspicion until the end of the experiment at 35.
  const auto end = des::TimePoint::origin() + des::Duration::from_ms(35);
  EXPECT_DOUBLE_EQ(h.suspected_time(end).to_ms(), 3.0 + 5.0);
}

TEST(PairHistoryTest, RejectsOutOfOrderAndRepeats) {
  PairHistory h;
  EXPECT_THROW(h.record(des::TimePoint::origin(), false), std::logic_error);  // must start TS
  h.record(des::TimePoint::origin() + des::Duration::from_ms(5), true);
  EXPECT_THROW(h.record(des::TimePoint::origin() + des::Duration::from_ms(6), true),
               std::logic_error);
  EXPECT_THROW(h.record(des::TimePoint::origin() + des::Duration::from_ms(1), false),
               std::logic_error);
}

TEST(QosTest, PairEquationsMatchPaper) {
  // T_exp = 100 ms, one mistake of 4 ms: n_TS = n_ST = 1.
  PairHistory h;
  h.record(des::TimePoint::origin() + des::Duration::from_ms(50), true);
  h.record(des::TimePoint::origin() + des::Duration::from_ms(54), false);
  const auto end = des::TimePoint::origin() + des::Duration::from_ms(100);
  const auto q = estimate_pair_qos(h, end);
  ASSERT_TRUE(q.has_value());
  // T_MR = 2 * 100 / 2 = 100; T_M = 2 * 4 / 2 = 4.
  EXPECT_DOUBLE_EQ(q->t_mr_ms, 100.0);
  EXPECT_DOUBLE_EQ(q->t_m_ms, 4.0);
  EXPECT_DOUBLE_EQ(q->suspicion_probability(), 0.04);
}

TEST(QosTest, QuietPairHasNoEstimate) {
  PairHistory h;
  EXPECT_FALSE(estimate_pair_qos(h, des::TimePoint::origin() + des::Duration::from_ms(100)));
}

TEST(QosTest, AverageSkipsQuietPairs) {
  PairHistory noisy;
  noisy.record(des::TimePoint::origin() + des::Duration::from_ms(10), true);
  noisy.record(des::TimePoint::origin() + des::Duration::from_ms(12), false);
  PairHistory quiet;
  const auto end = des::TimePoint::origin() + des::Duration::from_ms(100);
  const auto avg = average_qos({&noisy, &quiet}, end);
  EXPECT_EQ(avg.pairs_used, 1u);
  EXPECT_EQ(avg.pairs_quiet, 1u);
  EXPECT_DOUBLE_EQ(avg.t_mr_ms, 100.0);
  EXPECT_DOUBLE_EQ(avg.t_m_ms, 2.0);
}

TEST(QosTest, ManyMistakesScaleRecurrence) {
  PairHistory h;
  for (int k = 0; k < 10; ++k) {
    h.record(des::TimePoint::origin() + des::Duration::from_ms(10.0 * k + 1), true);
    h.record(des::TimePoint::origin() + des::Duration::from_ms(10.0 * k + 2), false);
  }
  const auto end = des::TimePoint::origin() + des::Duration::from_ms(100);
  const auto q = estimate_pair_qos(h, end);
  ASSERT_TRUE(q.has_value());
  EXPECT_DOUBLE_EQ(q->t_mr_ms, 10.0);  // 2 * 100 / 20
  EXPECT_DOUBLE_EQ(q->t_m_ms, 1.0);
}

TEST(AbstractFdParamsTest, DerivationFromQos) {
  QosEstimate qos;
  qos.t_mr_ms = 50.0;
  qos.t_m_ms = 5.0;
  const auto p = AbstractFdParams::from_qos(qos, AbstractFdParams::Sojourn::kExponential);
  EXPECT_DOUBLE_EQ(p.trust_mean_ms, 45.0);
  EXPECT_DOUBLE_EQ(p.suspect_mean_ms, 5.0);
  EXPECT_DOUBLE_EQ(p.p_initial_suspect, 0.1);
  EXPECT_EQ(p.sojourn, AbstractFdParams::Sojourn::kExponential);
}

TEST(AbstractFdParamsTest, RejectsDegenerateQos) {
  QosEstimate qos;
  qos.t_mr_ms = 0;
  qos.t_m_ms = 0;
  EXPECT_THROW((void)AbstractFdParams::from_qos(qos, AbstractFdParams::Sojourn::kDeterministic),
               std::invalid_argument);
  qos.t_mr_ms = 5;
  qos.t_m_ms = 6;
  EXPECT_THROW((void)AbstractFdParams::from_qos(qos, AbstractFdParams::Sojourn::kDeterministic),
               std::invalid_argument);
}

// --------------------------------------------------------------------------
// HeartbeatFd on a live cluster
// --------------------------------------------------------------------------

Cluster make_fd_cluster(std::size_t n, double timeout_ms, std::uint64_t seed = 3) {
  Cluster cluster{fd_config(n, seed)};
  const auto params = HeartbeatFdParams::from_timeout_ms(timeout_ms);
  for (HostId i = 0; i < static_cast<HostId>(n); ++i) {
    cluster.process(i).add_layer<HeartbeatFd>(params);
  }
  return cluster;
}

TEST(HeartbeatFdTest, RejectsNonPositivePeriodOrTimeout) {
  const auto message = [](HeartbeatFdParams params) {
    try {
      HeartbeatFd fd{params};
    } catch (const std::invalid_argument& e) {
      return std::string{e.what()};
    }
    return std::string{"accepted"};
  };
  EXPECT_EQ(message(HeartbeatFdParams::from_timeout_ms(0)), "HeartbeatFd: timeout must be > 0");
  EXPECT_EQ(message(HeartbeatFdParams::from_timeout_ms(-1)), "HeartbeatFd: timeout must be > 0");
  EXPECT_EQ(message({des::Duration::zero(), des::Duration::from_ms(10)}),
            "HeartbeatFd: heartbeat period must be > 0");
  EXPECT_EQ(message({des::Duration::from_ms(-7), des::Duration::from_ms(10)}),
            "HeartbeatFd: heartbeat period must be > 0");
  EXPECT_EQ(message(HeartbeatFdParams::from_timeout_ms(0.01)), "accepted");
}

TEST(HeartbeatFdTest, NoSuspicionsWithIdealTimersAndGenerousTimeout) {
  auto cluster = make_fd_cluster(3, /*timeout_ms=*/10.0);
  cluster.run_until(des::TimePoint::origin() + des::Duration::from_ms(200));
  for (HostId i = 0; i < 3; ++i) {
    const auto& hb = cluster.process(i).layer<HeartbeatFd>();
    for (HostId j = 0; j < 3; ++j) {
      if (i == j) continue;
      EXPECT_FALSE(hb.is_suspected(j)) << i << " suspects " << j;
      EXPECT_TRUE(hb.histories()[j].transitions().empty());
    }
    EXPECT_GT(hb.heartbeats_sent(), 20u);
  }
}

TEST(HeartbeatFdTest, CrashedProcessGetsSuspectedWithinTimeout) {
  auto cluster = make_fd_cluster(3, 10.0);
  cluster.crash_at(2, des::TimePoint::origin() + des::Duration::from_ms(50));
  cluster.run_until(des::TimePoint::origin() + des::Duration::from_ms(100));
  for (HostId i = 0; i < 2; ++i) {
    const auto& hb = cluster.process(i).layer<HeartbeatFd>();
    EXPECT_TRUE(hb.is_suspected(2));
    EXPECT_FALSE(hb.is_suspected(1 - i));
    const auto& h = hb.histories()[2];
    ASSERT_EQ(h.transitions().size(), 1u);
    // The last heartbeat left up to Th before the crash, so the suspicion
    // lands in [crash + T - Th, crash + Th + T + slack].
    const double at = h.transitions()[0].at.to_ms();
    EXPECT_GE(at, 50.0 + 10.0 - 7.0 - 0.5);
    EXPECT_LE(at, 50.0 + 7.0 + 10.0 + 1.0);
  }
}

TEST(HeartbeatFdTest, SuspicionClearsWhenMessagesResume) {
  // Quantised timers with a forced stall make the sender miss its deadline
  // once; the suspicion must clear on the next heartbeat.
  ClusterConfig cfg = fd_config(2, 7);
  cfg.timers = net::TimerModel::ideal();
  cfg.timers.tick_ms = 10.0;  // heartbeats effectively every 10 ms
  Cluster cluster{cfg};
  const HeartbeatFdParams params{des::Duration::from_ms(7.0), des::Duration::from_ms(10.5)};
  cluster.process(0).add_layer<HeartbeatFd>(params);
  cluster.process(1).add_layer<HeartbeatFd>(params);
  cluster.run_until(des::TimePoint::origin() + des::Duration::from_ms(500));
  const auto& hb0 = cluster.process(0).layer<HeartbeatFd>();
  const auto& h = hb0.histories()[1];
  // Tick-locked periods are ~10 ms < 10.5 ms timeout: occasional mistakes
  // are possible but every suspicion must have cleared quickly.
  for (std::size_t k = 0; k + 1 < h.transitions().size(); k += 2) {
    const double duration =
        (h.transitions()[k + 1].at - h.transitions()[k].at).to_ms();
    EXPECT_LT(duration, 2.0);
  }
}

TEST(HeartbeatFdTest, ApplicationMessagesResetTimer) {
  // One-way probes: process 0 sends app messages to 1 often enough that 1
  // never suspects 0 even though 0's heartbeat period is far beyond T.
  ClusterConfig cfg = fd_config(2, 9);
  Cluster cluster{cfg};
  const HeartbeatFdParams starved{des::Duration::from_ms(500.0), des::Duration::from_ms(10.0)};
  cluster.process(0).add_layer<HeartbeatFd>(starved);
  cluster.process(1).add_layer<HeartbeatFd>(starved);
  cluster.run_until(des::TimePoint::origin());
  for (int k = 0; k < 100; ++k) {
    cluster.sim().schedule_at(des::TimePoint::origin() + des::Duration::from_ms(5.0 * k + 1),
                              [&cluster] {
                                Message m;
                                m.kind = MsgKind::kApp;
                                cluster.process(0).send(m, 1);
                              });
  }
  cluster.run_until(des::TimePoint::origin() + des::Duration::from_ms(480));
  const auto& hb1 = cluster.process(1).layer<HeartbeatFd>();
  EXPECT_FALSE(hb1.is_suspected(0));
  EXPECT_TRUE(hb1.histories()[0].transitions().empty());
}

TEST(HeartbeatFdTest, ListenersFireOnTransitions) {
  auto cluster = make_fd_cluster(2, 10.0);
  cluster.run_until(des::TimePoint::origin());
  int suspect_events = 0;
  int trust_events = 0;
  cluster.process(0).layer<HeartbeatFd>().add_listener([&](HostId peer, bool suspected) {
    EXPECT_EQ(peer, 1u);
    (suspected ? suspect_events : trust_events)++;
  });
  cluster.crash_at(1, des::TimePoint::origin() + des::Duration::from_ms(30));
  cluster.run_until(des::TimePoint::origin() + des::Duration::from_ms(100));
  EXPECT_EQ(suspect_events, 1);
  EXPECT_EQ(trust_events, 0);
}

TEST(HeartbeatFdTest, QosPipelineOnRealHistories) {
  // Sender with tick-locked period slightly above the timeout: mistakes
  // recur regularly, and the estimated QoS must be internally consistent.
  ClusterConfig cfg = fd_config(2, 11);
  cfg.timers = net::TimerModel::ideal();
  cfg.timers.tick_ms = 10.0;
  Cluster cluster{cfg};
  const HeartbeatFdParams params{des::Duration::from_ms(7.0), des::Duration::from_ms(8.0)};
  cluster.process(0).add_layer<HeartbeatFd>(params);
  cluster.process(1).add_layer<HeartbeatFd>(params);
  const auto end = des::TimePoint::origin() + des::Duration::from_ms(2000);
  cluster.run_until(end);
  const auto& h = cluster.process(0).layer<HeartbeatFd>().histories()[1];
  ASSERT_GT(h.trust_to_suspect_count(), 10u);
  const auto q = estimate_pair_qos(h, end);
  ASSERT_TRUE(q.has_value());
  // Tick-locked period ~10 ms, timeout 8 ms: the monitoring thread wakes on
  // the tick just before the next heartbeat lands, so a mistake occurs
  // almost every period and lasts only a message transit.
  EXPECT_NEAR(q->t_mr_ms, 10.0, 2.0);
  EXPECT_GT(q->t_m_ms, 0.01);
  EXPECT_LT(q->t_m_ms, 1.0);
}

// --------------------------------------------------------------------------
// Warm restart (fault injection)
// --------------------------------------------------------------------------

TEST(HeartbeatFdTest, WarmRestartResumesMonitoringWithoutStaleTimestamps) {
  auto cluster = make_fd_cluster(3, 10.0);
  cluster.crash_at(2, des::TimePoint::origin() + des::Duration::from_ms(50));
  cluster.recover_at(2, des::TimePoint::origin() + des::Duration::from_ms(120));
  cluster.run_until(des::TimePoint::origin() + des::Duration::from_ms(120));
  const auto hb_at_restart = cluster.process(2).layer<HeartbeatFd>().heartbeats_sent();
  cluster.run_until(des::TimePoint::origin() + des::Duration::from_ms(300));

  for (HostId i = 0; i < 2; ++i) {
    const auto& hb = cluster.process(i).layer<HeartbeatFd>();
    // The downtime shows as one suspect interval, cleared by the first
    // post-recovery heartbeat.
    EXPECT_FALSE(hb.is_suspected(2));
    const auto& h = hb.histories()[2];
    ASSERT_EQ(h.transitions().size(), 2u);
    EXPECT_TRUE(h.transitions()[0].to_suspect);
    EXPECT_GE(h.transitions()[1].at.to_ms(), 120.0);
    EXPECT_LE(h.transitions()[1].at.to_ms(), 120.0 + 7.0 + 1.0);  // first heartbeat
  }
  // The restarted monitor's own clock started fresh: no stale last-message
  // timestamps, so it never wrongly suspected the live peers...
  const auto& hb2 = cluster.process(2).layer<HeartbeatFd>();
  EXPECT_TRUE(hb2.histories()[0].transitions().empty());
  EXPECT_TRUE(hb2.histories()[1].transitions().empty());
  // ...and its heartbeat loop is running again (pre-crash chains stay dead).
  EXPECT_GT(hb2.heartbeats_sent(), hb_at_restart + 10);
}

TEST(HeartbeatFdTest, RebootFasterThanTimeoutSurfacesAsIncarnationBlip) {
  // Downtime 2 ms << timeout 10 ms: the timeout can never detect the
  // crash, but the restarted host's messages carry a higher incarnation,
  // so monitors record an instantaneous suspect -> trust blip (and notify
  // listeners) instead of silently trusting a peer that lost its state.
  auto cluster = make_fd_cluster(3, 10.0);
  std::vector<std::pair<HostId, bool>> events;
  cluster.run_until(des::TimePoint::origin());
  cluster.process(0).layer<HeartbeatFd>().add_listener(
      [&](HostId peer, bool suspected) { events.emplace_back(peer, suspected); });
  cluster.crash_at(2, des::TimePoint::origin() + des::Duration::from_ms(50));
  cluster.recover_at(2, des::TimePoint::origin() + des::Duration::from_ms(52));
  cluster.run_until(des::TimePoint::origin() + des::Duration::from_ms(100));

  const auto& h = cluster.process(0).layer<HeartbeatFd>().histories()[2];
  ASSERT_EQ(h.transitions().size(), 2u);
  EXPECT_TRUE(h.transitions()[0].to_suspect);
  EXPECT_FALSE(h.transitions()[1].to_suspect);
  EXPECT_EQ(h.transitions()[0].at, h.transitions()[1].at);  // zero-width blip
  EXPECT_GE(h.transitions()[0].at.to_ms(), 52.0);           // the first reboot message
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0], (std::pair<HostId, bool>{2, true}));
  EXPECT_EQ(events[1], (std::pair<HostId, bool>{2, false}));
  EXPECT_FALSE(cluster.process(0).layer<HeartbeatFd>().is_suspected(2));
}

TEST(HeartbeatFdTest, RestartWhileSuspectingKeepsHistoryAlternating) {
  // Monitor 0 suspects the crashed 1, then 0 itself crashes and restarts:
  // the restart must close the open suspicion (suspect -> trust at the
  // restart instant) so later transitions keep alternating.
  auto cluster = make_fd_cluster(2, 10.0);
  cluster.crash_at(1, des::TimePoint::origin() + des::Duration::from_ms(20));
  cluster.crash_at(0, des::TimePoint::origin() + des::Duration::from_ms(60));
  cluster.recover_at(0, des::TimePoint::origin() + des::Duration::from_ms(80));
  cluster.run_until(des::TimePoint::origin() + des::Duration::from_ms(200));

  const auto& h = cluster.process(0).layer<HeartbeatFd>().histories()[1];
  ASSERT_GE(h.transitions().size(), 3u);
  EXPECT_TRUE(h.transitions()[0].to_suspect);                    // the crash of 1
  EXPECT_FALSE(h.transitions()[1].to_suspect);                   // closed at restart
  EXPECT_DOUBLE_EQ(h.transitions()[1].at.to_ms(), 80.0);
  EXPECT_TRUE(h.transitions()[2].to_suspect);                    // 1 is still down
  EXPECT_TRUE(cluster.process(0).layer<HeartbeatFd>().is_suspected(1));
}

}  // namespace
}  // namespace sanperf::fd
