// Tests of the contention network: FIFO resource servers, end-to-end delay
// decomposition, contention effects, crash handling and the timer model.
#include <gtest/gtest.h>

#include <algorithm>
#include <any>
#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <sstream>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "des/simulator.hpp"
#include "move_counter.hpp"
#include "net/jitter.hpp"
#include "net/network.hpp"
#include "net/params.hpp"
#include "topo/topology.hpp"

namespace sanperf::net {
namespace {

TEST(FifoServerTest, ServesJobsInOrderExclusively) {
  des::Simulator sim;
  FifoServer server{sim};
  std::vector<int> done;
  std::vector<double> times;
  for (int i = 0; i < 3; ++i) {
    server.submit(des::Duration::from_ms(2), [&, i] {
      done.push_back(i);
      times.push_back(sim.now().to_ms());
    });
  }
  EXPECT_EQ(server.queue_length(), 2u);
  sim.run();
  EXPECT_EQ(done, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(times, (std::vector<double>{2.0, 4.0, 6.0}));
  EXPECT_EQ(server.jobs_served(), 3u);
  EXPECT_DOUBLE_EQ(server.busy_time().to_ms(), 6.0);
}

TEST(FifoServerTest, IdleServerStartsImmediately) {
  des::Simulator sim;
  FifoServer server{sim};
  double when = -1;
  sim.schedule(des::Duration::from_ms(5), [&] {
    server.submit(des::Duration::from_ms(1), [&] { when = sim.now().to_ms(); });
  });
  sim.run();
  EXPECT_DOUBLE_EQ(when, 6.0);
}

// A crash drains the host CPU: the queued jobs and the job in service never
// complete, and the count returned is their summed weights (a batched
// broadcast's job stands for several frames). The job in service still
// occupies the server to the end of its service time.
TEST(FifoServerTest, DrainDropsQueuedAndInServiceJobs) {
  des::Simulator sim;
  FifoServer server{sim};
  int completions = 0;
  server.submit(des::Duration::from_ms(1), [&] { ++completions; }, 2);  // in service
  server.submit(des::Duration::from_ms(1), [&] { ++completions; });
  server.submit(des::Duration::from_ms(1), [&] { ++completions; }, 4);
  EXPECT_EQ(server.drain(), 2u + 1u + 4u);
  EXPECT_EQ(server.drain(), 0u);  // nothing left to drop twice
  sim.run();
  EXPECT_EQ(completions, 0);
  EXPECT_FALSE(server.busy());
  EXPECT_EQ(server.busy_time(), des::Duration::from_ms(1));
}

// A completion is built where it waits and moves only to start and to run:
// at most twice on an idle server (into service, then out to run) and three
// times through the queue.
TEST(FifoServerTest, CompletionMovesTwiceIdleAndThriceQueued) {
  des::Simulator sim;
  FifoServer server{sim};
  int moves = 0;
  int runs = 0;
  server.submit(des::Duration::from_ms(1), testutil::MoveCounter{moves, runs});
  sim.run();
  EXPECT_EQ(runs, 1);
  EXPECT_LE(moves, 2);

  int queued_moves = 0;
  server.submit(des::Duration::from_ms(1), [] {});  // occupies the server
  server.submit(des::Duration::from_ms(1), testutil::MoveCounter{queued_moves, runs});
  EXPECT_EQ(server.queue_length(), 1u);
  sim.run();
  EXPECT_EQ(runs, 2);
  EXPECT_LE(queued_moves, 3);
}

NetworkParams fixed_delay_params() {
  NetworkParams p;
  p.send_cpu_ms = 0.025;
  p.recv_cpu_ms = 0.025;
  p.wire_service = {1.0, 0.09, 0.09, 0.0, 0.0};  // degenerate: always 0.09
  p.pipeline_latency = {1.0, 0.0, 0.0, 0.0, 0.0};  // none: exact arithmetic
  return p;
}

TEST(ContentionNetworkTest, UncontendedDelayIsSumOfStages) {
  des::Simulator sim;
  ContentionNetwork netw{sim, des::RandomEngine{1}, fixed_delay_params(), 2};
  double delay = -1;
  netw.set_deliver([&](const Packet& pkt) { delay = (sim.now() - pkt.sent_at).to_ms(); });
  netw.send(0, 1, std::any{});
  sim.run();
  EXPECT_NEAR(delay, 0.025 + 0.09 + 0.025, 1e-9);
  EXPECT_EQ(netw.frames_sent(), 1u);
}

TEST(ContentionNetworkTest, DefaultsMatchPaperUnicastDelay) {
  des::Simulator sim;
  ContentionNetwork netw{sim, des::RandomEngine{2}, NetworkParams::defaults(), 2};
  std::vector<double> delays;
  netw.set_deliver([&](const Packet& pkt) { delays.push_back((sim.now() - pkt.sent_at).to_ms()); });
  // Isolated probes.
  for (int i = 0; i < 2000; ++i) {
    sim.schedule_at(des::TimePoint::origin() + des::Duration::from_ms(i * 1.0),
                    [&netw] { netw.send(0, 1, std::any{}); });
  }
  sim.run();
  ASSERT_EQ(delays.size(), 2000u);
  double sum = 0;
  for (const double d : delays) {
    EXPECT_GE(d, 0.0999);
    EXPECT_LE(d, 0.3581);
    sum += d;
  }
  // Close to the paper fit mean 0.8 * 0.115 + 0.2 * 0.2475 = 0.1415 ms.
  EXPECT_NEAR(sum / 2000.0, 0.1413, 0.005);
}

TEST(ContentionNetworkTest, SharedMediumSerialisesBurst) {
  des::Simulator sim;
  ContentionNetwork netw{sim, des::RandomEngine{3}, fixed_delay_params(), 4};
  std::vector<double> arrivals;
  netw.set_deliver([&](const Packet&) { arrivals.push_back(sim.now().to_ms()); });
  // Three different senders to three different receivers at t = 0: only the
  // medium is shared, so arrivals must be spaced by the frame time.
  netw.send(0, 1, std::any{});
  netw.send(1, 2, std::any{});
  netw.send(2, 3, std::any{});
  sim.run();
  ASSERT_EQ(arrivals.size(), 3u);
  EXPECT_NEAR(arrivals[0], 0.140, 1e-9);
  EXPECT_NEAR(arrivals[1], 0.230, 1e-9);  // +0.09 medium serialisation
  EXPECT_NEAR(arrivals[2], 0.320, 1e-9);
}

TEST(ContentionNetworkTest, SenderCpuSerialisesItsOwnMessages) {
  des::Simulator sim;
  ContentionNetwork netw{sim, des::RandomEngine{4}, fixed_delay_params(), 3};
  std::vector<double> arrivals;
  netw.set_deliver([&](const Packet&) { arrivals.push_back(sim.now().to_ms()); });
  netw.send(0, 1, std::any{});
  netw.send(0, 2, std::any{});
  sim.run();
  ASSERT_EQ(arrivals.size(), 2u);
  // Second message waits 0.025 for the sender CPU, then 0.065 more for the
  // medium (which frees at 0.115): arrives at 0.115 + 0.09 + 0.025 = 0.230.
  EXPECT_NEAR(arrivals[0], 0.140, 1e-9);
  EXPECT_NEAR(arrivals[1], 0.230, 1e-9);
}

TEST(ContentionNetworkTest, ReceiverCpuSerialisesDeliveries) {
  des::Simulator sim;
  ContentionNetwork netw{sim, des::RandomEngine{5}, fixed_delay_params(), 3};
  std::vector<double> arrivals;
  netw.set_deliver([&](const Packet&) { arrivals.push_back(sim.now().to_ms()); });
  netw.send(0, 2, std::any{});
  netw.send(1, 2, std::any{});
  sim.run();
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_NEAR(arrivals[0], 0.140, 1e-9);
  // Frame 2 leaves the medium at 0.205 and the receiver is free by then,
  // so only the medium serialisation shows: 0.205 + 0.025 = 0.230.
  EXPECT_NEAR(arrivals[1], 0.230, 1e-9);
}

TEST(ContentionNetworkTest, FramesToCrashedHostOccupyMediumButDrop) {
  des::Simulator sim;
  ContentionNetwork netw{sim, des::RandomEngine{6}, fixed_delay_params(), 3};
  std::vector<double> arrivals;
  netw.set_deliver([&](const Packet&) { arrivals.push_back(sim.now().to_ms()); });
  netw.host_down(1);
  netw.send(0, 1, std::any{});  // dropped after medium
  netw.send(0, 2, std::any{});  // delivered, delayed by the dead frame
  sim.run();
  ASSERT_EQ(arrivals.size(), 1u);
  EXPECT_NEAR(arrivals[0], 0.230, 1e-9);  // dead frame still serialised first
  EXPECT_EQ(netw.frames_dropped(), 1u);
}

TEST(ContentionNetworkTest, CrashedHostSendsNothing) {
  des::Simulator sim;
  ContentionNetwork netw{sim, des::RandomEngine{7}, fixed_delay_params(), 2};
  int delivered = 0;
  netw.set_deliver([&](const Packet&) { ++delivered; });
  netw.host_down(0);
  netw.send(0, 1, std::any{});
  sim.run();
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(netw.frames_sent(), 0u);
}

TEST(ContentionNetworkTest, RejectsBadEndpoints) {
  des::Simulator sim;
  ContentionNetwork netw{sim, des::RandomEngine{8}, fixed_delay_params(), 2};
  EXPECT_THROW(netw.send(0, 0, std::any{}), std::invalid_argument);
  EXPECT_THROW(netw.send(0, 5, std::any{}), std::invalid_argument);
  EXPECT_THROW(netw.host_down(9), std::invalid_argument);
  EXPECT_THROW((ContentionNetwork{sim, des::RandomEngine{9}, fixed_delay_params(), 1}),
               std::invalid_argument);
}

TEST(TimerModelTest, IdealTimersAreExact) {
  des::RandomEngine rng{10};
  const TimerModel tm = TimerModel::ideal();
  const auto nominal = des::TimePoint::origin() + des::Duration::from_ms(3.7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(quantize_timer(tm, nominal, rng), nominal);
  }
}

TEST(TimerModelTest, QuantisationRoundsUpToTick) {
  des::RandomEngine rng{11};
  TimerModel tm = TimerModel::ideal();
  tm.tick_ms = 10.0;
  const auto nominal = des::TimePoint::origin() + des::Duration::from_ms(3.7);
  const auto t = quantize_timer(tm, nominal, rng);
  EXPECT_EQ(t, des::TimePoint::origin() + des::Duration::from_ms(10.0));
  // Already on a tick: unchanged.
  const auto on_tick = des::TimePoint::origin() + des::Duration::from_ms(20.0);
  EXPECT_EQ(quantize_timer(tm, on_tick, rng), on_tick);
}

TEST(TimerModelTest, NeverFiresEarly) {
  des::RandomEngine rng{12};
  const TimerModel tm = TimerModel::defaults();
  for (int i = 0; i < 5000; ++i) {
    const auto nominal =
        des::TimePoint::origin() + des::Duration::from_ms(rng.uniform(0.0, 100.0));
    EXPECT_GE(quantize_timer(tm, nominal, rng), nominal);
  }
}

TEST(TimerModelTest, StallFrequenciesMatchConfig) {
  des::RandomEngine rng{13};
  TimerModel tm = TimerModel::ideal();
  tm.p_minor_stall = 0.2;
  tm.p_major_stall = 0.05;
  tm.p_huge_stall = 0.01;
  int stalled = 0, huge = 0;
  const int k = 200000;
  double max_stall = 0;
  for (int i = 0; i < k; ++i) {
    const double s = sample_stall(tm, rng).to_ms();
    if (s > 0.0) ++stalled;
    if (s >= 12.0) ++huge;
    max_stall = std::max(max_stall, s);
  }
  // The minor/major ranges overlap; the total stall frequency and the
  // heavy tail are the checkable quantities.
  EXPECT_NEAR(stalled / static_cast<double>(k), 0.26, 0.01);
  EXPECT_NEAR(huge / static_cast<double>(k), 0.01, 0.002);
  EXPECT_LE(max_stall, 45.0);
}

TEST(TimerModelTest, DefaultExpectedUnicastMatchesFitMean) {
  const NetworkParams p = NetworkParams::defaults();
  // send 0.025 + wire 0.0915 + pipeline 0 + recv 0.025: the paper's fit mean.
  EXPECT_NEAR(p.expected_unicast_e2e_ms(), 0.025 + 0.0915 + 0.025, 1e-6);
}

// --------------------------------------------------------------------------
// HubMedium arbitration
// --------------------------------------------------------------------------

TEST(HubMediumTest, PerHostQueuesStayFifo) {
  des::Simulator sim;
  HubMedium hub{sim, des::RandomEngine{20}, 3};
  std::vector<int> order;
  // Two frames from host 0 and two from host 1: arbitration between hosts
  // is random, but each host's own frames must complete in order.
  hub.submit(0, des::Duration::from_ms(1), [&] { order.push_back(1); });
  hub.submit(0, des::Duration::from_ms(1), [&] { order.push_back(2); });
  hub.submit(1, des::Duration::from_ms(1), [&] { order.push_back(11); });
  hub.submit(1, des::Duration::from_ms(1), [&] { order.push_back(12); });
  sim.run();
  ASSERT_EQ(order.size(), 4u);
  auto pos = [&](int v) {
    return std::find(order.begin(), order.end(), v) - order.begin();
  };
  EXPECT_LT(pos(1), pos(2));
  EXPECT_LT(pos(11), pos(12));
  EXPECT_EQ(hub.frames_served(), 4u);
  EXPECT_DOUBLE_EQ(hub.busy_time().to_ms(), 4.0);
}

TEST(HubMediumTest, BacklogServedToCompletion) {
  des::Simulator sim;
  HubMedium hub{sim, des::RandomEngine{21}, 2};
  int done = 0;
  const int frames = 2000;
  for (int i = 0; i < frames; ++i) {
    hub.submit(0, des::Duration::from_ms(0.01), [&] { ++done; });
    hub.submit(1, des::Duration::from_ms(0.01), [&] { ++done; });
  }
  sim.run();
  EXPECT_EQ(done, 2 * frames);
  EXPECT_EQ(hub.frames_served(), static_cast<std::uint64_t>(2 * frames));
  EXPECT_EQ(hub.backlog(), 0u);
  EXPECT_FALSE(hub.busy());
}

TEST(HubMediumTest, IdleHubStartsImmediately) {
  des::Simulator sim;
  HubMedium hub{sim, des::RandomEngine{22}, 2};
  double when = -1;
  sim.schedule(des::Duration::from_ms(3), [&] {
    hub.submit(1, des::Duration::from_ms(2), [&] { when = sim.now().to_ms(); });
  });
  sim.run();
  EXPECT_DOUBLE_EQ(when, 5.0);
  EXPECT_FALSE(hub.busy());
  EXPECT_EQ(hub.backlog(), 0u);
}

// A frame's completion moves at most three times, idle hub or not: into its
// host queue, into service, and out to run.
TEST(HubMediumTest, CompletionMovesAtMostThrice) {
  des::Simulator sim;
  HubMedium hub{sim, des::RandomEngine{23}, 2};
  int moves = 0;
  int runs = 0;
  hub.submit(0, des::Duration::from_ms(1), testutil::MoveCounter{moves, runs});
  sim.run();
  EXPECT_EQ(runs, 1);
  EXPECT_LE(moves, 3);

  int queued_moves = 0;
  hub.submit(1, des::Duration::from_ms(1), [] {});  // occupies the hub
  hub.submit(0, des::Duration::from_ms(1), testutil::MoveCounter{queued_moves, runs});
  EXPECT_EQ(hub.backlog(), 1u);
  sim.run();
  EXPECT_EQ(runs, 2);
  EXPECT_LE(queued_moves, 3);
}

// The hub as it arbitrated before it kept a list of backlogged hosts: per
// frame, rescan every host queue and draw among the non-empty ones. Kept as
// the reference HubMedium must reproduce draw for draw.
class ScanHub {
 public:
  ScanHub(des::Simulator& sim, des::RandomEngine rng, std::size_t hosts)
      : sim_{&sim}, rng_{rng}, queues_(hosts) {}

  void submit(HostId src, des::Duration service, des::EventAction on_done) {
    queues_.at(src).push_back({service, std::move(on_done)});
    if (!busy_) start_next();
  }

 private:
  struct Frame {
    des::Duration service;
    des::EventAction on_done;
  };

  void start_next() {
    std::vector<HostId> ready;
    for (HostId h = 0; h < static_cast<HostId>(queues_.size()); ++h) {
      if (!queues_[h].empty()) ready.push_back(h);
    }
    if (ready.empty()) return;
    const HostId winner = ready[static_cast<std::size_t>(
        rng_.uniform_int(0, static_cast<std::int64_t>(ready.size()) - 1))];
    current_done_ = std::move(queues_[winner].front().on_done);
    const des::Duration service = queues_[winner].front().service;
    queues_[winner].pop_front();
    busy_ = true;
    sim_->schedule(service, [this] {
      busy_ = false;
      auto done = std::move(current_done_);
      done();
      if (!busy_) start_next();
    });
  }

  des::Simulator* sim_;
  des::RandomEngine rng_;
  std::vector<std::deque<Frame>> queues_;
  bool busy_ = false;
  des::EventAction current_done_;
};

/// One frame the schedule submits: when, from which host, for how long.
struct HubSubmission {
  double at_ms;
  HostId src;
  double service_ms;
};

/// A bursty open-loop schedule: busy phases offer about twice what the hub
/// can serve and quiet phases about a third, so host queues pile up, drain
/// and refill many times over.
std::vector<HubSubmission> bursty_schedule(std::size_t hosts, std::size_t frames,
                                           std::uint64_t seed) {
  des::RandomEngine rng{seed};
  std::vector<HubSubmission> schedule;
  double t = 0;
  for (std::size_t i = 0; i < frames; ++i) {
    t += rng.exponential_mean((i / 64) % 2 == 0 ? 0.05 : 0.4);
    const auto src = static_cast<HostId>(rng.uniform_int(0, static_cast<std::int64_t>(hosts) - 1));
    schedule.push_back({t, src, rng.uniform(0.05, 0.15)});
  }
  return schedule;
}

/// What a hub did with a schedule: (frame id, completion instant in ns) in
/// service order, and how often a frame arrived at an idle, empty hub.
struct HubTrace {
  std::vector<std::pair<std::size_t, std::int64_t>> served;
  std::size_t idle_arrivals = 0;
  std::size_t peak_backlog = 0;
};

/// Runs `schedule` through `Hub`; every third completion submits one more
/// frame from inside the completion, as the network's receiver path does.
template <typename Hub>
HubTrace serve(const std::vector<HubSubmission>& schedule, std::size_t hosts, std::uint64_t seed) {
  des::Simulator sim;
  Hub hub{sim, des::RandomEngine{seed}, hosts};
  HubTrace trace;
  std::size_t in_hub = 0;
  std::size_t next_id = schedule.size();
  std::function<void(HostId, std::size_t, des::Duration)> submit;
  std::function<void(std::size_t)> done = [&](std::size_t id) {
    --in_hub;
    trace.served.emplace_back(id, sim.now().ns());
    if (id % 3 == 0) {
      submit(static_cast<HostId>(id % hosts), next_id++, des::Duration::from_ms(0.07));
    }
  };
  submit = [&](HostId src, std::size_t id, des::Duration service) {
    if (in_hub++ == 0) ++trace.idle_arrivals;
    trace.peak_backlog = std::max(trace.peak_backlog, in_hub);
    hub.submit(src, service, [&done, id] { done(id); });
  };
  for (std::size_t id = 0; id < schedule.size(); ++id) {
    const HubSubmission& s = schedule[id];
    sim.schedule_at(des::TimePoint::origin() + des::Duration::from_ms(s.at_ms),
                    [&submit, &s, id] { submit(s.src, id, des::Duration::from_ms(s.service_ms)); });
  }
  sim.run();
  return trace;
}

TEST(HubMediumTest, BackloggedListMatchesPerFrameScan) {
  for (const std::size_t n : {2u, 5u, 65u, 129u}) {
    SCOPED_TRACE(n);
    const auto schedule = bursty_schedule(n, 30 * n + 200, 1302 + n);
    const HubTrace expected = serve<ScanHub>(schedule, n, 77);
    const HubTrace actual = serve<HubMedium>(schedule, n, 77);
    // The schedule is not degenerate: the hub empties and refills many
    // times, and queues build up far past one frame in between.
    EXPECT_GT(expected.idle_arrivals, 4u);
    EXPECT_GT(expected.peak_backlog, 20u);
    ASSERT_GT(expected.served.size(), schedule.size());
    EXPECT_EQ(actual.served, expected.served);
  }
}

// A closure that copies a `const FrameRef&` holds a `const FrameRef`, whose
// move is a reference-count-bumping copy that may throw: EventAction refuses
// it instead of boxing it on the heap. The network's closures capture
// `frame = FrameRef{frame}`, a movable copy.
TEST(FrameRefTest, EventClosuresNeedAMovableCopy) {
  const FrameRef none{};
  const FrameRef& frame = none;
  auto copies_const = [frame] { static_cast<void>(frame); };
  auto holds_fresh = [frame = FrameRef{frame}] { static_cast<void>(frame); };
  static_assert(!std::is_constructible_v<des::EventAction, decltype(copies_const)>);
  static_assert(std::is_constructible_v<des::EventAction, decltype(holds_fresh)>);
}

// --------------------------------------------------------------------------
// Dead-peer absorption and frame classes
// --------------------------------------------------------------------------

TEST(DeadPeerAbsorptionTest, OnlyFirstProtocolFrameReachesWire) {
  des::Simulator sim;
  NetworkParams params = fixed_delay_params();
  ContentionNetwork netw{sim, des::RandomEngine{23}, params, 2};
  netw.host_down(1);
  for (int i = 0; i < 5; ++i) netw.send(0, 1, std::any{});
  sim.run();
  // One frame on the wire (then TCP backoff absorbs), all five dropped.
  EXPECT_EQ(netw.link_exited(0), 1u);
  EXPECT_EQ(netw.frames_dropped(), 5u);
}

TEST(DeadPeerAbsorptionTest, PerPairBookkeeping) {
  des::Simulator sim;
  ContentionNetwork netw{sim, des::RandomEngine{24}, fixed_delay_params(), 3};
  netw.host_down(2);
  netw.send(0, 2, std::any{});  // pair (0,2): first frame -> wire
  netw.send(1, 2, std::any{});  // pair (1,2): first frame -> wire
  netw.send(0, 2, std::any{});  // absorbed
  sim.run();
  EXPECT_EQ(netw.link_exited(0), 2u);
}

TEST(FrameClassTest, SmallFramesUseRawWireTime) {
  des::Simulator sim;
  NetworkParams params = fixed_delay_params();
  params.small_wire_service = {1.0, 0.005, 0.005, 0.0, 0.0};
  ContentionNetwork netw{sim, des::RandomEngine{26}, params, 2};
  std::vector<double> delays;
  netw.set_deliver([&](const Packet& pkt) { delays.push_back((sim.now() - pkt.sent_at).to_ms()); });
  netw.send(0, 1, std::any{}, ContentionNetwork::FrameClass::kProtocol);
  sim.run();
  netw.send(0, 1, std::any{}, ContentionNetwork::FrameClass::kSmall);
  sim.run();
  ASSERT_EQ(delays.size(), 2u);
  EXPECT_NEAR(delays[0], 0.025 + 0.09 + 0.025, 1e-9);
  EXPECT_NEAR(delays[1], 0.025 + 0.005 + 0.025, 1e-9);
}

TEST(FrameClassTest, SmallFramesToDeadHostAlwaysEmitted) {
  // Heartbeats are UDP: no connection state, every datagram hits the wire.
  des::Simulator sim;
  ContentionNetwork netw{sim, des::RandomEngine{27}, fixed_delay_params(), 2};
  netw.host_down(1);
  for (int i = 0; i < 3; ++i) {
    netw.send(0, 1, std::any{}, ContentionNetwork::FrameClass::kSmall);
  }
  sim.run();
  EXPECT_EQ(netw.link_exited(0), 3u);
}

// --------------------------------------------------------------------------
// Warm restart and fault-injection hooks
// --------------------------------------------------------------------------

TEST(HostRestartTest, RearmsReceiverCpuAndResetsDeadPairState) {
  // Regression: before host_restart existed, protocol frames towards a
  // once-crashed host were absorbed by the stale dead-pair state forever,
  // and nothing could re-enable the receiver CPU.
  des::Simulator sim;
  ContentionNetwork netw{sim, des::RandomEngine{28}, fixed_delay_params(), 2};
  int delivered = 0;
  netw.set_deliver([&](const Packet&) { ++delivered; });

  netw.host_down(1);
  for (int i = 0; i < 3; ++i) netw.send(0, 1, std::any{});  // 1 wire + 2 absorbed
  sim.run();
  EXPECT_EQ(delivered, 0);
  const auto cpu_jobs_down = netw.cpu(1).jobs_served();

  netw.host_restart(1);
  EXPECT_TRUE(netw.host_up(1));
  for (int i = 0; i < 2; ++i) netw.send(0, 1, std::any{});
  sim.run();
  EXPECT_EQ(delivered, 2);  // both post-recovery frames reach the process
  EXPECT_EQ(netw.cpu(1).jobs_served(), cpu_jobs_down + 2);  // CPU serves again
  EXPECT_EQ(netw.link_exited(0), 3u);  // 1 dead + 2 live on the wire
}

TEST(HostRestartTest, CrashWhileReceiverBusySuppressesOnlyThatJob) {
  // The job in service when the host crashes still occupies the CPU but its
  // delivery is suppressed; a job submitted after the restart completes.
  des::Simulator sim;
  ContentionNetwork netw{sim, des::RandomEngine{29}, fixed_delay_params(), 2};
  int delivered = 0;
  netw.set_deliver([&](const Packet&) { ++delivered; });
  netw.send(0, 1, std::any{});
  // Crash host 1 while its receive is in service (delivery at 0.140 ms).
  sim.schedule(des::Duration::from_ms(0.130), [&] { netw.host_down(1); });
  sim.schedule(des::Duration::from_ms(0.135), [&] { netw.host_restart(1); });
  sim.schedule(des::Duration::from_ms(0.200), [&] { netw.send(0, 1, std::any{}); });
  sim.run();
  EXPECT_EQ(delivered, 1);  // in-service job dropped, post-restart one lands
}

TEST(ServiceScaleTest, CpuScaleStretchesEndToEndDelay) {
  des::Simulator sim;
  ContentionNetwork netw{sim, des::RandomEngine{30}, fixed_delay_params(), 2};
  std::vector<double> delays;
  netw.set_deliver([&](const Packet& pkt) { delays.push_back((sim.now() - pkt.sent_at).to_ms()); });
  netw.send(0, 1, std::any{});
  sim.run();
  netw.set_cpu_scale(0, 4.0);  // sender side only
  netw.send(0, 1, std::any{});
  sim.run();
  netw.set_cpu_scale(0, 1.0);
  netw.send(0, 1, std::any{});
  sim.run();
  ASSERT_EQ(delays.size(), 3u);
  EXPECT_NEAR(delays[0], 0.025 + 0.09 + 0.025, 1e-9);
  EXPECT_NEAR(delays[1], 0.100 + 0.09 + 0.025, 1e-9);  // 4x send CPU
  EXPECT_NEAR(delays[2], delays[0], 1e-12);  // scale 1.0 restores the bits
}

TEST(ServiceScaleTest, PipelineScaleStretchesStackTraversal) {
  des::Simulator sim;
  NetworkParams params = fixed_delay_params();
  params.pipeline_latency = {1.0, 0.2, 0.2, 0.0, 0.0};
  ContentionNetwork netw{sim, des::RandomEngine{31}, params, 2};
  std::vector<double> delays;
  netw.set_deliver([&](const Packet& pkt) { delays.push_back((sim.now() - pkt.sent_at).to_ms()); });
  netw.send(0, 1, std::any{});
  sim.run();
  netw.set_pipeline_scale(3.0);
  netw.send(0, 1, std::any{});
  sim.run();
  ASSERT_EQ(delays.size(), 2u);
  EXPECT_NEAR(delays[1] - delays[0], 2 * 0.2, 1e-9);
  EXPECT_THROW(netw.set_pipeline_scale(0.0), std::invalid_argument);
  EXPECT_THROW(netw.set_cpu_scale(0, -1.0), std::invalid_argument);
}

TEST(FrameFilterTest, DropAndDuplicateAtReceiverEdge) {
  des::Simulator sim;
  ContentionNetwork netw{sim, des::RandomEngine{32}, fixed_delay_params(), 3};
  int delivered = 0;
  netw.set_deliver([&](const Packet&) { ++delivered; });
  // Drop everything to host 1, duplicate everything to host 2.
  netw.set_frame_filter([](const Packet& pkt) {
    if (pkt.dst == 1) return ContentionNetwork::FrameFate::kDrop;
    return ContentionNetwork::FrameFate::kDuplicate;
  });
  netw.send(0, 1, std::any{});
  netw.send(0, 2, std::any{});
  sim.run();
  EXPECT_EQ(delivered, 2);  // the duplicated frame lands twice
  EXPECT_EQ(netw.frames_filtered(), 1u);
  EXPECT_EQ(netw.frames_duplicated(), 1u);
  EXPECT_EQ(netw.link_exited(0), 2u);  // dropped frame paid the wire
}

// --------------------------------------------------------------------------
// Per-frame pin: every delivery of a mixed schedule, on every path
// --------------------------------------------------------------------------

/// One delivery: source, destination and the simulated instant in ns.
struct Delivery {
  HostId src;
  HostId dst;
  std::int64_t at_ns;
  bool operator==(const Delivery&) const = default;
};

void PrintTo(const Delivery& d, std::ostream* os) {
  *os << '{' << d.src << ", " << d.dst << ", " << d.at_ns << '}';
}

/// What a network did with the pin schedule: every delivery in order, then
/// the sent, dropped, filtered and duplicated counters.
struct PinTrace {
  std::vector<Delivery> deliveries;
  std::array<std::uint64_t, 4> counters{};
};

/// Renders `trace` the way the expected tables below are written, so a
/// mismatch prints the table to compare (or to paste, after a deliberate
/// change of bits).
std::string render(const PinTrace& trace) {
  std::ostringstream os;
  for (std::size_t i = 0; i < trace.deliveries.size(); ++i) {
    const Delivery& d = trace.deliveries[i];
    os << (i % 4 == 0 ? "\n" : " ") << '{' << d.src << ", " << d.dst << ", " << d.at_ns << "},";
  }
  os << "\ncounters {" << trace.counters[0] << ", " << trace.counters[1] << ", "
     << trace.counters[2] << ", " << trace.counters[3] << "}\n";
  return os.str();
}

/// Five hosts under a fixed mixed schedule: unicasts and broadcasts of both
/// frame classes, a crash of host 4 (dead-pair absorption, UDP frames that
/// still reach the wire) and its restart, a CPU and a pipeline scale, and a
/// receiver-edge filter that drops 2 -> 0 and duplicates 0 -> 3. Half the
/// pipeline draws are zero, so the batched path's in-place arrival runs too.
PinTrace run_pin_schedule(bool batched, const topo::Topology* topology) {
  using Class = ContentionNetwork::FrameClass;
  NetworkParams params = NetworkParams::defaults();
  params.pipeline_latency = {0.5, 0.0, 0.0, 0.01, 0.03};
  params.batched_broadcast = batched;
  des::Simulator sim;
  ContentionNetwork netw{sim, des::RandomEngine{2002}, params, 5, topology};
  PinTrace trace;
  netw.set_deliver([&](const Packet& pkt) {
    trace.deliveries.push_back({pkt.src, pkt.dst, sim.now().ns()});
  });
  netw.set_frame_filter([](const Packet& pkt) {
    if (pkt.src == 2 && pkt.dst == 0) return ContentionNetwork::FrameFate::kDrop;
    if (pkt.src == 0 && pkt.dst == 3) return ContentionNetwork::FrameFate::kDuplicate;
    return ContentionNetwork::FrameFate::kDeliver;
  });
  const auto at = [&](double ms, auto action) {
    sim.schedule_at(des::TimePoint::origin() + des::Duration::from_ms(ms), action);
  };
  at(0.0, [&] {
    netw.broadcast(0, FrameBody{});
    netw.send(1, 3, FrameBody{}, Class::kSmall);
    netw.broadcast(2, FrameBody{});
    netw.broadcast(1, FrameBody{});
  });
  at(0.05, [&] { netw.send(3, 4, FrameBody{}); });
  at(0.40, [&] { netw.host_down(4); });
  at(0.41, [&] {
    for (int i = 0; i < 3; ++i) netw.send(0, 4, FrameBody{});  // one on the wire
    netw.broadcast(2, FrameBody{});
    netw.send(1, 4, FrameBody{}, Class::kSmall);
  });
  at(0.42, [&] { netw.broadcast(3, FrameBody{}, Class::kSmall); });
  at(0.60, [&] {
    netw.set_cpu_scale(1, 3.0);
    netw.broadcast(1, FrameBody{});
    netw.send(1, 0, FrameBody{});
  });
  at(0.90, [&] {
    netw.host_restart(4);
    netw.set_pipeline_scale(2.5);
    netw.send(0, 4, FrameBody{});
    netw.broadcast(4, FrameBody{});
  });
  at(1.20, [&] {
    netw.set_cpu_scale(1, 1.0);
    netw.broadcast(0, FrameBody{}, Class::kSmall);
    netw.send(3, 2, FrameBody{});
  });
  sim.run();
  trace.counters = {netw.frames_sent(), netw.frames_dropped(), netw.frames_filtered(),
                    netw.frames_duplicated()};
  return trace;
}

void expect_pinned(const PinTrace& actual, const std::vector<Delivery>& deliveries,
                   const std::array<std::uint64_t, 4>& counters) {
  EXPECT_EQ(actual.deliveries, deliveries) << render(actual);
  EXPECT_EQ(actual.counters, counters);
}

// Recorded before the hub became a route-table link, and unchanged by it: a
// change that moves one draw or one event shows here as a moved instant.
TEST(PerFramePinTest, HubDeliversEveryFrameAtItsPinnedInstant) {
  expect_pinned(run_pin_schedule(/*batched=*/false, nullptr),
                {
                    {0, 1, 150000}, {2, 1, 320856}, {0, 2, 388668}, {2, 3, 545000},
                    {1, 0, 568073}, {1, 3, 570000}, {3, 1, 587926}, {3, 0, 602531},
                    {0, 3, 660366}, {0, 3, 685366}, {3, 2, 852905}, {2, 1, 1235164},
                    {3, 4, 1274471}, {2, 3, 1294779}, {0, 4, 1350470}, {1, 2, 1473481},
                    {0, 4, 1491939}, {2, 4, 1567119}, {0, 4, 1620614}, {0, 1, 1629193},
                    {0, 2, 1714089}, {0, 3, 1715020}, {0, 3, 1740020}, {1, 3, 1765020},
                    {3, 2, 1861774}, {1, 4, 1883657}, {4, 0, 2100638}, {4, 1, 2151305},
                    {1, 4, 2218130}, {1, 0, 2411204}, {4, 2, 2476529}, {0, 4, 2487299},
                    {1, 2, 2592839}, {1, 3, 2634136}, {1, 4, 2767846}, {4, 3, 2774446},
                    {1, 0, 2825915},
                },
                {41, 6, 2, 2});
}

TEST(PerFramePinTest, BatchedHubDeliversEveryFrameAtItsPinnedInstant) {
  expect_pinned(run_pin_schedule(/*batched=*/true, nullptr),
                {
                    {1, 3, 58502}, {3, 4, 194054}, {1, 0, 540197}, {1, 3, 545000},
                    {1, 2, 561986}, {0, 2, 864346}, {0, 3, 889882}, {3, 0, 903686},
                    {0, 3, 914882}, {3, 2, 931500}, {0, 1, 1050000}, {3, 1, 1125000},
                    {1, 4, 1172552}, {2, 4, 1197552}, {2, 1, 1214171}, {2, 3, 1250000},
                    {1, 0, 1559152}, {1, 2, 1559152}, {1, 3, 1559152}, {1, 4, 1559152},
                    {3, 2, 1698905}, {4, 1, 1865390}, {4, 3, 1900040}, {0, 4, 1918099},
                    {4, 0, 1919600}, {4, 2, 1933883}, {1, 0, 2169730}, {2, 1, 2483503},
                    {2, 3, 2483503}, {2, 4, 2483503}, {0, 4, 2565818}, {0, 1, 2577977},
                    {0, 3, 2577977}, {0, 4, 2590818}, {0, 3, 2602977}, {0, 2, 2650945},
                },
                {41, 7, 2, 2});
}

// Two racks with a slow, shallow uplink: the burst at t = 0 overflows it.
TEST(PerFramePinTest, RoutedTopologyDeliversEveryFrameAtItsPinnedInstant) {
  topo::LinkParams uplink;
  uplink.latency_ms = 0.02;
  uplink.queue_limit = 1;
  const topo::Topology two_racks = topo::Topology::uniform(5, 2, {}, uplink);
  expect_pinned(run_pin_schedule(/*batched=*/false, &two_racks),
                {
                    {1, 3, 184609}, {3, 4, 230216}, {0, 1, 338441}, {0, 2, 535000},
                    {0, 3, 545000}, {0, 3, 570000}, {1, 2, 576693}, {2, 1, 600893},
                    {1, 0, 656795}, {2, 3, 740544}, {2, 1, 1144875}, {1, 2, 1326402},
                    {1, 0, 1367289}, {0, 4, 1387935}, {2, 3, 1420905}, {4, 0, 1525711},
                    {0, 2, 1595822}, {1, 0, 1628054}, {4, 2, 1681562}, {1, 4, 1725812},
                    {4, 3, 1738472}, {4, 1, 1750373}, {0, 1, 1775373}, {3, 2, 1906347},
                    {0, 4, 2054084},
                },
                {41, 17, 2, 1});
}

}  // namespace
}  // namespace sanperf::net
