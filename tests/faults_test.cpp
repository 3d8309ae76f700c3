// Tests of the declarative fault-injection subsystem: FaultPlan validation
// and JSON round-trips, FaultInjector event ordering on a live cluster
// (crash / recover / partition / loss / slowdown), the degenerate-plan
// equivalence with the paper's Table 1 crash runs, and thread-count
// bit-identicality of every registered fault scenario.
#include <gtest/gtest.h>

#include <any>
#include <map>
#include <string>
#include <vector>

#include "core/campaign.hpp"
#include "core/measurement.hpp"
#include "core/workload.hpp"
#include "faults/injector.hpp"
#include "faults/plan.hpp"
#include "runtime/cluster.hpp"
#include "runtime/message.hpp"

namespace sanperf::faults {
namespace {

// --- FaultPlan ---------------------------------------------------------------

FaultPlan sample_plan() {
  FaultPlan plan;
  plan.add(FaultPlan::crash(0, 0));
  plan.add(FaultPlan::crash_recover(1, 12.5, 30));
  plan.add(FaultPlan::partition({0, 2}, 10, 25));
  plan.add(FaultPlan::loss(5, 100, 0.0625, 0.03125));
  plan.add(FaultPlan::cpu_slow(2, 0, 50, 4));
  plan.add(FaultPlan::cpu_slow(-1, 60, 10, 2));  // every host
  plan.add(FaultPlan::pipeline_slow(20, kForeverMs, 1.5));
  return plan;
}

TEST(FaultPlanTest, JsonRoundTripIsExact) {
  const FaultPlan plan = sample_plan();
  const std::string json = plan.to_json();
  const FaultPlan back = FaultPlan::from_json(json);
  EXPECT_EQ(plan, back);
  EXPECT_EQ(json, back.to_json());
}

TEST(FaultPlanTest, ParsesHandwrittenJsonWithDefaults) {
  const FaultPlan plan = FaultPlan::from_json(R"({"events": [
    {"kind": "crash", "at_ms": 50, "host": 1},
    {"kind": "loss", "at_ms": 0, "duration_ms": 10, "loss_p": 0.5},
    {"kind": "partition", "at_ms": 1, "duration_ms": 2, "group": [0]}
  ]})");
  ASSERT_EQ(plan.events().size(), 3u);
  EXPECT_EQ(plan.events()[0].kind, FaultKind::kCrash);
  EXPECT_TRUE(plan.events()[0].permanent());  // omitted duration = permanent
  EXPECT_EQ(plan.events()[1].duplicate_p, 0.0);
  EXPECT_EQ(plan.events()[2].group, (std::vector<HostId>{0}));
  plan.validate(3);
}

TEST(FaultPlanTest, MembershipAndRollingKindsRoundTrip) {
  FaultPlan plan;
  plan.add(FaultPlan::add_host(3, 35));
  plan.add(FaultPlan::remove_host(1, 80));
  plan.add(FaultPlan::rolling_restart(30, 60, 150));
  plan.add(FaultPlan::rolling_restart(200, 10, 0));  // all hosts together
  const FaultPlan back = FaultPlan::from_json(plan.to_json());
  EXPECT_EQ(plan, back);
  EXPECT_EQ(back.events()[2].stagger_ms, 150.0);
  // Omitted stagger_ms reads back as 0 (simultaneous bounce).
  const FaultPlan hand = FaultPlan::from_json(
      R"({"events": [{"kind": "rolling_restart", "at_ms": 5, "duration_ms": 10}]})");
  EXPECT_EQ(hand.events()[0].stagger_ms, 0.0);
  // Membership changes are consensus decisions, not initial crashes, and
  // need no frame filtering.
  EXPECT_TRUE(plan.initially_down().empty());
  EXPECT_FALSE(plan.filters_frames());
}

TEST(FaultPlanTest, ValidateRejectsBadEvents) {
  const auto bad = [](FaultEvent e, std::size_t n = 3) {
    EXPECT_THROW(FaultPlan{{e}}.validate(n), std::invalid_argument);
  };
  bad(FaultPlan::crash(3, 0));                         // host out of range
  bad(FaultPlan::crash(-1, 0));                        // no target
  bad(FaultPlan::crash_recover(0, 0, 0));              // zero downtime
  bad(FaultPlan::partition({}, 0, 10));                // empty group
  bad(FaultPlan::partition({0, 1, 2}, 0, 10));         // covers every host
  bad(FaultPlan::partition({0, 0}, 0, 10));            // repeated host
  bad(FaultPlan::loss(0, 10, 1.5));                    // p > 1
  bad(FaultPlan::loss(0, 10, 0));                      // p = 0 window
  bad(FaultPlan::cpu_slow(0, 0, 10, 0));               // factor <= 0
  bad(FaultPlan::add_host(3, 0));                      // member out of range
  bad(FaultPlan::remove_host(-1, 0));                  // no target
  bad(FaultPlan::rolling_restart(0, kForeverMs, 10));  // needs finite downtime
  FaultEvent neg_stagger = FaultPlan::rolling_restart(0, 10, 1);
  neg_stagger.stagger_ms = -1;
  bad(neg_stagger);                                    // stagger >= 0
  EXPECT_THROW(FaultPlan::from_json("{}"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::from_json(R"({"events":[{"at_ms":1}]})"), std::invalid_argument);
}

TEST(FaultPlanTest, InitiallyDownAndPartitionQueries) {
  const FaultPlan plan = sample_plan();
  EXPECT_EQ(plan.initially_down(), (std::vector<HostId>{0}));  // crash at 0, not at 12.5
  EXPECT_TRUE(plan.filters_frames());
  EXPECT_TRUE(plan.partitioned_at(15, 0, 1));   // {0,2} vs {1,...}
  EXPECT_FALSE(plan.partitioned_at(15, 0, 2));  // same side
  EXPECT_FALSE(plan.partitioned_at(40, 0, 1));  // healed
  EXPECT_FALSE(FaultPlan{}.filters_frames());
}

// --- FaultInjector on a live cluster ----------------------------------------

runtime::ClusterConfig tiny_cluster(std::size_t n, std::uint64_t seed = 11) {
  runtime::ClusterConfig cfg;
  cfg.n = n;
  cfg.seed = seed;
  cfg.timers = net::TimerModel::ideal();
  cfg.network.wire_service = {1.0, 0.09, 0.09, 0.0, 0.0};
  cfg.network.pipeline_latency = {1.0, 0.0, 0.0, 0.0, 0.0};
  return cfg;
}

/// Counts deliveries; used to probe connectivity under faults.
class CounterLayer : public runtime::Layer {
 public:
  void on_message(const runtime::Message&) override { ++received; }
  int received = 0;
};

/// Counts crash/restart transitions; used to probe recovery boundaries.
class LifecycleLayer : public runtime::Layer {
 public:
  void on_message(const runtime::Message&) override {}
  void on_crash() override { ++crashes; }
  void on_restart() override { ++restarts; }
  int crashes = 0;
  int restarts = 0;
};

void send_app(runtime::Cluster& cluster, runtime::HostId from, runtime::HostId to) {
  runtime::Message m;
  m.kind = runtime::MsgKind::kApp;
  cluster.process(from).send(m, to);
}

TEST(FaultInjectorTest, CrashRecoverySchedule) {
  runtime::Cluster cluster{tiny_cluster(2)};
  auto& r1 = cluster.process(1).add_layer<CounterLayer>();
  cluster.process(0).add_layer<CounterLayer>();
  FaultInjector injector{cluster, FaultPlan{}.add(FaultPlan::crash_recover(1, 10, 20))};
  injector.arm();

  cluster.run_until(des::TimePoint::origin() + des::Duration::from_ms(15));
  EXPECT_TRUE(cluster.process(1).crashed());  // down inside [10, 30)
  send_app(cluster, 0, 1);
  cluster.run_until(des::TimePoint::origin() + des::Duration::from_ms(25));
  EXPECT_EQ(r1.received, 0);

  cluster.run_until(des::TimePoint::origin() + des::Duration::from_ms(35));
  EXPECT_FALSE(cluster.process(1).crashed());  // warm restart at 30
  send_app(cluster, 0, 1);
  cluster.run_until(des::TimePoint::origin() + des::Duration::from_ms(45));
  EXPECT_EQ(r1.received, 1);
}

TEST(FaultInjectorTest, ImmediateCrashMatchesCrashInitially) {
  runtime::Cluster cluster{tiny_cluster(2)};
  cluster.process(0).add_layer<CounterLayer>();
  cluster.process(1).add_layer<CounterLayer>();
  FaultInjector injector{cluster, FaultPlan{{FaultPlan::crash(0, 0)}}};
  injector.arm();
  EXPECT_TRUE(cluster.process(0).crashed());  // before the first event runs
  cluster.run_until(des::TimePoint::origin() + des::Duration::from_ms(5));
  EXPECT_EQ(cluster.process(0).messages_sent(), 0u);
}

TEST(FaultInjectorTest, SameInstantBoundaryRecoversBeforeCrashing) {
  // Two windows sharing the instant 150 ms: the first window's recovery and
  // the second's crash. The injector arms every recovery before any crash,
  // so the host warm-restarts (running on_restart) and then goes straight
  // back down -- in either plan order.
  for (const bool reversed : {false, true}) {
    FaultPlan plan;
    if (reversed) {
      plan.add(FaultPlan::crash_recover(0, 150, 50));
      plan.add(FaultPlan::crash_recover(0, 100, 50));
    } else {
      plan.add(FaultPlan::crash_recover(0, 100, 50));
      plan.add(FaultPlan::crash_recover(0, 150, 50));
    }
    runtime::Cluster cluster{tiny_cluster(2)};
    auto& life = cluster.process(0).add_layer<LifecycleLayer>();
    cluster.process(1).add_layer<LifecycleLayer>();
    FaultInjector injector{cluster, plan};
    injector.arm();
    cluster.run_until(des::TimePoint::origin() + des::Duration::from_ms(175));
    EXPECT_TRUE(cluster.process(0).crashed()) << reversed;  // inside [150, 200)
    cluster.run_until(des::TimePoint::origin() + des::Duration::from_ms(210));
    EXPECT_FALSE(cluster.process(0).crashed()) << reversed;
    EXPECT_EQ(life.crashes, 2) << reversed;
    EXPECT_EQ(life.restarts, 2) << reversed;  // bounced at 150, final at 200
  }
}

TEST(FaultInjectorTest, RestartStormBouncesOneHostRepeatedly) {
  // Five contiguous crash/recover windows on host 1: every interior
  // boundary is a recover-then-crash tie, and the host ends up alive with
  // exactly five restarts.
  FaultPlan plan;
  for (int i = 0; i < 5; ++i) plan.add(FaultPlan::crash_recover(1, 10 + 20 * i, 20));
  runtime::Cluster cluster{tiny_cluster(2)};
  cluster.process(0).add_layer<LifecycleLayer>();
  auto& life = cluster.process(1).add_layer<LifecycleLayer>();
  FaultInjector injector{cluster, plan};
  injector.arm();
  cluster.run_until(des::TimePoint::origin() + des::Duration::from_ms(105));
  EXPECT_TRUE(cluster.process(1).crashed());  // last window [90, 110)
  cluster.run_until(des::TimePoint::origin() + des::Duration::from_ms(120));
  EXPECT_FALSE(cluster.process(1).crashed());
  EXPECT_EQ(life.crashes, 5);
  EXPECT_EQ(life.restarts, 5);
}

TEST(FaultInjectorTest, RollingRestartStaggersHosts) {
  // rolling_restart(10, 20, 30) on n = 3: host h is down over
  // [10 + 30h, 30 + 30h) -- one host at a time, each restarted once.
  runtime::Cluster cluster{tiny_cluster(3)};
  std::vector<LifecycleLayer*> lives;
  for (runtime::HostId h = 0; h < 3; ++h) {
    lives.push_back(&cluster.process(h).add_layer<LifecycleLayer>());
  }
  FaultInjector injector{cluster, FaultPlan{}.add(FaultPlan::rolling_restart(10, 20, 30))};
  injector.arm();
  const auto probe = [&](double ms, bool h0, bool h1, bool h2) {
    cluster.run_until(des::TimePoint::origin() + des::Duration::from_ms(ms));
    EXPECT_EQ(cluster.process(0).crashed(), h0) << ms;
    EXPECT_EQ(cluster.process(1).crashed(), h1) << ms;
    EXPECT_EQ(cluster.process(2).crashed(), h2) << ms;
  };
  probe(15, true, false, false);
  probe(45, false, true, false);
  probe(75, false, false, true);
  probe(95, false, false, false);
  for (const auto* life : lives) {
    EXPECT_EQ(life->crashes, 1);
    EXPECT_EQ(life->restarts, 1);
  }
}

TEST(FaultInjectorTest, PartitionDropsAcrossSidesThenHeals) {
  runtime::Cluster cluster{tiny_cluster(3)};
  std::vector<CounterLayer*> layers;
  for (runtime::HostId h = 0; h < 3; ++h) {
    layers.push_back(&cluster.process(h).add_layer<CounterLayer>());
  }
  FaultInjector injector{cluster, FaultPlan{{FaultPlan::partition({0}, 5, 10)}}};
  injector.arm();
  cluster.run_until(des::TimePoint::origin() + des::Duration::from_ms(6));

  send_app(cluster, 0, 1);  // across the cut: dropped
  send_app(cluster, 1, 0);  // across the cut: dropped
  send_app(cluster, 1, 2);  // inside the majority side: delivered
  cluster.run_until(des::TimePoint::origin() + des::Duration::from_ms(14));
  EXPECT_EQ(layers[0]->received, 0);
  EXPECT_EQ(layers[1]->received, 0);
  EXPECT_EQ(layers[2]->received, 1);
  EXPECT_EQ(injector.partition_drops(), 2u);

  cluster.run_until(des::TimePoint::origin() + des::Duration::from_ms(16));
  send_app(cluster, 0, 1);  // healed at 15
  cluster.run_until(des::TimePoint::origin() + des::Duration::from_ms(20));
  EXPECT_EQ(layers[1]->received, 1);
}

TEST(FaultInjectorTest, LossAndDuplicationWindows) {
  runtime::Cluster cluster{tiny_cluster(2)};
  cluster.process(0).add_layer<CounterLayer>();
  auto& r1 = cluster.process(1).add_layer<CounterLayer>();
  // Certain loss in [0, 10), certain duplication in [20, 30).
  FaultPlan plan;
  plan.add(FaultPlan::loss(0, 10, 1.0));
  plan.add(FaultPlan::loss(20, 10, 0.0001, 1.0));
  // A p ~ 0 loss window must not mask the duplication draw behind it.
  FaultInjector injector{cluster, plan};
  injector.arm();

  cluster.run_until(des::TimePoint::origin());
  send_app(cluster, 0, 1);  // lost
  cluster.run_until(des::TimePoint::origin() + des::Duration::from_ms(12));
  EXPECT_EQ(r1.received, 0);
  EXPECT_EQ(injector.frames_lost(), 1u);

  send_app(cluster, 0, 1);  // outside every window: delivered once
  cluster.run_until(des::TimePoint::origin() + des::Duration::from_ms(21));
  EXPECT_EQ(r1.received, 1);

  send_app(cluster, 0, 1);  // duplicated
  cluster.run_until(des::TimePoint::origin() + des::Duration::from_ms(35));
  EXPECT_EQ(r1.received, 3);
  EXPECT_EQ(injector.frames_duplicated(), 1u);
}

TEST(FaultInjectorTest, SlowdownAppliesAndResets) {
  runtime::Cluster cluster{tiny_cluster(2)};
  cluster.process(0).add_layer<CounterLayer>();
  cluster.process(1).add_layer<CounterLayer>();
  FaultInjector injector{cluster, FaultPlan{{FaultPlan::cpu_slow(0, 5, 10, 4)}}};
  injector.arm();
  cluster.run_until(des::TimePoint::origin() + des::Duration::from_ms(6));
  EXPECT_DOUBLE_EQ(cluster.network().cpu_scale(0), 4.0);
  EXPECT_DOUBLE_EQ(cluster.network().cpu_scale(1), 1.0);
  cluster.run_until(des::TimePoint::origin() + des::Duration::from_ms(16));
  EXPECT_DOUBLE_EQ(cluster.network().cpu_scale(0), 1.0);  // reset at 15
}

TEST(FaultInjectorTest, OverlappingSlowdownsComposeByLastActive) {
  // A finite window's end must restore the still-active outer window's
  // factor, not blindly reset to nominal.
  runtime::Cluster cluster{tiny_cluster(2)};
  cluster.process(0).add_layer<CounterLayer>();
  cluster.process(1).add_layer<CounterLayer>();
  FaultPlan plan;
  plan.add(FaultPlan::cpu_slow(0, 0, kForeverMs, 4));
  plan.add(FaultPlan::cpu_slow(0, 10, 10, 2));
  FaultInjector injector{cluster, plan};
  injector.arm();
  cluster.run_until(des::TimePoint::origin() + des::Duration::from_ms(5));
  EXPECT_DOUBLE_EQ(cluster.network().cpu_scale(0), 4.0);
  cluster.run_until(des::TimePoint::origin() + des::Duration::from_ms(15));
  EXPECT_DOUBLE_EQ(cluster.network().cpu_scale(0), 2.0);  // inner window wins
  cluster.run_until(des::TimePoint::origin() + des::Duration::from_ms(25));
  EXPECT_DOUBLE_EQ(cluster.network().cpu_scale(0), 4.0);  // outer one restored
}

TEST(FaultInjectorTest, RejectsDoubleArmAndBadPlans) {
  runtime::Cluster cluster{tiny_cluster(2)};
  FaultInjector injector{cluster, FaultPlan{}};
  injector.arm();
  EXPECT_THROW(injector.arm(), std::logic_error);
  EXPECT_THROW((FaultInjector{cluster, FaultPlan{{FaultPlan::crash(5, 0)}}}),
               std::invalid_argument);
}

// --- Degenerate plan == the paper's crash runs -------------------------------

TEST(FaultHarnessTest, SingleCrashPlanReproducesTable1ExecutionsBitForBit) {
  // The acceptance gate: a one-event plan (coordinator crash at t = 0) must
  // reproduce the class-2 coordinator-crash measurement exactly -- same
  // seeds, same draws, same bits -- for both the empty and crashed cases.
  const auto params = net::NetworkParams::defaults();
  const auto timers = net::TimerModel::ideal();
  const FaultPlan crash0{{FaultPlan::crash(0, 0)}};
  const FaultPlan empty;
  core::WorkloadConfig cfg;
  cfg.n = 5;
  cfg.network = params;
  cfg.timers = timers;
  for (std::size_t k = 0; k < 25; ++k) {
    const std::uint64_t seed = des::SeedSplitter{424242, "exec"}.stream_seed(k);
    const auto plain = core::run_latency_execution(5, params, timers, 0, k, seed);
    cfg.fault_plan = &crash0;
    const auto faulty = core::run_one_shot(cfg, k, seed);
    ASSERT_EQ(plain.latency_ms.has_value(), faulty.latency_ms.has_value()) << k;
    if (plain.latency_ms) EXPECT_EQ(*plain.latency_ms, *faulty.latency_ms) << k;
    EXPECT_EQ(plain.rounds, faulty.rounds) << k;

    const auto no_fault = core::run_latency_execution(5, params, timers, -1, k, seed);
    cfg.fault_plan = &empty;
    const auto empty_plan = core::run_one_shot(cfg, k, seed);
    ASSERT_EQ(no_fault.latency_ms.has_value(), empty_plan.latency_ms.has_value()) << k;
    if (no_fault.latency_ms) EXPECT_EQ(*no_fault.latency_ms, *empty_plan.latency_ms) << k;
  }
}

TEST(FaultHarnessTest, Class3RunSurvivesPermanentInitialCrash) {
  // The initially-crashed host never ran on_start, so its detector has no
  // histories; the QoS fold must skip it instead of indexing past the end.
  const FaultPlan plan{{FaultPlan::crash(0, 0)}};
  const auto run = core::run_fault_class3(3, net::NetworkParams::defaults(),
                                          net::TimerModel::ideal(), 10.0, 8, plan, 7);
  EXPECT_EQ(run.executions.size(), 8u);
  for (const auto& exec : run.executions) EXPECT_TRUE(exec.decided());
}

TEST(FaultHarnessTest, MrLosesVolatileStateAcrossRecoveryLikeCt) {
  // Crash + warm restart mid-execution under MR: the rebooted participant
  // re-enters state-free (ConsensusLayer::on_restart) and the majority still
  // decides.
  const FaultPlan plan{{FaultPlan::crash_recover(1, 1.2, 2.0)}};
  core::WorkloadConfig cfg;
  cfg.timers = net::TimerModel::ideal();
  cfg.algorithm = core::Algorithm::kMostefaouiRaynal;
  cfg.fault_plan = &plan;
  const auto out = core::run_one_shot(cfg, 0, 123);
  EXPECT_TRUE(out.latency_ms.has_value());
}

// --- Registered fault scenarios ----------------------------------------------

core::Scale tiny_scale() {
  auto scale = core::Scale::quick();
  scale.class1_executions = 24;
  scale.class3_runs = 2;
  scale.class3_executions = 16;
  scale.sim_ns = {3};
  return scale;
}

TEST(FaultScenarioTest, GlobalRegistryListsFaultScenarios) {
  const auto& registry = core::CampaignRegistry::global();
  for (const char* name : {"crash_recovery_latency", "partition_heal", "lossy_consensus",
                           "slowdown_sweep", "recovery_under_load", "rolling_restart",
                           "membership_growth"}) {
    const auto* spec = registry.find(name);
    ASSERT_NE(spec, nullptr) << name;
    EXPECT_FALSE(spec->needs_calibration) << name;
  }
  // The paper artifacts are listed too.
  EXPECT_NE(registry.find("table1"), nullptr);
}

TEST(FaultScenarioTest, EveryFaultScenarioThreadCountInvariant) {
  const core::ReplicationRunner one{1};
  const core::ReplicationRunner four{4};
  const auto& registry = core::CampaignRegistry::global();
  const std::map<std::string, std::map<std::string, std::string>> restrictions = {
      {"crash_recovery_latency", {{"downtime_ms", "60"}}},
      {"partition_heal", {{"partition_ms", "60"}}},
      {"lossy_consensus", {{"loss_pct", "0,5"}, {"algorithm", "ct"}}},
      {"slowdown_sweep", {{"factor", "1,4"}, {"resource", "cpu"}}},
  };
  for (const auto& [name, overrides] : restrictions) {
    core::RunOptions options;
    options.scale = tiny_scale();
    options.axis_overrides = overrides;
    options.runner = &one;
    const auto table1 = registry.run(name, options);
    options.runner = &four;
    const auto table4 = registry.run(name, options);
    EXPECT_EQ(table1.to_csv(), table4.to_csv()) << name;  // bit-identical
    EXPECT_GT(table1.row_count(), 0u) << name;
  }
}

TEST(FaultScenarioTest, ExplicitFaultPlanOverridesAxisPlans) {
  // A --fault-plan style override: lossy_consensus with an explicit empty
  // plan must reproduce its loss_pct = 0 baseline on every row.
  const core::ReplicationRunner one{1};
  core::RunOptions options;
  options.scale = tiny_scale();
  options.axis_overrides = {{"loss_pct", "0,10"}, {"algorithm", "ct"}};
  options.runner = &one;
  const auto& registry = core::CampaignRegistry::global();
  const auto normal = registry.run("lossy_consensus", options);
  options.fault_plan = FaultPlan{};  // overrides the loss windows
  const auto overridden = registry.run("lossy_consensus", options);

  ASSERT_EQ(overridden.row_count(), 2u);
  const auto ci = [](const core::ResultTable& t, std::size_t r) {
    return std::get<stats::MeanCI>(t.at(r, "latency_ms")).mean;
  };
  // The pct = 0 row is loss-free either way: same seeds, same bits.
  EXPECT_EQ(ci(overridden, 0), ci(normal, 0));
  // The pct = 10 row ran loss-free under the override, so it differs from
  // its lossy twin.
  EXPECT_NE(ci(normal, 1), ci(overridden, 1));
}

}  // namespace
}  // namespace sanperf::faults
