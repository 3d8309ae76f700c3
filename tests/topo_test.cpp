// Tests for the topology subsystem (src/topo) and everything stacked on
// it: route-table compilation, JSON round-trip bit-exactness, the
// single-rack topology as the hub (bit for bit the run without one),
// domain-event lowering against the failure-domain tree, the
// Weibull plan synthesizer's determinism, and 1-vs-4-thread CSV equality
// of the two topology scenarios.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>

#include "core/campaign.hpp"
#include "core/workload.hpp"
#include "des/random.hpp"
#include "des/simulator.hpp"
#include "faults/lowering.hpp"
#include "faults/plan.hpp"
#include "faults/synth.hpp"
#include "net/network.hpp"
#include "topo/topology.hpp"

namespace {

using namespace sanperf;
using topo::LinkParams;
using topo::Rack;
using topo::RouteTable;
using topo::Topology;

// --------------------------------------------------------------------------
// Topology construction & the failure-domain tree
// --------------------------------------------------------------------------

TEST(TopologyTest, UniformSplitsContiguouslyWithRemainderFirst) {
  const Topology t = Topology::uniform(5, 2);
  ASSERT_EQ(t.racks().size(), 2u);
  EXPECT_EQ(t.racks()[0].hosts, (std::vector<topo::HostId>{0, 1, 2}));
  EXPECT_EQ(t.racks()[1].hosts, (std::vector<topo::HostId>{3, 4}));
  EXPECT_EQ(t.n_hosts(), 5u);
  EXPECT_EQ(t.rack_of(0), 0u);
  EXPECT_EQ(t.rack_of(2), 0u);
  EXPECT_EQ(t.rack_of(3), 1u);
  EXPECT_EQ(t.hosts_in_rack(1), (std::vector<topo::HostId>{3, 4}));
}

TEST(TopologyTest, SingleHubIsDegenerate) {
  const Topology t = Topology::single_hub(4);
  ASSERT_EQ(t.racks().size(), 1u);
  EXPECT_EQ(t.racks()[0].hosts.size(), 4u);
  EXPECT_EQ(t.racks()[0].access, LinkParams{});
  EXPECT_EQ(t.racks()[0].uplink, LinkParams{});
}

TEST(TopologyTest, ValidationRejectsBadHostSets) {
  // Host 1 appears twice, host 2 never.
  EXPECT_THROW((Topology{"dup", {Rack{{0, 1}, {}, {}}, Rack{{1}, {}, {}}}}),
               std::invalid_argument);
  // Hosts must be exactly 0..n-1 (a gap means some host is unroutable).
  EXPECT_THROW((Topology{"gap", {Rack{{0, 2}, {}, {}}}}), std::invalid_argument);
  EXPECT_THROW((Topology{"empty-rack", {Rack{{0, 1}, {}, {}}, Rack{{}, {}, {}}}}),
               std::invalid_argument);
}

TEST(TopologyTest, ValidationRejectsBadLinkParams) {
  // Each rejection names the rack and the field.
  const auto message = [](const auto& build) {
    try {
      build();
    } catch (const std::invalid_argument& e) {
      return std::string{e.what()};
    }
    return std::string{"accepted"};
  };
  LinkParams negative_latency;
  negative_latency.latency_ms = -1;
  LinkParams free_service;
  free_service.service_scale = 0;
  LinkParams negative_service;
  negative_service.service_scale = -0.5;
  LinkParams nan_latency;
  nan_latency.latency_ms = std::nan("");
  LinkParams infinite_service;
  infinite_service.service_scale = std::numeric_limits<double>::infinity();

  EXPECT_EQ(message([&] { Topology{"t", {Rack{{0}, {}, {}}, Rack{{1}, {}, negative_latency}}}; }),
            "Topology: rack 1 uplink.latency_ms must be finite and >= 0");
  EXPECT_EQ(message([&] { Topology{"t", {Rack{{0, 1}, free_service, {}}}}; }),
            "Topology: rack 0 access.service_scale must be finite and > 0");
  EXPECT_EQ(message([&] { (void)Topology::uniform(4, 2, {}, negative_service); }),
            "Topology: rack 0 uplink.service_scale must be finite and > 0");
  EXPECT_EQ(message([&] { (void)Topology::uniform(4, 2, nan_latency, {}); }),
            "Topology: rack 0 access.latency_ms must be finite and >= 0");
  EXPECT_EQ(message([&] { (void)Topology::uniform(4, 2, {}, infinite_service); }),
            "Topology: rack 0 uplink.service_scale must be finite and > 0");
  // Zero latency and any positive scale stay valid.
  LinkParams fast;
  fast.service_scale = 1e-3;
  EXPECT_NO_THROW((void)Topology::uniform(4, 2, LinkParams{}, fast));
  // In range but on a single rack, which is the hub: no edge to apply to.
  LinkParams shallow;
  shallow.queue_limit = 8;
  LinkParams slow;
  slow.latency_ms = 0.1;
  const std::string hub = " must keep its default: a one-rack topology is the single hub";
  EXPECT_EQ(message([&] { (void)Topology::uniform(4, 1, {}, slow); }),
            "Topology: rack 0 uplink.latency_ms" + hub);
  EXPECT_EQ(message([&] { (void)Topology::uniform(4, 1, fast, {}); }),
            "Topology: rack 0 access.service_scale" + hub);
  EXPECT_EQ(message([&] { (void)Topology::uniform(4, 1, shallow, slow); }),
            "Topology: rack 0 access.queue_limit" + hub);
  EXPECT_EQ(message([] {
              (void)Topology::from_json(
                  R"({"name":"t","racks":[{"hosts":[0,1],"uplink":{"latency_ms":0.5}}]})");
            }),
            "Topology: rack 0 uplink.latency_ms" + hub);
}

TEST(TopologyJsonTest, RejectsBadLinkParams) {
  const auto parse = [](const std::string& uplink) {
    return std::string{R"({"name":"t","racks":[{"hosts":[0]},{"hosts":[1],"uplink":)"} +
           uplink + "}]}";
  };
  const auto message = [](const std::string& json) {
    try {
      (void)Topology::from_json(json);
    } catch (const std::invalid_argument& e) {
      return std::string{e.what()};
    }
    return std::string{"accepted"};
  };
  EXPECT_EQ(message(parse(R"({"latency_ms":-1})")),
            "Topology: rack 1 uplink.latency_ms must be finite and >= 0");
  EXPECT_EQ(message(parse(R"({"service_scale":0})")),
            "Topology: rack 1 uplink.service_scale must be finite and > 0");
  EXPECT_EQ(message(parse(R"({"queue_limit":2.5})")),
            "Topology::from_json: rack 1 uplink.queue_limit must be an integer >= 0");
  EXPECT_EQ(message(parse(R"({"queue_limit":-3})")),
            "Topology::from_json: rack 1 uplink.queue_limit must be an integer >= 0");
  EXPECT_EQ(message(parse(R"({"latency_ms":"slow"})")),
            "Topology::from_json: rack 1 uplink.latency_ms: expected a number");
  EXPECT_EQ(message(R"({"name":"t","racks":[{"hosts":[0,0.5]}]})"),
            "Topology::from_json: bad host id");
  EXPECT_EQ(Topology::from_json(parse(R"({"queue_limit":2})")).racks()[1].uplink.queue_limit,
            2u);
}

// --------------------------------------------------------------------------
// Route-table compilation
// --------------------------------------------------------------------------

TEST(RouteTableTest, SameRackRoutesTakeTwoAccessHops) {
  const RouteTable routes{Topology::uniform(5, 2)};
  // Links: access edges 0..4 (one per host), then uplinks 5 (rack 0) and
  // 6 (rack 1).
  EXPECT_EQ(routes.link_count(), 7u);
  const auto& r = routes.route(0, 2);
  ASSERT_EQ(r.hops, 2u);
  EXPECT_EQ(r.links[0], 0u);
  EXPECT_EQ(r.links[1], 2u);
  EXPECT_FALSE(routes.crosses_racks(0, 2));
}

TEST(RouteTableTest, CrossRackRoutesClimbBothUplinks) {
  const RouteTable routes{Topology::uniform(5, 2)};
  const auto& r = routes.route(1, 4);
  ASSERT_EQ(r.hops, 4u);
  EXPECT_EQ(r.links[0], 1u);  // src access
  EXPECT_EQ(r.links[1], 5u);  // rack 0 uplink
  EXPECT_EQ(r.links[2], 6u);  // rack 1 uplink
  EXPECT_EQ(r.links[3], 4u);  // dst access
  EXPECT_TRUE(routes.crosses_racks(1, 4));
  // And the reverse direction mirrors it.
  const auto& back = routes.route(4, 1);
  ASSERT_EQ(back.hops, 4u);
  EXPECT_EQ(back.links[0], 4u);
  EXPECT_EQ(back.links[1], 6u);
  EXPECT_EQ(back.links[2], 5u);
  EXPECT_EQ(back.links[3], 1u);
}

TEST(RouteTableTest, SingleRackIsOneHubLinkCrossedInOneHop) {
  for (const RouteTable& routes : {RouteTable{Topology::single_hub(4)}, RouteTable{4}}) {
    ASSERT_EQ(routes.link_count(), 1u);
    EXPECT_EQ(routes.link(0).type, RouteTable::LinkType::kHub);
    EXPECT_EQ(routes.link(0).params, LinkParams{});
    EXPECT_EQ(routes.link_name(0), "hub");
    for (topo::HostId src = 0; src < 4; ++src) {
      for (topo::HostId dst = 0; dst < 4; ++dst) {
        if (src == dst) continue;
        const auto& r = routes.route(src, dst);
        ASSERT_EQ(r.hops, 1u);
        EXPECT_EQ(r.links[0], 0u);
        EXPECT_FALSE(routes.crosses_racks(src, dst));
      }
    }
  }
}

TEST(RouteTableTest, LinksCarryTheirEdgeParamsAndNames) {
  LinkParams access;
  access.latency_ms = 0.01;
  LinkParams uplink;
  uplink.latency_ms = 0.5;
  uplink.service_scale = 0.25;
  uplink.queue_limit = 8;
  const RouteTable routes{Topology::uniform(4, 2, access, uplink)};
  EXPECT_EQ(routes.link(3).type, RouteTable::LinkType::kAccess);
  EXPECT_EQ(routes.link(3).owner, 3u);
  EXPECT_EQ(routes.link(3).params, access);
  EXPECT_EQ(routes.link(5).type, RouteTable::LinkType::kUplink);
  EXPECT_EQ(routes.link(5).owner, 1u);
  EXPECT_EQ(routes.link(5).params, uplink);
  EXPECT_EQ(routes.link_name(3), "access:3");
  EXPECT_EQ(routes.link_name(5), "uplink:1");
}

// --------------------------------------------------------------------------
// JSON round-trip
// --------------------------------------------------------------------------

TEST(TopologyJsonTest, RoundTripsBitForBit) {
  LinkParams uplink;
  uplink.latency_ms = 0.123456789012345;  // exercises %.17g fidelity
  uplink.service_scale = 0.5;
  uplink.queue_limit = 32;
  const Topology t = Topology::uniform(5, 2, LinkParams{}, uplink);
  const std::string json = t.to_json();
  const Topology back = Topology::from_json(json);
  EXPECT_EQ(back, t);
  EXPECT_EQ(back.to_json(), json);  // canonical form: stable under re-parse
}

TEST(TopologyJsonTest, SingleHubRoundTrips) {
  const Topology t = Topology::single_hub(3);
  EXPECT_EQ(Topology::from_json(t.to_json()), t);
}

// --------------------------------------------------------------------------
// A single-rack topology is the hub: the same run as no topology, bit for bit
// --------------------------------------------------------------------------

core::WorkloadResult run_quick_stream(std::shared_ptr<const Topology> topology) {
  core::WorkloadConfig cfg;
  cfg.n = 5;
  cfg.network = net::NetworkParams::defaults();
  cfg.timers = net::TimerModel::ideal();
  cfg.topology = std::move(topology);
  cfg.seed = 20020612;
  core::WorkloadSpec stream;
  stream.arrivals = core::ArrivalProcess::kOpenLoop;
  stream.offered_per_s = 400;
  stream.warmup = 10;
  stream.measured = 60;
  return core::run_workload(cfg, stream);
}

TEST(TopologyDegeneracyTest, SingleHubTopologyMatchesNullTopologyBitForBit) {
  const auto base = run_quick_stream(nullptr);
  const auto degenerate = run_quick_stream(std::make_shared<const Topology>(Topology::single_hub(5)));
  ASSERT_EQ(degenerate.instances.size(), base.instances.size());
  for (std::size_t i = 0; i < base.instances.size(); ++i) {
    ASSERT_EQ(degenerate.instances[i].latency_ms.has_value(),
              base.instances[i].latency_ms.has_value());
    if (base.instances[i].latency_ms) {
      EXPECT_EQ(*degenerate.instances[i].latency_ms, *base.instances[i].latency_ms);
    }
    EXPECT_EQ(degenerate.instances[i].start_ms, base.instances[i].start_ms);
  }
  EXPECT_EQ(degenerate.stats.mean_latency_ms, base.stats.mean_latency_ms);
  EXPECT_EQ(degenerate.stats.p95_latency_ms, base.stats.p95_latency_ms);
  EXPECT_EQ(degenerate.stats.delivered_per_s, base.stats.delivered_per_s);
  EXPECT_EQ(degenerate.stats.decided, base.stats.decided);
  EXPECT_EQ(degenerate.stats.undecided, base.stats.undecided);
}

TEST(TopologyDegeneracyTest, MultiRackTopologyDiverges) {
  // The inverse control: a genuinely routed 2-rack topology must NOT
  // reproduce the hub trajectory (otherwise the routed path is dead code).
  LinkParams uplink;
  uplink.latency_ms = 0.5;
  const auto base = run_quick_stream(nullptr);
  const auto routed =
      run_quick_stream(std::make_shared<const Topology>(Topology::uniform(5, 2, {}, uplink)));
  EXPECT_NE(routed.stats.mean_latency_ms, base.stats.mean_latency_ms);
}

TEST(TopologyDegeneracyTest, BatchedBroadcastIsRejectedOnMultiRackTopologies) {
  des::Simulator sim;
  auto params = net::NetworkParams::defaults();
  params.batched_broadcast = true;
  const Topology two_racks = Topology::uniform(4, 2);
  try {
    net::ContentionNetwork network{sim, des::RandomEngine{1}, params, 4, &two_racks};
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string{e.what()},
              "ContentionNetwork: batched_broadcast coalesces on the single hub; topology '" +
                  two_racks.name() + "' has 2 racks");
  }
  // The single hub, with or without an explicit one-rack topology, takes it.
  const Topology hub = Topology::single_hub(4);
  EXPECT_NO_THROW((net::ContentionNetwork{sim, des::RandomEngine{1}, params, 4, &hub}));
  EXPECT_NO_THROW((net::ContentionNetwork{sim, des::RandomEngine{1}, params, 4}));
}

// --------------------------------------------------------------------------
// Domain-event lowering against the failure-domain tree
// --------------------------------------------------------------------------

TEST(LoweringTest, KillRackExpandsToPerHostCrashes) {
  const auto plan = faults::FaultPlan{}.add(faults::FaultPlan::kill_rack(1, 100.0, 50.0));
  const auto lowered = faults::lower_plan(plan, Topology::uniform(5, 2));
  ASSERT_EQ(lowered.events().size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(lowered.events()[i].kind, faults::FaultKind::kCrash);
    EXPECT_EQ(lowered.events()[i].at_ms, 100.0);
    EXPECT_EQ(lowered.events()[i].duration_ms, 50.0);
    EXPECT_EQ(lowered.events()[i].domain, -1);
  }
  EXPECT_EQ(lowered.events()[0].host, 3);
  EXPECT_EQ(lowered.events()[1].host, 4);
  lowered.validate(5);  // per-host form passes host-count validation
}

TEST(LoweringTest, PartitionSwitchBecomesRackGroupPartition) {
  const auto plan =
      faults::FaultPlan{}.add(faults::FaultPlan::partition_switch(0, 20.0, 30.0));
  const auto lowered = faults::lower_plan(plan, Topology::uniform(5, 2));
  ASSERT_EQ(lowered.events().size(), 1u);
  const auto& e = lowered.events()[0];
  EXPECT_EQ(e.kind, faults::FaultKind::kPartition);
  EXPECT_EQ(e.group, (std::vector<faults::HostId>{0, 1, 2}));
  EXPECT_EQ(e.at_ms, 20.0);
  EXPECT_EQ(e.duration_ms, 30.0);
}

TEST(LoweringTest, DomainLossScopesToRackGroup) {
  const auto plan =
      faults::FaultPlan{}.add(faults::FaultPlan::domain_loss(1, 10.0, 40.0, 0.25));
  const auto lowered = faults::lower_plan(plan, Topology::uniform(5, 2));
  ASSERT_EQ(lowered.events().size(), 1u);
  const auto& e = lowered.events()[0];
  EXPECT_EQ(e.kind, faults::FaultKind::kLoss);
  EXPECT_EQ(e.group, (std::vector<faults::HostId>{3, 4}));
  EXPECT_EQ(e.loss_p, 0.25);
}

TEST(LoweringTest, OutOfRangeRackThrows) {
  const auto plan = faults::FaultPlan{}.add(faults::FaultPlan::kill_rack(2, 100.0, 50.0));
  EXPECT_THROW((void)faults::lower_plan(plan, Topology::uniform(5, 2)),
               std::invalid_argument);
}

TEST(LoweringTest, HostScopedPlansPassThroughUnchanged) {
  const auto plan = faults::FaultPlan{}
                        .add(faults::FaultPlan::crash_recover(0, 50.0, 20.0))
                        .add(faults::FaultPlan::loss(10.0, 40.0, 0.1));
  EXPECT_FALSE(plan.has_domain_events());
  const auto lowered = faults::lower_plan(plan, Topology::uniform(5, 2));
  EXPECT_EQ(lowered.to_json(), plan.to_json());
}

TEST(LoweringTest, DomainEventsRoundTripThroughJson) {
  const auto plan = faults::FaultPlan{}
                        .add(faults::FaultPlan::kill_rack(1, 100.0, 50.0))
                        .add(faults::FaultPlan::partition_switch(0, 200.0, 25.0))
                        .add(faults::FaultPlan::domain_loss(1, 300.0, 50.0, 0.2, 0.05));
  const std::string json = plan.to_json();
  EXPECT_EQ(faults::FaultPlan::from_json(json).to_json(), json);
}

// --------------------------------------------------------------------------
// Weibull plan synthesis
// --------------------------------------------------------------------------

faults::WeibullPlanSpec rack_spec() {
  faults::WeibullPlanSpec spec;
  spec.shape = 1.5;
  spec.scale_ms = 300;
  spec.horizon_ms = 900;
  spec.downtime_ms = 50;
  spec.scope = "rack";
  spec.domains = 2;
  spec.seed = 13;
  return spec;
}

TEST(WeibullSynthTest, SameSpecReplaysBitForBit) {
  const auto a = faults::synthesize_weibull_plan(rack_spec());
  const auto b = faults::synthesize_weibull_plan(rack_spec());
  EXPECT_EQ(a.to_json(), b.to_json());
  EXPECT_FALSE(a.empty());
}

TEST(WeibullSynthTest, SeedChangesThePlan) {
  auto other = rack_spec();
  other.seed = 14;
  EXPECT_NE(faults::synthesize_weibull_plan(rack_spec()).to_json(),
            faults::synthesize_weibull_plan(other).to_json());
}

TEST(WeibullSynthTest, RackScopeEmitsOrderedKillRackEvents) {
  const auto plan = faults::synthesize_weibull_plan(rack_spec());
  double prev = 0;
  for (const auto& e : plan.events()) {
    EXPECT_EQ(e.kind, faults::FaultKind::kKillRack);
    EXPECT_GE(e.domain, 0);
    EXPECT_LT(e.domain, 2);
    EXPECT_GT(e.at_ms, 0.0);
    EXPECT_LT(e.at_ms, 900.0);
    EXPECT_EQ(e.duration_ms, 50.0);
    EXPECT_GE(e.at_ms, prev);  // sorted by time
    prev = e.at_ms;
  }
}

TEST(WeibullSynthTest, HostScopePermanentCrashStopsEachDomain) {
  faults::WeibullPlanSpec spec;
  spec.shape = 1.0;
  spec.scale_ms = 100;
  spec.horizon_ms = 10000;  // long horizon: only permanence bounds the count
  spec.scope = "host";
  spec.domains = 3;
  spec.seed = 5;
  const auto plan = faults::synthesize_weibull_plan(spec);
  // Permanent downtime: at most one crash per host, each a plain kCrash.
  EXPECT_LE(plan.events().size(), 3u);
  for (const auto& e : plan.events()) {
    EXPECT_EQ(e.kind, faults::FaultKind::kCrash);
    EXPECT_TRUE(e.permanent());
    EXPECT_GE(e.host, 0);
    EXPECT_LT(e.host, 3);
  }
}

TEST(WeibullSynthTest, SpecRoundTripsThroughJson) {
  const auto spec = rack_spec();
  const auto back = faults::WeibullPlanSpec::from_json(spec.to_json());
  EXPECT_EQ(back, spec);
  EXPECT_EQ(back.to_json(), spec.to_json());
  // And the replay contract composes: the re-parsed spec synthesizes the
  // same plan bit for bit.
  EXPECT_EQ(faults::synthesize_weibull_plan(back).to_json(),
            faults::synthesize_weibull_plan(spec).to_json());
}

TEST(WeibullSynthTest, InvalidSpecsThrow) {
  auto spec = rack_spec();
  spec.shape = 0;
  EXPECT_THROW((void)faults::synthesize_weibull_plan(spec), std::invalid_argument);
  spec = rack_spec();
  spec.scope = "datacenter";
  EXPECT_THROW((void)faults::synthesize_weibull_plan(spec), std::invalid_argument);
  spec = rack_spec();
  spec.domains = 0;
  EXPECT_THROW((void)faults::synthesize_weibull_plan(spec), std::invalid_argument);
}

// --------------------------------------------------------------------------
// Registered topology scenarios: thread-count invariance
// --------------------------------------------------------------------------

std::string run_scenario_csv(const std::string& name, std::size_t threads,
                             const std::map<std::string, std::string>& overrides) {
  const auto& registry = core::CampaignRegistry::global();
  core::ReplicationRunner runner{threads};
  core::RunOptions options;
  options.scale = core::Scale::quick();
  options.runner = &runner;
  options.axis_overrides = overrides;
  const auto table = registry.run(name, options);
  std::ostringstream csv;
  table.write_csv(csv);
  return csv.str();
}

TEST(TopologyScenarioTest, RackLossConsensusThreadCountInvariant) {
  const std::map<std::string, std::string> overrides{{"instances", "60"}, {"warmup", "10"}};
  EXPECT_EQ(run_scenario_csv("rack_loss_consensus", 1, overrides),
            run_scenario_csv("rack_loss_consensus", 4, overrides));
}

TEST(TopologyScenarioTest, CrossRackLatencySweepThreadCountInvariant) {
  const std::map<std::string, std::string> overrides{
      {"uplink_ms", "0,0.5"}, {"instances", "60"}, {"warmup", "10"}};
  EXPECT_EQ(run_scenario_csv("cross_rack_latency_sweep", 1, overrides),
            run_scenario_csv("cross_rack_latency_sweep", 4, overrides));
}

}  // namespace
