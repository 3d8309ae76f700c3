// Internal: one isolated consensus execution on a fresh emulated cluster,
// parameterised on the consensus layer and an optional fault plan -- the
// body of core::run_one_shot. Every class-1/2 campaign calls it: the
// paper's Chandra-Toueg measurements, the Mostefaoui-Raynal comparison and
// the fault-injected campaigns, so the skew model, proposal schedule,
// decision capture and deadline cannot diverge between them. An empty
// plan draws exactly like no plan, and a crash-at-0 plan exactly like
// crash_initially (tests/faults_test.cpp enforces both).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <set>

#include "consensus/ct_consensus.hpp"
#include "core/measurement.hpp"
#include "faults/injector.hpp"
#include "faults/lowering.hpp"
#include "faults/plan.hpp"
#include "fd/failure_detector.hpp"
#include "net/params.hpp"
#include "runtime/cluster.hpp"
#include "topo/topology.hpp"

namespace sanperf::core::detail {

template <typename ConsensusLayer>
ExecOutcome run_one_consensus_execution(std::size_t n, const net::NetworkParams& params,
                                        const net::TimerModel& timers, int initially_crashed,
                                        std::size_t k, std::uint64_t exec_seed,
                                        const faults::FaultPlan* plan,
                                        std::shared_ptr<const topo::Topology> topology) {
  // Independent executions: a fresh cluster per run keeps them perfectly
  // isolated (the cluster equivalent of the paper's 10 ms separation).
  runtime::ClusterConfig cfg;
  cfg.n = n;
  cfg.network = params;
  cfg.timers = timers;
  cfg.topology = topology;
  cfg.seed = exec_seed;
  runtime::Cluster cluster{cfg};
  std::optional<faults::FaultInjector> injector;
  if (plan != nullptr) injector.emplace(cluster, *plan);

  // Domain-scoped events lower against the topology here too, so
  // initially_down sees the per-host form the injector replays.
  std::optional<faults::FaultPlan> lowered;
  if (plan != nullptr && plan->has_domain_events()) {
    lowered =
        faults::lower_plan(*plan, topology ? *topology : topo::Topology::single_hub(n));
    plan = &*lowered;
  }

  // The static detector pre-suspects every host down at the start: the
  // explicitly crashed one and everything the plan crashes at t <= 0.
  std::set<runtime::HostId> suspected;
  if (plan != nullptr) {
    for (const faults::HostId h : plan->initially_down()) suspected.insert(h);
  }
  if (initially_crashed >= 0) suspected.insert(static_cast<runtime::HostId>(initially_crashed));

  std::optional<des::TimePoint> first_decide;
  std::int32_t first_rounds = 0;
  for (runtime::HostId pid = 0; pid < static_cast<runtime::HostId>(n); ++pid) {
    auto& proc = cluster.process(pid);
    auto& fd_layer = proc.add_layer<fd::StaticFd>(suspected);
    auto& cons = proc.template add_layer<ConsensusLayer>(fd_layer);
    cons.set_decide_callback([&](const consensus::DecisionEvent& ev) {
      if (!first_decide || ev.at < *first_decide) {
        first_decide = ev.at;
        first_rounds = ev.round;
      }
    });
  }
  if (injector) injector->arm();  // immediate crashes fire here...
  if (initially_crashed >= 0) {
    cluster.crash_initially(static_cast<runtime::HostId>(initially_crashed));
  }

  // All correct processes propose at t0 (up to the emulated NTP skew).
  const des::TimePoint t0 = des::TimePoint::origin() + des::Duration::from_ms(1.0);
  auto skew_rng = cluster.rng_stream("ntp-skew");
  for (runtime::HostId pid = 0; pid < static_cast<runtime::HostId>(n); ++pid) {
    auto& proc = cluster.process(pid);
    if (proc.crashed()) continue;
    const des::TimePoint start = t0 + des::Duration::from_ms(skew_rng.uniform(0.0, 0.05));
    cluster.sim().schedule_at(start, [&proc, k] {
      proc.template layer<ConsensusLayer>().propose(static_cast<std::int32_t>(k),
                                                    1 + proc.id());
    });
  }

  const des::TimePoint deadline = t0 + des::Duration::from_ms(1000.0);
  cluster.run_until([&] { return first_decide.has_value(); }, deadline);

  ExecOutcome out;
  if (first_decide) {
    out.latency_ms = (*first_decide - t0).to_ms();
    out.rounds = first_rounds;
  }
  return out;
}

}  // namespace sanperf::core::detail
