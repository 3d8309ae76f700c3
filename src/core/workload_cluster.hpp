// The emulated cluster a WorkloadConfig describes, built one way for all
// three consensus harnesses: the one-shot (core::run_one_shot), the class-3
// harness (core::run_fault_class3) and the streams (core::run_workload).
// Each harness keeps its own proposal schedule, NTP draw and fold, which
// the goldens pin; what they share is how the cluster, its faults and its
// layers come up. An empty plan draws exactly like no plan, and a
// crash-at-0 plan exactly like initially_crashed (tests/faults_test.cpp
// enforces both).
#pragma once

#include <cstdint>
#include <optional>
#include <set>
#include <vector>

#include "core/workload.hpp"
#include "faults/injector.hpp"
#include "faults/plan.hpp"
#include "fd/failure_detector.hpp"
#include "fd/heartbeat_fd.hpp"
#include "runtime/cluster.hpp"

namespace sanperf::core::detail {

/// Built in this order: the cluster on `seed`, whose membership view starts
/// on cfg.initial_members (every host when empty); the injector replaying
/// cfg.fault_plan, if any, which lowers the plan against the topology; on
/// every host a HeartbeatFd when `heartbeat_timeout_ms` is set, else a
/// StaticFd suspecting the hosts down at the start (cfg.initially_crashed
/// and every host the plan crashes at t <= 0), under a `Layer` that
/// `configure(process, layer)` then sets up; last the armed plan, whose
/// crashes at t <= 0 apply at once, the crash of cfg.initially_crashed,
/// and the crash of every host outside the starting member set (it sits
/// down until an add_host decides it in).
template <typename Layer>
class WorkloadCluster {
 public:
  template <typename Configure>
  WorkloadCluster(const WorkloadConfig& cfg, std::uint64_t seed,
                  std::optional<double> heartbeat_timeout_ms, Configure&& configure)
      : cluster_{cluster_config(cfg, seed), initial_members(cfg)} {
    if (cfg.fault_plan != nullptr) injector_.emplace(cluster_, *cfg.fault_plan);

    std::set<runtime::HostId> suspected;
    if (!heartbeat_timeout_ms) {
      if (const faults::FaultPlan* lowered = plan()) {
        for (const faults::HostId h : lowered->initially_down()) suspected.insert(h);
      }
      if (cfg.initially_crashed >= 0) {
        suspected.insert(static_cast<runtime::HostId>(cfg.initially_crashed));
      }
    }
    for (runtime::HostId pid = 0; pid < static_cast<runtime::HostId>(cfg.n); ++pid) {
      auto& proc = cluster_.process(pid);
      fd::FailureDetector* fd_layer = nullptr;
      if (heartbeat_timeout_ms) {
        fd_layer = &proc.add_layer<fd::HeartbeatFd>(
            fd::HeartbeatFdParams::from_timeout_ms(*heartbeat_timeout_ms));
      } else {
        fd_layer = &proc.add_layer<fd::StaticFd>(suspected);
      }
      configure(proc, proc.template add_layer<Layer>(*fd_layer));
    }

    if (injector_) injector_->arm();
    if (cfg.initially_crashed >= 0) {
      cluster_.crash_initially(static_cast<runtime::HostId>(cfg.initially_crashed));
    }
    for (runtime::HostId h = 0; h < static_cast<runtime::HostId>(cfg.n); ++h) {
      if (!cluster_.membership().is_member(h) && !cluster_.process(h).crashed()) {
        cluster_.crash_initially(h);
      }
    }
  }

  WorkloadCluster(const WorkloadCluster&) = delete;
  WorkloadCluster& operator=(const WorkloadCluster&) = delete;

  [[nodiscard]] runtime::Cluster& cluster() { return cluster_; }
  /// cfg.fault_plan lowered to per-host events, or null without a plan.
  [[nodiscard]] const faults::FaultPlan* plan() const {
    return injector_ ? &injector_->plan() : nullptr;
  }

 private:
  static runtime::ClusterConfig cluster_config(const WorkloadConfig& cfg, std::uint64_t seed) {
    runtime::ClusterConfig ccfg;
    ccfg.n = cfg.n;
    ccfg.network = cfg.network;
    ccfg.timers = cfg.timers;
    ccfg.topology = cfg.topology;
    ccfg.seed = seed;
    return ccfg;
  }
  static std::vector<runtime::HostId> initial_members(const WorkloadConfig& cfg) {
    // A negative id wraps past n, which the cluster rejects as out of range.
    return {cfg.initial_members.begin(), cfg.initial_members.end()};
  }

  runtime::Cluster cluster_;
  std::optional<faults::FaultInjector> injector_;
};

}  // namespace sanperf::core::detail
