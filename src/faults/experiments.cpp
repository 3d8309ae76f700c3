#include "faults/experiments.hpp"

#include <cmath>

#include "consensus/ct_consensus.hpp"
#include "faults/injector.hpp"
#include "fd/heartbeat_fd.hpp"
#include "runtime/cluster.hpp"

namespace sanperf::faults {

FaultClass3Run run_fault_class3(std::size_t n, const net::NetworkParams& params,
                                const net::TimerModel& timers, double timeout_ms,
                                std::size_t executions, const FaultPlan& plan,
                                std::uint64_t seed) {
  runtime::ClusterConfig cfg;
  cfg.n = n;
  cfg.network = params;
  cfg.timers = timers;
  cfg.seed = seed;
  runtime::Cluster cluster{cfg};
  FaultInjector injector{cluster, plan};

  const auto fd_params = fd::HeartbeatFdParams::from_timeout_ms(timeout_ms);
  for (runtime::HostId pid = 0; pid < static_cast<runtime::HostId>(n); ++pid) {
    auto& proc = cluster.process(pid);
    auto& hb = proc.add_layer<fd::HeartbeatFd>(fd_params);
    proc.add_layer<consensus::CtConsensus>(hb);
  }
  injector.arm();

  consensus::SequencerConfig seq_cfg;
  seq_cfg.executions = executions;
  consensus::ConsensusSequencer seq{cluster, seq_cfg};

  FaultClass3Run run;
  run.executions = seq.run();

  // QoS over the full experiment duration, all ordered pairs (crashed
  // monitors contribute their frozen histories). A host crashed at t <= 0
  // and never recovered skipped on_start, so its detector has no histories
  // to contribute.
  std::vector<const fd::PairHistory*> histories;
  for (runtime::HostId pid = 0; pid < static_cast<runtime::HostId>(n); ++pid) {
    const auto& hb = cluster.process(pid).layer<fd::HeartbeatFd>();
    if (hb.histories().size() != n) continue;  // never started
    for (runtime::HostId peer = 0; peer < static_cast<runtime::HostId>(n); ++peer) {
      if (peer == pid) continue;
      histories.push_back(&hb.histories()[peer]);
    }
  }
  run.qos = fd::average_qos(histories, seq.experiment_end());
  run.experiment_ms = seq.experiment_end().to_ms();
  return run;
}

PhasedLatency split_by_window(const std::vector<consensus::ExecutionResult>& execs,
                              double start_ms, double end_ms) {
  PhasedLatency out;
  // A window that never opens (start = inf, e.g. an event-free override
  // plan) puts everything in "before".
  const bool no_window = std::isinf(start_ms);
  for (const auto& exec : execs) {
    const double t0_ms = exec.t0.to_ms();
    core::MeasuredLatency* bucket = &out.during;
    if (t0_ms >= end_ms) {
      bucket = &out.after;
    } else if (no_window || (exec.decided() && exec.t_decide->to_ms() < start_ms)) {
      bucket = &out.before;  // over before the fault opened
    }
    if (exec.decided()) {
      bucket->latencies_ms.push_back(exec.latency_ms());
      bucket->rounds.push_back(exec.rounds);
    } else {
      ++bucket->undecided;
    }
  }
  return out;
}

}  // namespace sanperf::faults
