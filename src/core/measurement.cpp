#include "core/measurement.hpp"

#include <any>
#include <cmath>
#include <functional>
#include <stdexcept>

#include "consensus/ct_consensus.hpp"
#include "consensus/sequencer.hpp"
#include "core/workload.hpp"
#include "core/workload_cluster.hpp"
#include "des/simulator.hpp"
#include "fd/heartbeat_fd.hpp"
#include "net/network.hpp"

namespace sanperf::core {

std::vector<double> unicast_probe_shard(const net::NetworkParams& params, std::size_t count,
                                        std::uint64_t seed) {
  des::Simulator sim;
  des::RandomEngine rng{seed};
  net::ContentionNetwork netw{sim, rng.substream("net"), params, 2};

  std::vector<double> delays;
  delays.reserve(count);
  netw.set_deliver([&](const net::Packet& pkt) { delays.push_back((sim.now() - pkt.sent_at).to_ms()); });

  // Isolated probes: each send waits for the previous delivery plus a gap,
  // so probes never contend with each other (an idle network, as in the
  // paper's delay measurements).
  const des::Duration gap = des::Duration::from_ms(1.0);
  std::function<void(std::size_t)> fire = [&](std::size_t k) {
    if (k >= count) return;
    netw.send(0, 1, std::any{});
    sim.schedule(gap, [&fire, k] { fire(k + 1); });
  };
  fire(0);
  sim.run();
  return delays;
}

std::vector<double> broadcast_probe_shard(const net::NetworkParams& params, std::size_t n,
                                          std::size_t count, std::uint64_t seed) {
  if (n < 2) throw std::invalid_argument{"broadcast_probe_shard: n < 2"};
  des::Simulator sim;
  des::RandomEngine rng{seed};
  net::ContentionNetwork netw{sim, rng.substream("net"), params, n};

  std::vector<double> delays;  // one entry per broadcast: mean over destinations
  delays.reserve(count);
  double acc = 0;
  std::size_t received = 0;
  netw.set_deliver([&](const net::Packet& pkt) {
    acc += (sim.now() - pkt.sent_at).to_ms();
    if (++received == n - 1) {
      delays.push_back(acc / static_cast<double>(n - 1));
      acc = 0;
      received = 0;
    }
  });

  const des::Duration gap = des::Duration::from_ms(3.0);
  std::function<void(std::size_t)> fire = [&](std::size_t k) {
    if (k >= count) return;
    // The implementation broadcasts as n-1 unicasts in ascending id order.
    for (net::HostId dst = 1; dst < static_cast<net::HostId>(n); ++dst) {
      netw.send(0, dst, std::any{});
    }
    sim.schedule(gap, [&fire, k] { fire(k + 1); });
  };
  fire(0);
  sim.run();
  return delays;
}

std::vector<double> pool_probe_shards(std::span<const std::vector<double>> shards) {
  std::vector<double> pooled;
  for (const auto& shard : shards) pooled.insert(pooled.end(), shard.begin(), shard.end());
  return pooled;
}

std::vector<double> measure_unicast_delays(const net::NetworkParams& params, std::size_t probes,
                                           std::uint64_t seed, const ReplicationRunner& runner) {
  const des::SeedSplitter seeds{seed, "probe"};
  auto shards = runner.map(delay_probe_shards(probes), [&](std::size_t s) {
    return unicast_probe_shard(params, delay_probe_shard_size(probes, s), seeds.stream_seed(s));
  });
  return pool_probe_shards(shards);
}

std::vector<double> measure_broadcast_delays(const net::NetworkParams& params, std::size_t n,
                                             std::size_t probes, std::uint64_t seed,
                                             const ReplicationRunner& runner) {
  if (n < 2) throw std::invalid_argument{"measure_broadcast_delays: n < 2"};
  const des::SeedSplitter seeds{seed, "probe"};
  auto shards = runner.map(delay_probe_shards(probes), [&](std::size_t s) {
    return broadcast_probe_shard(params, n, delay_probe_shard_size(probes, s),
                                 seeds.stream_seed(s));
  });
  return pool_probe_shards(shards);
}

void MeasuredLatency::add(const consensus::ExecutionResult& exec) {
  if (exec.decided()) {
    latencies_ms.push_back(*exec.latency_ms);
    rounds.push_back(exec.rounds);
  } else {
    ++undecided;
  }
}

void MeasuredLatency::merge(const MeasuredLatency& other) {
  latencies_ms.insert(latencies_ms.end(), other.latencies_ms.begin(), other.latencies_ms.end());
  rounds.insert(rounds.end(), other.rounds.begin(), other.rounds.end());
  undecided += other.undecided;
}

stats::SummaryStats MeasuredLatency::summary() const {
  stats::SummaryStats s;
  for (const double x : latencies_ms) s.add(x);
  return s;
}

consensus::ExecutionResult run_latency_execution(std::size_t n, const net::NetworkParams& params,
                                                const net::TimerModel& timers,
                                                int initially_crashed, std::size_t k,
                                                std::uint64_t exec_seed) {
  // The workload engine's one-shot mode IS the historic harness.
  WorkloadConfig cfg;
  cfg.n = n;
  cfg.network = params;
  cfg.timers = timers;
  cfg.initially_crashed = initially_crashed;
  return run_one_shot(cfg, k, exec_seed);
}

MeasuredLatency fold_latency_outcomes(std::span<const consensus::ExecutionResult> outcomes) {
  // Merge in execution order: identical to the sequential loop.
  MeasuredLatency out;
  out.latencies_ms.reserve(outcomes.size());
  for (const consensus::ExecutionResult& exec : outcomes) out.add(exec);
  return out;
}

MeasuredLatency measure_latency(std::size_t n, const net::NetworkParams& params,
                                const net::TimerModel& timers, int initially_crashed,
                                std::size_t executions, std::uint64_t seed,
                                const ReplicationRunner& runner) {
  if (initially_crashed >= static_cast<int>(n)) {
    throw std::invalid_argument{"measure_latency: crashed id out of range"};
  }
  const des::SeedSplitter seeds{seed, "exec"};
  return fold_latency_outcomes(runner.map(executions, [&](std::size_t k) {
    return run_latency_execution(n, params, timers, initially_crashed, k, seeds.stream_seed(k));
  }));
}

Class3Run measure_class3_run(std::size_t n, const net::NetworkParams& params,
                             const net::TimerModel& timers, double timeout_ms,
                             std::size_t executions, std::uint64_t seed) {
  // The fault harness under an empty plan, which schedules nothing and
  // never draws: one class-3 harness for plain and fault-injected runs.
  const auto run = run_fault_class3(n, params, timers, timeout_ms, executions,
                                    faults::FaultPlan{}, seed);
  Class3Run out;
  for (const auto& res : run.executions) out.latency.add(res);
  out.qos = run.qos;
  out.experiment_ms = run.experiment_ms;
  return out;
}

FaultClass3Run run_fault_class3(std::size_t n, const net::NetworkParams& params,
                                const net::TimerModel& timers, double timeout_ms,
                                std::size_t executions, const faults::FaultPlan& plan,
                                std::uint64_t seed) {
  WorkloadConfig cfg;
  cfg.n = n;
  cfg.network = params;
  cfg.timers = timers;
  cfg.fault_plan = &plan;
  detail::WorkloadCluster<consensus::CtConsensus> assembly{
      cfg, seed, timeout_ms, [](runtime::Process&, consensus::CtConsensus&) {}};
  runtime::Cluster& cluster = assembly.cluster();

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

void PhasedLatency::merge(const PhasedLatency& other) {
  before.merge(other.before);
  during.merge(other.during);
  after.merge(other.after);
}

std::size_t PhasedLatency::undecided() const {
  return before.undecided + during.undecided + after.undecided;
}

PhasedLatency split_by_window(std::span<const consensus::ExecutionResult> execs,
                              double start_ms, double end_ms) {
  PhasedLatency out;
  const bool no_window = std::isinf(start_ms);
  for (const consensus::ExecutionResult& exec : execs) {
    MeasuredLatency* bucket = &out.during;
    if (exec.start_ms >= end_ms) {
      bucket = &out.after;
    } else if (no_window || (exec.decided() && exec.decide_ms() < start_ms)) {
      bucket = &out.before;  // over before the fault opened
    }
    bucket->add(exec);
  }
  return out;
}

Class3Aggregate fold_class3_runs(std::span<const Class3Run> runs) {
  stats::SummaryStats lat_means, tmr_means, tm_means;
  MeasuredLatency pooled;
  Class3Aggregate agg;

  // Aggregate in run order: identical to the sequential loop (SummaryStats
  // folds are order-sensitive in the last bits).
  for (const Class3Run& run : runs) {
    const auto lat = run.latency.summary();
    if (lat.count() > 0) lat_means.add(lat.mean());
    if (run.qos.pairs_used > 0) {
      tmr_means.add(run.qos.t_mr_ms);
      tm_means.add(run.qos.t_m_ms);
    }
    pooled.merge(run.latency);
  }
  agg.all_latencies_ms = std::move(pooled.latencies_ms);
  agg.undecided = pooled.undecided;

  agg.latency_ms = lat_means.mean_ci(0.90);
  agg.t_mr_ms = tmr_means.mean_ci(0.90);
  agg.t_m_ms = tm_means.mean_ci(0.90);
  agg.pooled_qos.t_mr_ms = tmr_means.mean();
  agg.pooled_qos.t_m_ms = tm_means.mean();
  agg.pooled_qos.pairs_used = tmr_means.count();
  return agg;
}

Class3Aggregate measure_class3(std::size_t n, const net::NetworkParams& params,
                               const net::TimerModel& timers, double timeout_ms, std::size_t runs,
                               std::size_t executions, std::uint64_t seed,
                               const ReplicationRunner& runner) {
  const des::SeedSplitter seeds{seed, "run"};
  return fold_class3_runs(runner.map(runs, [&](std::size_t r) {
    return measure_class3_run(n, params, timers, timeout_ms, executions, seeds.stream_seed(r));
  }));
}

}  // namespace sanperf::core
