#include "core/extensions.hpp"

#include <stdexcept>

#include "core/workload.hpp"
#include "fd/heartbeat_fd.hpp"
#include "runtime/cluster.hpp"

namespace sanperf::core {

MeasuredLatency measure_latency_with(Algorithm algorithm, std::size_t n,
                                     const net::NetworkParams& params,
                                     const net::TimerModel& timers, int initially_crashed,
                                     std::size_t executions, std::uint64_t seed,
                                     const ReplicationRunner& runner) {
  if (initially_crashed >= static_cast<int>(n)) {
    throw std::invalid_argument{"measure_latency_with: crashed id out of range"};
  }
  WorkloadConfig cfg;
  cfg.n = n;
  cfg.network = params;
  cfg.timers = timers;
  cfg.algorithm = algorithm;
  cfg.initially_crashed = initially_crashed;
  const des::SeedSplitter seeds{seed, "exec"};
  return fold_latency_outcomes(runner.map(executions, [&](std::size_t k) {
    return run_one_shot(cfg, k, seeds.stream_seed(k));
  }));
}

std::vector<double> detection_time_trial(std::size_t n, const net::NetworkParams& params,
                                         const net::TimerModel& timers, double timeout_ms,
                                         std::uint64_t trial_seed) {
  std::vector<double> samples;
  runtime::ClusterConfig cfg;
  cfg.n = n;
  cfg.network = params;
  cfg.timers = timers;
  cfg.seed = trial_seed;
  runtime::Cluster cluster{cfg};
  const auto fd_params = fd::HeartbeatFdParams::from_timeout_ms(timeout_ms);
  for (runtime::HostId pid = 0; pid < static_cast<runtime::HostId>(n); ++pid) {
    cluster.process(pid).add_layer<fd::HeartbeatFd>(fd_params);
  }

  // Let the detectors settle, then crash a process at a phase-random time
  // (uniform within one heartbeat period, so the crash is not aligned to
  // the tick grid).
  auto crash_rng = cluster.rng_stream("crash");
  const runtime::HostId victim =
      static_cast<runtime::HostId>(crash_rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
  const double crash_ms = 60.0 + crash_rng.uniform(0.0, 0.7 * timeout_ms + 10.0);
  const auto crash_at = des::TimePoint::origin() + des::Duration::from_ms(crash_ms);
  cluster.crash_at(victim, crash_at);

  // Run long enough for every correct process to suspect the victim.
  const auto deadline = crash_at + des::Duration::from_ms(3.0 * timeout_ms + 100.0);
  cluster.run_until(deadline);

  for (runtime::HostId pid = 0; pid < static_cast<runtime::HostId>(n); ++pid) {
    if (pid == victim) continue;
    const auto& hb = cluster.process(pid).layer<fd::HeartbeatFd>();
    const auto& history = hb.histories()[victim];
    // Find the transition that starts the permanent suspicion: the last
    // trust->suspect with no later suspect->trust.
    if (!hb.is_suspected(victim) || history.transitions().empty()) continue;
    const auto& final_tr = history.transitions().back();
    if (!final_tr.to_suspect) continue;
    samples.push_back((final_tr.at - crash_at).to_ms());
  }
  return samples;
}

DetectionTimeResult measure_detection_time(std::size_t n, const net::NetworkParams& params,
                                           const net::TimerModel& timers, double timeout_ms,
                                           std::size_t trials, std::uint64_t seed,
                                           const ReplicationRunner& runner) {
  const des::SeedSplitter seeds{seed, "trial"};
  const auto trial_samples = runner.map(trials, [&](std::size_t trial) {
    return detection_time_trial(n, params, timers, timeout_ms, seeds.stream_seed(trial));
  });

  // Fold in trial order: identical to the sequential loop.
  DetectionTimeResult out;
  out.samples_ms.reserve(trials * (n - 1));
  for (const auto& samples : trial_samples) {
    for (const double detection : samples) {
      out.samples_ms.push_back(detection);
      out.summary.add(detection);
    }
  }
  return out;
}

}  // namespace sanperf::core
