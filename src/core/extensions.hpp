// Extensions beyond the paper's evaluation, implementing its declared
// future work (Section 6 / Section 2.3):
//   * comparative latency of alternative consensus protocols;
//   * the failure-detector detection time T_D (the third Chen et al. QoS
//     metric, defined in Section 3.4 but not measured by the paper).
// The throughput extension (execution k+1 starts as soon as execution k
// has decided) lives in core/workload.hpp now, as the degenerate
// closed-loop workload with one client and zero think time.
#pragma once

#include <cstdint>
#include <vector>

#include "core/config.hpp"  // Algorithm
#include "core/measurement.hpp"
#include "net/params.hpp"
#include "stats/summary.hpp"

namespace sanperf::core {

/// Like measure_latency, but with a selectable consensus algorithm.
[[nodiscard]] MeasuredLatency measure_latency_with(Algorithm algorithm, std::size_t n,
                                                   const net::NetworkParams& params,
                                                   const net::TimerModel& timers,
                                                   int initially_crashed, std::size_t executions,
                                                   std::uint64_t seed,
                                                   const ReplicationRunner& runner =
                                                       default_runner());

struct DetectionTimeResult {
  std::vector<double> samples_ms;  ///< one per (trial, monitoring process)
  stats::SummaryStats summary;
};

/// One detection-time trial (the flat sharding unit of the T_D campaign):
/// crash one process at a phase-random time and return, per correct
/// process, the crash-to-permanent-suspicion delay. Seeds come from
/// SeedSplitter{seed, "trial"}.
[[nodiscard]] std::vector<double> detection_time_trial(std::size_t n,
                                                       const net::NetworkParams& params,
                                                       const net::TimerModel& timers,
                                                       double timeout_ms,
                                                       std::uint64_t trial_seed);

/// Chen et al. detection time T_D: crash one process mid-run and measure,
/// at every correct process, the time from the crash to the permanent
/// suspicion. Uses live heartbeat detectors (timeout T, Th = 0.7 T).
[[nodiscard]] DetectionTimeResult measure_detection_time(std::size_t n,
                                                         const net::NetworkParams& params,
                                                         const net::TimerModel& timers,
                                                         double timeout_ms, std::size_t trials,
                                                         std::uint64_t seed,
                                                         const ReplicationRunner& runner =
                                                             default_runner());

}  // namespace sanperf::core
