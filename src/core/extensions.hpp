// The failure-detector detection time T_D: the third Chen et al. QoS
// metric, which the paper defines (Section 3.4) but does not measure --
// an extension implementing its declared future work. The comparative
// protocol latency runs through core::run_one_shot with a selectable
// algorithm, and the throughput extension is the degenerate closed-loop
// workload in core/workload.hpp (one client, zero think time).
#pragma once

#include <cstdint>
#include <vector>

#include "core/measurement.hpp"
#include "net/params.hpp"
#include "stats/summary.hpp"

namespace sanperf::core {

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
