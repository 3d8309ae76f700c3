// Fault-injected measurement campaigns. Class 1/2 runs isolated
// executions through core::run_one_shot with the plan in its
// WorkloadConfig, so a degenerate plan (one crash at t = 0) reproduces the
// paper's Table 1 crash runs bit for bit. run_fault_class3 is the one
// class-3 harness: core::measure_class3_run is it under an empty plan,
// which schedules nothing and never draws. Every fault scenario stays
// thread-count-invariant.
#pragma once

#include <cstdint>
#include <vector>

#include "consensus/sequencer.hpp"
#include "core/config.hpp"  // Algorithm
#include "core/measurement.hpp"
#include "faults/plan.hpp"
#include "fd/qos.hpp"
#include "net/params.hpp"

namespace sanperf::faults {

/// Like core::measure_latency, but under a fault plan and with a
/// selectable algorithm. Hosts the plan crashes at or before t = 0 are
/// pre-suspected by the static failure detector, exactly as in the
/// paper's class-2 runs.
[[nodiscard]] core::MeasuredLatency measure_fault_latency(
    core::Algorithm algorithm, std::size_t n, const net::NetworkParams& params,
    const net::TimerModel& timers, const FaultPlan& plan, std::size_t executions,
    std::uint64_t seed, const core::ReplicationRunner& runner = core::default_runner());

/// One fault-injected class-3 run: live heartbeat detection (timeout T,
/// Th = 0.7 T), `executions` sequenced consensus executions, and `plan`
/// replayed on the cluster. It keeps the per-execution results, so folds
/// can bucket executions against the plan's fault windows (before /
/// during / after); core::measure_class3_run folds them into latencies.
struct FaultClass3Run {
  std::vector<consensus::ExecutionResult> executions;
  fd::QosEstimate qos;
  double experiment_ms = 0;
};

[[nodiscard]] FaultClass3Run run_fault_class3(std::size_t n, const net::NetworkParams& params,
                                              const net::TimerModel& timers, double timeout_ms,
                                              std::size_t executions, const FaultPlan& plan,
                                              std::uint64_t seed);

/// Buckets executions against a fault window [start_ms, end_ms): "after"
/// starts at or past the window's end, "during" overlaps it (started
/// inside it, still in flight when it opened, or undecided before its
/// end), "before" decided strictly earlier. This is the before / during /
/// after split the recovery scenarios report.
struct PhasedLatency {
  core::MeasuredLatency before, during, after;

  void merge(const PhasedLatency& other) {
    before.merge(other.before);
    during.merge(other.during);
    after.merge(other.after);
  }
};

[[nodiscard]] PhasedLatency split_by_window(const std::vector<consensus::ExecutionResult>& execs,
                                            double start_ms, double end_ms);

}  // namespace sanperf::faults
