// Fault-injected class-3 campaigns and their before / during / after
// fold. run_fault_class3 is the one class-3 harness:
// core::measure_class3_run is it under an empty plan, which schedules
// nothing and never draws. Class 1/2 fault runs need no harness of their
// own: core::run_one_shot takes the plan in its WorkloadConfig, so a
// degenerate plan (one crash at t = 0) reproduces the paper's Table 1
// crash runs bit for bit. Every fault scenario stays
// thread-count-invariant.
#pragma once

#include <cstdint>
#include <vector>

#include "consensus/sequencer.hpp"
#include "core/measurement.hpp"
#include "faults/plan.hpp"
#include "fd/qos.hpp"
#include "net/params.hpp"

namespace sanperf::faults {

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
