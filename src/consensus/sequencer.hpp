// Drives a sequence of isolated Chandra-Toueg executions on a cluster and
// measures per-execution latency: the paper's class-3 schedule (Section
// 2.3 / Section 4). core::run_fault_class3 runs it on the cluster that
// core/workload_cluster.hpp assembles for every harness, and it reports
// each execution in the harnesses' one record, ExecutionResult.
//
// All processes propose at the same instant t0 (up to an emulated NTP
// synchronisation skew of +-50 us); latency is t1 - t0 where t1 is the time
// the *first* process decides. Consecutive executions start 10 ms apart;
// when an execution decides late, the next start is pushed back to 2 ms
// after its decision so executions stay isolated (the paper's footnote 2).
// An execution undecided after 5 s counts as undecided. These timings are
// the paper's and are fixed; for overlapping instances or offered-load
// arrival processes use core::run_workload instead. The sequencer keeps
// its own proposal schedule and NTP draw, which the goldens pin.
#pragma once

#include <cstdint>
#include <vector>

#include "consensus/execution.hpp"
#include "des/random.hpp"
#include "des/time.hpp"
#include "runtime/cluster.hpp"

namespace sanperf::consensus {

struct SequencerConfig {
  std::size_t executions = 100;
};

/// The per-process NTP start offset: a symmetric window of half-width `w`
/// realised as `w + uniform(-w, +w)`, i.e. every process starts inside
/// [t0, t0 + 2w) with mean exactly w. Replaces the historic
/// `max(0, uniform(-w, +w))` draw, which collapsed half the probability
/// mass onto a point atom at zero and biased the realised skew spread.
[[nodiscard]] inline des::Duration draw_ntp_start_offset(des::RandomEngine& rng,
                                                         double half_width_ms) {
  return des::Duration::from_ms(half_width_ms +
                                rng.uniform(-half_width_ms, half_width_ms));
}

class ConsensusSequencer {
 public:
  /// Every process in `cluster` must already carry a CtConsensus layer.
  ConsensusSequencer(runtime::Cluster& cluster, SequencerConfig cfg)
      : cluster_{&cluster}, cfg_{cfg} {}

  /// Runs all executions; returns one result per execution, in order.
  [[nodiscard]] std::vector<ExecutionResult> run();

  /// End of the measurement period (set after run()); this is T_exp for
  /// the failure-detector QoS estimation.
  [[nodiscard]] des::TimePoint experiment_end() const { return experiment_end_; }

 private:
  runtime::Cluster* cluster_;
  SequencerConfig cfg_;
  des::TimePoint experiment_end_;
};

}  // namespace sanperf::consensus
