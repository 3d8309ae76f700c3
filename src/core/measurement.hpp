// Measurement campaigns on the emulated cluster -- the "experiments on a
// cluster of PCs" half of the paper's combined methodology. Class 1/2
// executions run through core::run_one_shot and class-3 runs through
// run_fault_class3; both build their cluster with the workload streams'
// assembly (core/workload_cluster.hpp) and report every execution as a
// consensus::ExecutionResult, which MeasuredLatency and split_by_window
// fold.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "consensus/execution.hpp"
#include "core/replication.hpp"
#include "faults/plan.hpp"
#include "fd/qos.hpp"
#include "net/params.hpp"
#include "stats/summary.hpp"

namespace sanperf::core {

// --- Fig 6 delay probes ------------------------------------------------------
//
// The calibration pass measures isolated probe delays. Probes are batched
// into independent shards -- each shard a fresh emulated network with its
// own derived seed -- so the whole pass fans out over the replication
// engine and the shard results concatenate deterministically in shard
// order, identical for any thread count.

/// Probes per independent shard in the Fig 6 calibration pass.
inline constexpr std::size_t kDelayProbeShard = 64;

/// Number of probe shards covering `probes` probes.
[[nodiscard]] constexpr std::size_t delay_probe_shards(std::size_t probes) {
  return (probes + kDelayProbeShard - 1) / kDelayProbeShard;
}
/// Probes carried by shard `shard` of a `probes`-probe campaign.
[[nodiscard]] constexpr std::size_t delay_probe_shard_size(std::size_t probes, std::size_t shard) {
  const std::size_t start = shard * kDelayProbeShard;
  return start >= probes ? 0 : (probes - start < kDelayProbeShard ? probes - start
                                                                  : kDelayProbeShard);
}

/// One shard of `count` isolated unicast probes (the flat sharding unit of
/// the Fig 6 calibration): end-to-end delays in ms, in probe order.
[[nodiscard]] std::vector<double> unicast_probe_shard(const net::NetworkParams& params,
                                                      std::size_t count, std::uint64_t seed);

/// One shard of `count` isolated broadcasts to n-1 destinations, each delay
/// averaged over the destinations.
[[nodiscard]] std::vector<double> broadcast_probe_shard(const net::NetworkParams& params,
                                                        std::size_t n, std::size_t count,
                                                        std::uint64_t seed);

/// Concatenates probe shards in shard order into the pooled delay sample.
[[nodiscard]] std::vector<double> pool_probe_shards(std::span<const std::vector<double>> shards);

/// End-to-end delay of isolated unicast messages (Fig 6, "unicast"), in ms.
/// Shards fan out over `runner`; the pooled sample is identical for any
/// thread count.
[[nodiscard]] std::vector<double> measure_unicast_delays(const net::NetworkParams& params,
                                                         std::size_t probes, std::uint64_t seed,
                                                         const ReplicationRunner& runner =
                                                             default_runner());

/// End-to-end delay of isolated broadcasts to n-1 destinations, averaged
/// over the destinations (Fig 6, "broadcast to n"), in ms.
[[nodiscard]] std::vector<double> measure_broadcast_delays(const net::NetworkParams& params,
                                                           std::size_t n, std::size_t probes,
                                                           std::uint64_t seed,
                                                           const ReplicationRunner& runner =
                                                               default_runner());

// --- Class 1/2 latency campaigns --------------------------------------------

struct MeasuredLatency {
  std::vector<double> latencies_ms;  ///< decided executions only
  std::vector<std::int32_t> rounds;  ///< rounds used by the first decider
  std::size_t undecided = 0;

  /// Counts one execution: its latency and rounds if it decided, else one
  /// undecided.
  void add(const consensus::ExecutionResult& exec);
  /// Appends another campaign's executions (run-order pooling).
  void merge(const MeasuredLatency& other);

  [[nodiscard]] stats::SummaryStats summary() const;
};

/// One isolated Chandra-Toueg execution with an explicitly derived seed
/// (task `k` of a campaign; seeds come from SeedSplitter{seed, "exec"}).
[[nodiscard]] consensus::ExecutionResult run_latency_execution(
    std::size_t n, const net::NetworkParams& params, const net::TimerModel& timers,
    int initially_crashed, std::size_t k, std::uint64_t exec_seed);

/// Folds per-execution outcomes in execution order -- the exact merge the
/// sequential campaign loop performs.
[[nodiscard]] MeasuredLatency fold_latency_outcomes(
    std::span<const consensus::ExecutionResult> outcomes);

/// Consensus latency for run classes 1 and 2: isolated executions, static
/// complete-and-accurate failure detectors, optional initial crash.
/// `initially_crashed` is a host id or -1. Executions are independent
/// emulated clusters seeded per index, fanned out over `runner`; the result
/// is identical for every thread count.
[[nodiscard]] MeasuredLatency measure_latency(std::size_t n, const net::NetworkParams& params,
                                              const net::TimerModel& timers,
                                              int initially_crashed, std::size_t executions,
                                              std::uint64_t seed,
                                              const ReplicationRunner& runner =
                                                  default_runner());

/// One class-3 run: a single long experiment with live heartbeat failure
/// detection (timeout T, Th = 0.7 T) and `executions` consensus executions
/// separated by 10 ms. QoS metrics are estimated over the full duration, as
/// in Section 4.
struct Class3Run {
  MeasuredLatency latency;
  fd::QosEstimate qos;
  double experiment_ms = 0;  ///< T_exp
};

[[nodiscard]] Class3Run measure_class3_run(std::size_t n, const net::NetworkParams& params,
                                           const net::TimerModel& timers, double timeout_ms,
                                           std::size_t executions, std::uint64_t seed);

/// One class-3 run with `plan` replayed on the cluster. It keeps the
/// per-execution results, so folds can bucket them against the plan's
/// fault windows (split_by_window). measure_class3_run is this run under
/// an empty plan, which schedules nothing and never draws.
struct FaultClass3Run {
  std::vector<consensus::ExecutionResult> executions;
  fd::QosEstimate qos;
  double experiment_ms = 0;
};

[[nodiscard]] FaultClass3Run run_fault_class3(std::size_t n, const net::NetworkParams& params,
                                              const net::TimerModel& timers, double timeout_ms,
                                              std::size_t executions,
                                              const faults::FaultPlan& plan, std::uint64_t seed);

/// Executions bucketed against a fault window [start_ms, end_ms): "after"
/// started at or past the window's end, "before" decided strictly before
/// it opened, and "during" holds the rest (started inside it, still in
/// flight when it opened, or undecided before its end). A window that
/// never opens (start = inf, e.g. an event-free plan) puts everything in
/// "before". This is the split the recovery scenarios report.
struct PhasedLatency {
  MeasuredLatency before, during, after;

  void merge(const PhasedLatency& other);
  /// Undecided executions over all three phases.
  [[nodiscard]] std::size_t undecided() const;
};

[[nodiscard]] PhasedLatency split_by_window(std::span<const consensus::ExecutionResult> execs,
                                            double start_ms, double end_ms);

/// Aggregates several independent class-3 runs: means and 90% confidence
/// intervals computed over the per-run means (the paper's procedure).
struct Class3Aggregate {
  stats::MeanCI latency_ms;
  stats::MeanCI t_mr_ms;
  stats::MeanCI t_m_ms;
  std::vector<double> all_latencies_ms;  ///< pooled across runs
  std::size_t undecided = 0;
  fd::QosEstimate pooled_qos;            ///< run-mean QoS (feeds the SAN model)
};

/// Folds independent class-3 runs in run order (the flat sharding fold for
/// the Fig 8 / Fig 9a campaigns); pooled latencies concatenate in run order.
[[nodiscard]] Class3Aggregate fold_class3_runs(std::span<const Class3Run> runs);

[[nodiscard]] Class3Aggregate measure_class3(std::size_t n, const net::NetworkParams& params,
                                             const net::TimerModel& timers, double timeout_ms,
                                             std::size_t runs, std::size_t executions,
                                             std::uint64_t seed,
                                             const ReplicationRunner& runner =
                                                 default_runner());

}  // namespace sanperf::core
