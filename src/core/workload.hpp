// The steady-state workload engine: a persistent emulated cluster serving
// a *stream* of consensus instances under an offered load.
//
// Every earlier harness in this repository built a fresh cluster, ran one
// consensus instance and tore everything down, so "load" could only mean
// back-to-back isolated runs. Here a declarative WorkloadSpec -- open-loop
// Poisson arrivals, closed-loop clients with think time, or a fixed burst
// -- drives one long-lived cluster through warmup + measured instances.
// The consensus layers multiplex the instances (instance id in every
// message, per-instance round state) and garbage-collect decided ones, so
// memory stays bounded by the in-flight window, not the stream length.
// Statistics use warm-up truncation and stats::BatchMeans confidence
// intervals (consecutive instances share the cluster and correlate).
//
// run_one_shot runs a single instance on a fresh cluster: the class-1/2
// harness behind every isolated-execution campaign, plain, comparative or
// fault-injected. The class-3 schedule lives in
// consensus::ConsensusSequencer, driven by core::run_fault_class3. All
// three harnesses build their cluster with one assembly
// (core/workload_cluster.hpp) and return one record per instance,
// consensus::ExecutionResult. Each keeps its own NTP draw and proposal
// schedule, because the goldens pin every draw.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "core/config.hpp"       // Algorithm
#include "core/measurement.hpp"  // ExecutionResult, MeasuredLatency
#include "faults/plan.hpp"
#include "net/params.hpp"
#include "stats/summary.hpp"
#include "topo/topology.hpp"

namespace sanperf::core {

/// The emulated system a workload runs against: cluster size, network and
/// timer models, consensus algorithm, failure detection, and faults.
struct WorkloadConfig {
  std::size_t n = 3;
  net::NetworkParams network = net::NetworkParams::defaults();
  net::TimerModel timers = net::TimerModel::defaults();
  /// Network topology (topo::Topology). Null or single-rack = the paper's
  /// shared hub, bit-exact with the legacy engine; multi-rack routes
  /// frames over per-link servers and scopes domain fault events
  /// (kill_rack, partition_switch, domain loss) to its rack tree.
  std::shared_ptr<const topo::Topology> topology;
  Algorithm algorithm = Algorithm::kChandraToueg;
  /// Live heartbeat detection (timeout T, Th = 0.7 T) when set; otherwise a
  /// static complete-and-accurate detector pre-suspecting the hosts down at
  /// the start. run_one_shot always uses the static detector (the legacy
  /// class-1/2 harness contract).
  std::optional<double> heartbeat_timeout_ms;
  /// Host crashed before the stream starts (-1 none).
  int initially_crashed = -1;
  /// Optional declarative fault schedule replayed on the cluster; must
  /// outlive the run.
  const faults::FaultPlan* fault_plan = nullptr;
  /// Rotate the round-1 coordinator per instance (`cid % n`) instead of
  /// pinning host 0 (see ConsensusLayer::set_rotate_coordinators). Off by
  /// default: paper-pinned scenarios and their goldens keep host 0.
  bool rotate_coordinators = false;
  /// Stable-storage write-ahead log (consensus/durable_log.hpp): estimate,
  /// round and decision records persist before they become visible, and a
  /// warm-restarted host replays its log to rejoin in-flight instances.
  /// Off (the default) is bit-exact with the volatile engine.
  bool durable_log = false;
  /// Modelled latency of one log append; back-to-back appends queue on a
  /// serialised device. 0 = durable but free, still bit-exact with volatile.
  double durable_append_ms = 0.0;
  /// Starting member set for dynamic membership (empty = all n hosts,
  /// fixed membership, the legacy code paths). Hosts outside the set begin
  /// crashed and join via add_host plan events, decided in-stream.
  std::vector<int> initial_members;
  std::uint64_t seed = 1;
};

/// How instances arrive at the cluster.
enum class ArrivalProcess {
  kBurst,       ///< fixed grid: instance k starts at k * separation_ms
  kOpenLoop,    ///< Poisson arrivals at offered_per_s, ignoring completions
  kClosedLoop,  ///< `clients` clients: propose, await decision, think, repeat
};

[[nodiscard]] const char* to_string(ArrivalProcess arrivals);

/// Closed-loop think-time distribution.
enum class ThinkTimeDist {
  kFixed,  ///< deterministic constant think_ms (the historic behaviour)
  kExp,    ///< exponential with mean think_ms, drawn from the "think" substream
};

[[nodiscard]] const char* to_string(ThinkTimeDist dist);

/// A declarative stream of client values batched into consensus instances.
///
/// warmup/measured count client *values* (the unit a client observes); with
/// batch_size = 1 every value is its own instance and the two views
/// coincide. An instance counts as warm-up iff all its values are warm-up.
struct WorkloadSpec {
  ArrivalProcess arrivals = ArrivalProcess::kBurst;
  /// Leading values excluded from every statistic (warm-up truncation).
  std::size_t warmup = 0;
  /// Values the statistics cover; warmup + measured arrive in total.
  std::size_t measured = 100;
  double offered_per_s = 100.0;  ///< open-loop Poisson arrival rate
  std::size_t clients = 1;       ///< closed-loop concurrent clients
  double think_ms = 0.0;         ///< closed-loop pause between decision and next propose
  double separation_ms = 0.0;    ///< burst inter-start gap (0 = one simultaneous burst)
  /// Stream start (leaves heartbeat detectors time to settle).
  double start_ms = 10.0;
  /// Half-width of the per-process NTP start-time window (paper: +-50 us).
  double ntp_skew_ms = 0.05;
  /// Give-up deadline per instance; an instance that cannot decide (e.g. a
  /// majority lost to faults) closes as undecided and, in closed loop,
  /// releases its client.
  double instance_timeout_ms = 5000.0;
  /// Batch-means batches the measured instances are grouped into.
  std::size_t batches = 20;
  /// --- Batching & pipelining ---
  /// Values per consensus instance; a batch closes when full (see
  /// consensus::Batcher). 1 = every value is its own instance (legacy).
  std::size_t batch_size = 1;
  /// Max-linger deadline for a partial batch, measured from its first
  /// value. Bounds per-value queueing delay; also drains the stream's tail.
  double batch_linger_ms = 0.0;
  /// Maximum concurrently in-flight consensus instances; closed batches
  /// queue behind the window. 0 = unlimited (the legacy engine admitted
  /// every arrival immediately).
  std::size_t pipeline_window = 0;
  /// Closed-loop think-time distribution (kFixed preserves bit-identical
  /// streams; kExp draws from the dedicated "think" RNG substream).
  ThinkTimeDist think_dist = ThinkTimeDist::kFixed;
  /// Re-enqueue the values of an instance that closes undecided (give-up
  /// deadline) through the batcher, so a stream under restarts still
  /// delivers every submitted value exactly once at the engine level (each
  /// value records the one instance that decided it). Off = historic
  /// semantics: a gave-up value stays undecided forever.
  bool resubmit_undecided = false;
};

/// One client value of the stream, in arrival order. End-to-end latency
/// decomposes exactly into the queueing delay spent waiting for the batch
/// to close (plus any pipeline-window wait) and the consensus latency of
/// the instance that carried it.
struct ValueRecord {
  std::int64_t vid = 0;     ///< arrival index
  std::int32_t cid = -1;    ///< carrying instance (-1: never launched)
  double arrival_ms = 0;    ///< submission time
  double queue_ms = 0;      ///< instance launch - submission
  std::optional<double> consensus_ms;  ///< first decision - launch; empty = undecided

  [[nodiscard]] bool decided() const { return consensus_ms.has_value(); }
  [[nodiscard]] double total_ms() const { return queue_ms + *consensus_ms; }
  [[nodiscard]] double decide_ms() const { return arrival_ms + total_ms(); }
};

/// Steady-state statistics over the measured *values* (warm-up truncated);
/// the per-client view of the stream. With batch_size = 1 this coincides
/// with WorkloadStats.
struct ValueStats {
  /// Batch-means CI over per-value end-to-end latency (queue + consensus).
  stats::MeanCI latency_ci;
  double mean_latency_ms = 0;
  double p95_latency_ms = 0;
  double mean_queue_ms = 0;    ///< mean queueing delay of decided values
  double offered_per_s = 0;    ///< realised value arrival rate
  double delivered_per_s = 0;  ///< decided values per second of measured window
  double duration_ms = 0;
  std::size_t decided = 0;
  std::size_t undecided = 0;
};

/// Steady-state statistics over the measured window (warm-up truncated).
struct WorkloadStats {
  /// Batch-means CI over per-instance latency, in cid order. Falls back to
  /// a plain summary CI when fewer than one full batch decided.
  stats::MeanCI latency_ci;
  /// Batch-means CI over per-batch delivered rates (instances / batch
  /// window).
  stats::MeanCI throughput_ci;
  double mean_latency_ms = 0;
  double p95_latency_ms = 0;
  double offered_per_s = 0;    ///< realised arrival rate over the measured window
  double delivered_per_s = 0;  ///< decided instances per second of measured window
  double duration_ms = 0;      ///< first measured arrival to last measured decision
  std::size_t decided = 0;
  std::size_t undecided = 0;
};

struct WorkloadResult {
  /// One per instance in cid order, warm-up first; start_ms is the launch.
  std::vector<consensus::ExecutionResult> instances;
  /// Warm-up *instances* (instances whose values are all warm-up values);
  /// equals the spec's warmup at batch_size = 1.
  std::size_t warmup = 0;
  WorkloadStats stats;
  /// Per client value, in arrival order (warmup_values first).
  std::vector<ValueRecord> values;
  std::size_t warmup_values = 0;
  ValueStats value_stats;
  /// Values per launched instance (1.0 exactly when unbatched).
  double mean_batch_size = 0;
  std::uint64_t batches_closed_on_size = 0;
  std::uint64_t batches_closed_on_linger = 0;
  std::uint64_t batches_closed_on_flush = 0;
  /// Max per-process concurrently retained instances (the GC bound).
  std::size_t peak_active_instances = 0;
  /// Decided instances garbage-collected, summed over processes.
  std::uint64_t instances_collected = 0;
  /// One entry per applied membership change, in decision order (dynamic
  /// membership only; the change decided in-stream as a control instance).
  struct MembershipChange {
    double at_ms = 0;          ///< decision instant the epoch switched
    bool added = false;        ///< add_host vs remove_host
    int host = -1;
    std::uint32_t epoch = 0;   ///< epoch installed by the change
  };
  std::vector<MembershipChange> membership_changes;
  /// Durable-log totals summed over processes (0 when the log is off).
  std::uint64_t instances_replayed = 0;
  std::uint64_t durable_appends = 0;
  /// Simulator events executed over the whole run (warm-up included) and
  /// the simulated horizon reached -- the denominators of the engine
  /// throughput figures the scaling sweep reports.
  std::uint64_t events_processed = 0;
  double sim_duration_ms = 0;

  /// The measured instances (warm-up excluded).
  [[nodiscard]] std::span<const consensus::ExecutionResult> measured() const {
    return std::span{instances}.subspan(warmup);
  }
};

/// Runs `spec` against one persistent cluster described by `cfg`. Throws
/// std::invalid_argument naming the field when a timing (the log append
/// latency included) is negative or not finite, or the instance timeout
/// is not positive.
[[nodiscard]] WorkloadResult run_workload(const WorkloadConfig& cfg, const WorkloadSpec& spec);

/// One-shot mode: a single instance `k` on a fresh cluster seeded
/// `exec_seed`, with the static detector pre-suspecting every host down
/// at the start (cfg.initially_crashed and the hosts cfg.fault_plan
/// crashes at t <= 0). Only n, network, timers, topology, algorithm,
/// initially_crashed and fault_plan are read.
[[nodiscard]] consensus::ExecutionResult run_one_shot(const WorkloadConfig& cfg, std::size_t k,
                                                     std::uint64_t exec_seed);

/// The pure statistics fold behind WorkloadResult.stats: warm-up
/// truncation, batch-means CIs, realised offered/delivered rates.
[[nodiscard]] WorkloadStats fold_workload_stats(
    const std::vector<consensus::ExecutionResult>& instances, std::size_t warmup,
    std::size_t batches);

/// The per-value counterpart behind WorkloadResult.value_stats: warm-up
/// truncation over the first `warmup` values, batch-means CI over
/// end-to-end (queue + consensus) latencies.
[[nodiscard]] ValueStats fold_value_stats(const std::vector<ValueRecord>& values,
                                          std::size_t warmup, std::size_t batches);

}  // namespace sanperf::core
