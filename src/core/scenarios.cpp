// The workload-engine and fault-injection scenario families. Every
// run_workload scenario but the timed scale_n_sweep builds its grid points
// through one helper (run_stream_points) and keeps only what differs: its
// timers, seed, arrivals, durable log, rotation, topology, members and
// fault plan. The fault scenarios replay fault plans (src/faults) on
// isolated executions and class-3 sequences. The paper family lives in
// experiments.cpp.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <optional>
#include <stdexcept>

#include "core/campaign.hpp"
#include "core/rss.hpp"
#include "core/workload.hpp"
#include "des/random.hpp"
#include "stats/ecdf.hpp"
#include "topo/topology.hpp"

namespace sanperf::core {

namespace {

using Value = ResultTable::Value;
using ColumnType = ResultTable::ColumnType;

Value int_of(std::size_t v) { return Value{static_cast<std::int64_t>(v)}; }

Algorithm algorithm_of(const std::string& name) {
  if (name == "ct") return Algorithm::kChandraToueg;
  if (name == "mr") return Algorithm::kMostefaouiRaynal;
  throw std::invalid_argument{"unknown algorithm '" + name + "' (ct|mr)"};
}

// --- Phased folds ------------------------------------------------------------

/// The recovery scenarios fix the FD timeout at the paper's 10 ms operating
/// point.
constexpr double kFaultTimeoutMs = 10.0;

/// The window the before/during/after fold buckets against: the first
/// windowed event of the plan, a rolling restart spanning all n hosts (an
/// override plan may be shaped differently from the axis-derived one; an
/// event-free plan makes everything "before").
std::pair<double, double> fold_window(const faults::FaultPlan& plan, std::size_t n) {
  for (const auto& event : plan.events()) {
    if (event.kind == faults::FaultKind::kRollingRestart) {
      // The last host goes down (n - 1) staggers after the first.
      return {event.at_ms, event.at_ms + (static_cast<double>(n) - 1.0) * event.stagger_ms +
                               event.duration_ms};
    }
    if (event.kind == faults::FaultKind::kCrash ||
        event.kind == faults::FaultKind::kPartition ||
        event.kind == faults::FaultKind::kKillRack ||
        event.kind == faults::FaultKind::kPartitionSwitch) {
      return {event.at_ms, event.end_ms()};
    }
  }
  return {faults::kForeverMs, faults::kForeverMs};
}

Value phase_p95(const MeasuredLatency& phase) {
  if (phase.latencies_ms.empty()) return Value{};
  return Value{stats::Ecdf{phase.latencies_ms}.quantile(0.95)};
}

/// Executions a fold saw, decided or not.
std::size_t executions(const MeasuredLatency& m) { return m.latencies_ms.size() + m.undecided; }

// --- Fault-injection scenarios (src/faults) ----------------------------------

/// The phased class-3 scenarios strike 30% into the run, where the
/// sequencer is in steady state.
double fault_strike_ms(const Scale& scale) {
  return 0.3 * static_cast<double>(scale.class3_executions) * 10.0;  // 10 ms separation
}

/// crash_recovery_latency and partition_heal share one body: a class-3
/// campaign (live heartbeat FD, sequenced executions) whose plan either
/// crashes-and-recovers host 0 or splits {0} off and heals, folded into
/// before / during / after latency per grid point.
ScenarioSpec phased_fault_spec(bool partition_view) {
  ScenarioSpec spec;
  spec.name = partition_view ? "partition_heal" : "crash_recovery_latency";
  spec.description =
      partition_view
          ? "Consensus latency across a network partition of {0} that heals"
          : "Consensus latency across a crash + warm restart of host 0";
  spec.notes =
      partition_view
          ? "Host 0 coordinates round 1 of every instance, so isolating it\n"
            "forces a suspicion (~Th + T + tick) and a round-2 decision for\n"
            "every execution the window covers; latency returns to baseline\n"
            "once heartbeats flow again after the heal."
          : "While host 0 is down its executions decide in round 2 after the\n"
            "detection delay; the warm restart resets the TCP dead-peer state\n"
            "and restarts the heartbeat loop, so the after-phase matches the\n"
            "before-phase baseline.";
  spec.needs_calibration = false;
  spec.takes_fault_plan = true;
  const char* axis = partition_view ? "partition_ms" : "downtime_ms";
  spec.axes = [axis](const Scale& scale) {
    return std::vector<ParamAxis>{ParamAxis::sizes("n", scale.sim_ns),
                                  ParamAxis::reals(axis, {20, 60, 150})};
  };
  spec.columns = {{"n", ColumnType::kInt},         {axis, ColumnType::kReal},
                  {"before_ms", ColumnType::kMeanCI}, {"during_ms", ColumnType::kMeanCI},
                  {"after_ms", ColumnType::kMeanCI},  {"during_execs", ColumnType::kInt},
                  {"undecided", ColumnType::kInt}};
  spec.run = [axis, partition_view, name = spec.name,
              columns = spec.columns](const ScenarioRun& run) {
    const PaperContext& ctx = run.ctx;
    const double strike_ms = fault_strike_ms(ctx.scale);

    // One plan per grid point (an explicit --fault-plan replaces them all).
    std::vector<faults::FaultPlan> plans;
    ShardSpace space;
    for (std::size_t p = 0; p < run.grid.size(); ++p) {
      const auto point = run.grid.point(p);
      const std::size_t n = point.get_size("n");
      const double window_ms = point.get_real(axis);
      if (run.fault_plan != nullptr) {
        plans.push_back(*run.fault_plan);
      } else if (partition_view) {
        plans.push_back(faults::FaultPlan{}.add(
            faults::FaultPlan::partition({0}, strike_ms, window_ms)));
      } else {
        plans.push_back(faults::FaultPlan{}.add(
            faults::FaultPlan::crash_recover(0, strike_ms, window_ms)));
      }
      // Scenario-name label + value-encoded point: distinct streams across
      // the two phased scenarios and across grid points (restriction-
      // stable; --set values resolve at 0.001 ms).
      space.add_group(ctx.scale.class3_runs,
                      des::derive_seed(ctx.seed, name,
                                       1'000'000 * n +
                                           static_cast<std::uint64_t>(
                                               std::llround(1000.0 * window_ms))),
                      "run");
    }
    const auto runs = ctx.runner->run_flat(space, [&](const ShardSpace::Task& t) {
      const std::size_t n = run.grid.point(t.group).get_size("n");
      return run_fault_class3(n, ctx.network, ctx.timers, kFaultTimeoutMs,
                              ctx.scale.class3_executions, plans[t.group], t.seed);
    });

    ResultTable table{name, columns};
    for (std::size_t p = 0; p < run.grid.size(); ++p) {
      const auto point = run.grid.point(p);
      const auto [start_ms, end_ms] = fold_window(plans[p], point.get_size("n"));
      PhasedLatency phases;
      for (const auto& one : runs[p]) {  // run order: the sequential fold
        phases.merge(split_by_window(one.executions, start_ms, end_ms));
      }
      table.add_row({point.get_int("n"), point.get_real(axis), mean_ci_cell(phases.before),
                     mean_ci_cell(phases.during), mean_ci_cell(phases.after),
                     int_of(executions(phases.during)), int_of(phases.undecided())});
    }
    return table;
  };
  return spec;
}

ScenarioSpec lossy_consensus_spec() {
  ScenarioSpec spec;
  spec.name = "lossy_consensus";
  spec.description = "CT vs MR latency and decision rate under probabilistic frame loss";
  spec.notes =
      "Loss hits CT's single proposal path harder than MR's all-to-all AUX\n"
      "round: with static (never-suspecting) detectors a lost proposal can\n"
      "strand a participant, while MR tolerates losses up to the majority.\n"
      "At loss_pct = 0 both columns reproduce the loss-free baselines.";
  spec.needs_calibration = false;
  spec.takes_fault_plan = true;
  spec.axes = [](const Scale& scale) {
    return std::vector<ParamAxis>{ParamAxis::sizes("n", scale.sim_ns),
                                  ParamAxis::reals("loss_pct", {0, 1, 2, 5, 10}),
                                  ParamAxis::strings("algorithm", {"ct", "mr"})};
  };
  spec.columns = {{"n", ColumnType::kInt},           {"loss_pct", ColumnType::kReal},
                  {"algorithm", ColumnType::kString}, {"latency_ms", ColumnType::kMeanCI},
                  {"decided_pct", ColumnType::kReal}, {"undecided", ColumnType::kInt}};
  spec.run = [columns = spec.columns](const ScenarioRun& run) {
    const PaperContext& ctx = run.ctx;
    const auto timers = net::TimerModel::ideal();

    std::vector<faults::FaultPlan> plans;
    ShardSpace space;
    for (std::size_t p = 0; p < run.grid.size(); ++p) {
      const auto point = run.grid.point(p);
      const std::size_t n = point.get_size("n");
      const double pct = point.get_real("loss_pct");
      if (!(pct >= 0 && pct <= 100)) {
        throw std::invalid_argument{"lossy_consensus: loss_pct must be in [0, 100], got " +
                                    to_string(AxisValue{pct})};
      }
      faults::FaultPlan plan;
      if (run.fault_plan != nullptr) {
        plan = *run.fault_plan;
      } else if (pct > 0) {
        plan.add(faults::FaultPlan::loss(0, faults::kForeverMs, pct / 100.0));
      }
      plans.push_back(std::move(plan));
      space.add_group(ctx.scale.class1_executions,
                      des::derive_seed(
                          ctx.seed, "lossy_consensus",
                          1'000'000 * n +
                              2 * static_cast<std::uint64_t>(std::llround(1000.0 * pct)) +
                              (point.get_string("algorithm") == "mr" ? 1 : 0)),
                      "exec");
    }
    const auto outcomes = ctx.runner->run_flat(space, [&](const ShardSpace::Task& t) {
      const auto point = run.grid.point(t.group);
      WorkloadConfig cfg;
      cfg.n = point.get_size("n");
      cfg.network = ctx.network;
      cfg.timers = timers;
      cfg.algorithm = algorithm_of(point.get_string("algorithm"));
      cfg.fault_plan = &plans[t.group];
      return run_one_shot(cfg, t.index, t.seed);
    });

    ResultTable table{"lossy_consensus", columns};
    for (std::size_t p = 0; p < run.grid.size(); ++p) {
      const auto point = run.grid.point(p);
      const auto meas = fold_latency_outcomes(outcomes[p]);
      const std::size_t total = executions(meas);
      table.add_row({point.get_int("n"), point.get_real("loss_pct"),
                     point.get_string("algorithm"), mean_ci_cell(meas),
                     total > 0 ? Value{100.0 * static_cast<double>(meas.latencies_ms.size()) /
                                       static_cast<double>(total)}
                               : Value{},
                     int_of(meas.undecided)});
    }
    return table;
  };
  return spec;
}

ScenarioSpec slowdown_sweep_spec() {
  ScenarioSpec spec;
  spec.name = "slowdown_sweep";
  spec.description = "Latency vs CPU (straggler host 0) and pipeline slowdown factors";
  spec.notes =
      "A slow coordinator CPU serialises the proposal fan-out, so latency\n"
      "grows superlinearly in the factor at larger n; a slowed pipeline\n"
      "stretches every frame's stack traversal uniformly and shifts the\n"
      "whole distribution instead. Runs on the ablation network that splits\n"
      "the bimodal medium service evenly between the exclusive wire and the\n"
      "non-exclusive pipeline (the default attributes everything to the\n"
      "wire, leaving the pipeline stage empty).";
  spec.needs_calibration = false;
  spec.takes_fault_plan = true;
  spec.axes = [](const Scale& scale) {
    return std::vector<ParamAxis>{ParamAxis::sizes("n", scale.sim_ns),
                                  ParamAxis::strings("resource", {"cpu", "pipeline"}),
                                  ParamAxis::reals("factor", {1, 2, 4, 8})};
  };
  spec.columns = {{"n", ColumnType::kInt},          {"resource", ColumnType::kString},
                  {"factor", ColumnType::kReal},    {"latency_ms", ColumnType::kMeanCI},
                  {"vs_nominal", ColumnType::kReal}, {"undecided", ColumnType::kInt}};
  spec.run = [columns = spec.columns](const ScenarioRun& run) {
    const PaperContext& ctx = run.ctx;
    const auto timers = net::TimerModel::ideal();

    // The ablation split: half the calibrated medium service moves into the
    // non-exclusive pipeline stage, keeping the idle end-to-end delay while
    // giving the pipeline-slowdown axis something to act on.
    net::NetworkParams network = ctx.network;
    const auto halve = [](const stats::BimodalUniform& d) {
      return stats::BimodalUniform{d.p1, d.a1 / 2, d.b1 / 2, d.a2 / 2, d.b2 / 2};
    };
    network.wire_service = halve(ctx.network.wire_service);
    network.pipeline_latency = network.wire_service;

    std::vector<faults::FaultPlan> plans;
    ShardSpace space;
    for (std::size_t p = 0; p < run.grid.size(); ++p) {
      const auto point = run.grid.point(p);
      const std::size_t n = point.get_size("n");
      const double factor = point.get_real("factor");
      const bool pipeline = point.get_string("resource") == "pipeline";
      faults::FaultPlan plan;
      if (run.fault_plan != nullptr) {
        plan = *run.fault_plan;
      } else if (factor != 1.0) {
        plan.add(pipeline
                     ? faults::FaultPlan::pipeline_slow(0, faults::kForeverMs, factor)
                     : faults::FaultPlan::cpu_slow(0, 0, faults::kForeverMs, factor));
      }
      plans.push_back(std::move(plan));
      space.add_group(ctx.scale.class1_executions,
                      des::derive_seed(
                          ctx.seed, "slowdown_sweep",
                          1'000'000 * n +
                              2 * static_cast<std::uint64_t>(std::llround(1000.0 * factor)) +
                              (pipeline ? 1 : 0)),
                      "exec");
    }
    const auto outcomes = ctx.runner->run_flat(space, [&](const ShardSpace::Task& t) {
      WorkloadConfig cfg;
      cfg.n = run.grid.point(t.group).get_size("n");
      cfg.network = network;
      cfg.timers = timers;
      cfg.fault_plan = &plans[t.group];
      return run_one_shot(cfg, t.index, t.seed);
    });

    ResultTable table{"slowdown_sweep", columns};
    std::vector<MeasuredLatency> folded;
    folded.reserve(run.grid.size());
    for (const auto& group : outcomes) folded.push_back(fold_latency_outcomes(group));
    for (std::size_t p = 0; p < run.grid.size(); ++p) {
      const auto point = run.grid.point(p);
      // Nominal baseline: the factor = 1 row of the same (n, resource), if
      // the restriction kept it in the grid.
      Value vs_nominal{};
      for (std::size_t q = 0; q < run.grid.size(); ++q) {
        const auto other = run.grid.point(q);
        if (other.get_real("factor") == 1.0 && other.get_int("n") == point.get_int("n") &&
            other.get_string("resource") == point.get_string("resource") &&
            !folded[q].latencies_ms.empty() && !folded[p].latencies_ms.empty()) {
          vs_nominal = Value{folded[p].summary().mean() / folded[q].summary().mean()};
        }
      }
      table.add_row({point.get_int("n"), point.get_string("resource"), point.get_real("factor"),
                     mean_ci_cell(folded[p]), std::move(vs_nominal), int_of(folded[p].undecided)});
    }
    return table;
  };
  return spec;
}

// --- Workload-engine scenarios (core/workload.hpp) ---------------------------

/// A workload scenario's axes: `axes`, then the stream-size axes every
/// stream scenario carries -- single-valued by default (the Scale
/// presets), overridable and sweepable with --set warmup=... /
/// --set instances=...
std::vector<ParamAxis> stream_axes(const Scale& scale, std::vector<ParamAxis> axes) {
  axes.push_back(ParamAxis::sizes("warmup", {scale.workload_warmup}));
  axes.push_back(ParamAxis::sizes("instances", {scale.workload_instances}));
  return axes;
}

/// Restriction-stable per-grid-point seed for a workload stream: derived
/// from the point's value-encoded label, so a --set-restricted grid
/// reproduces the matching subset of the full grid bit for bit.
std::uint64_t workload_point_seed(std::uint64_t seed, const std::string& scenario,
                                  const ParamPoint& point) {
  return des::derive_seed(seed, scenario + "|" + point.label());
}

/// Mode-blind stream seed: the volatile and durable rows of the recovery
/// scenarios must run the *same* arrival/skew stream, so their columns
/// differ only by what the log rescues. Restriction-stable like
/// workload_point_seed (depends only on the named axis values).
std::uint64_t mode_blind_seed(std::uint64_t seed, const std::string& scenario,
                              const ParamPoint& point) {
  const std::string label =
      scenario + "|n=" + std::to_string(point.get_int("n")) +
      "|offered=" + std::to_string(point.get_real("offered_per_s")) +
      "|warmup=" + std::to_string(point.get_size("warmup")) +
      "|instances=" + std::to_string(point.get_size("instances"));
  return des::derive_seed(seed, label);
}

/// One grid point of a run_workload scenario: the cluster and stream it
/// runs, its fault plan (none unless the scenario builds one or
/// --fault-plan supplies it) and, once run, the result.
struct StreamPoint {
  ParamPoint point;
  WorkloadConfig cfg;
  WorkloadSpec stream;
  std::optional<faults::FaultPlan> plan;
  WorkloadResult result;
};

/// Builds every grid point of a run_workload scenario and runs the streams
/// over the runner, one sequential DES run per point (pure in its seed). A
/// point gets n, the context network, `timers`, the `algorithm` axis if
/// the grid has one, the restriction-stable workload_point_seed, and an
/// open-loop stream from the offered_per_s (if present), warmup and
/// instances axes. `setup` then sets what the scenario changes on the
/// point, its plan included, and an explicit --fault-plan replaces that
/// plan.
template <typename Setup>
std::vector<StreamPoint> run_stream_points(const ScenarioRun& run, const std::string& name,
                                           const net::TimerModel& timers, Setup setup) {
  // Sized once: cfg.fault_plan points into its own element.
  std::vector<StreamPoint> points(run.grid.size());
  for (std::size_t p = 0; p < points.size(); ++p) {
    StreamPoint& sp = points[p];
    sp.point = run.grid.point(p);
    sp.cfg.n = sp.point.get_size("n");
    sp.cfg.network = run.ctx.network;
    sp.cfg.timers = timers;
    if (run.grid.has_axis("algorithm")) {
      sp.cfg.algorithm = algorithm_of(sp.point.get_string("algorithm"));
    }
    sp.cfg.seed = workload_point_seed(run.ctx.seed, name, sp.point);
    sp.stream.arrivals = ArrivalProcess::kOpenLoop;
    if (run.grid.has_axis("offered_per_s")) {
      sp.stream.offered_per_s = sp.point.get_real("offered_per_s");
    }
    sp.stream.warmup = sp.point.get_size("warmup");
    sp.stream.measured = sp.point.get_size("instances");
    setup(sp);
    if (run.fault_plan != nullptr) sp.plan = *run.fault_plan;
    if (sp.plan) sp.cfg.fault_plan = &*sp.plan;
  }
  run.ctx.runner->for_each(points.size(), [&](std::size_t p) {
    points[p].result = run_workload(points[p].cfg, points[p].stream);
  });
  return points;
}

/// The simulated instant `frac` of the way into a stream's measured values
/// at its offered rate: where the stream scenarios schedule plan events.
double measured_instant_ms(const WorkloadSpec& stream, double frac) {
  return stream.start_ms + 1000.0 *
                               (static_cast<double>(stream.warmup) +
                                frac * static_cast<double>(stream.measured)) /
                               stream.offered_per_s;
}

/// A stream's measured instances split before / during / after its plan's
/// fault window.
PhasedLatency plan_phases(const StreamPoint& sp) {
  const auto [start_ms, end_ms] = fold_window(*sp.plan, sp.cfg.n);
  return split_by_window(sp.result.measured(), start_ms, end_ms);
}

Value latency_ci_cell(const WorkloadStats& stats) {
  if (stats.decided == 0) return Value{};
  return Value{stats.latency_ci};
}

Value value_latency_ci_cell(const ValueStats& stats) {
  if (stats.decided == 0) return Value{};
  return Value{stats.latency_ci};
}

ThinkTimeDist think_dist_of(const std::string& name) {
  if (name == "fixed") return ThinkTimeDist::kFixed;
  if (name == "exp") return ThinkTimeDist::kExp;
  throw std::invalid_argument{"unknown think_dist: " + name + " (fixed|exp)"};
}

void apply_batching(WorkloadSpec& stream, const ParamPoint& point) {
  stream.batch_size = point.get_size("batch_size");
  stream.batch_linger_ms = point.get_real("batch_linger_ms");
  stream.pipeline_window = point.get_size("pipeline_window");
}

ScenarioSpec load_latency_sweep_spec() {
  ScenarioSpec spec;
  spec.name = "load_latency_sweep";
  spec.description = "Steady-state latency vs offered load (open-loop Poisson), CT vs MR";
  spec.notes =
      "The Fig 8 blow-up shape with utilisation in place of the FD timeout:\n"
      "latency sits at the isolated baseline at low load, climbs through\n"
      "queueing as the offered load approaches the hub's service capacity,\n"
      "and blows up past the knee (delivered_per_s saturates below\n"
      "offered_per_s there). MR saturates earlier at equal n: Theta(n^2)\n"
      "AUX frames per instance fill the medium sooner than CT's Theta(n).";
  spec.needs_calibration = false;
  spec.axes = [](const Scale& scale) {
    // The batching/pipelining axes default to the unbatched engine; --set
    // sweeps them (e.g. --set batch_size=1,8,32).
    return stream_axes(scale, {ParamAxis::sizes("n", scale.sim_ns),
                               ParamAxis::strings("algorithm", {"ct", "mr"}),
                               ParamAxis::reals("offered_per_s", scale.offered_loads_per_s),
                               ParamAxis::sizes("batch_size", {1}),
                               ParamAxis::reals("batch_linger_ms", {0.0}),
                               ParamAxis::sizes("pipeline_window", {0})});
  };
  spec.columns = {{"n", ColumnType::kInt},
                  {"algorithm", ColumnType::kString},
                  {"offered_per_s", ColumnType::kReal},
                  {"batch_size", ColumnType::kInt},
                  {"pipeline_window", ColumnType::kInt},
                  {"delivered_per_s", ColumnType::kReal},
                  {"values_per_s", ColumnType::kReal},
                  {"latency_ms", ColumnType::kMeanCI},
                  {"p95_ms", ColumnType::kReal},
                  {"value_p95_ms", ColumnType::kReal},
                  {"peak_inflight", ColumnType::kInt},
                  {"undecided", ColumnType::kInt}};
  spec.run = [name = spec.name, columns = spec.columns](const ScenarioRun& run) {
    const auto points = run_stream_points(run, name, net::TimerModel::ideal(),
                                          [](StreamPoint& sp) {
                                            apply_batching(sp.stream, sp.point);
                                          });
    ResultTable table{name, columns};
    for (const StreamPoint& sp : points) {
      const WorkloadStats& stats = sp.result.stats;
      const ValueStats& vstats = sp.result.value_stats;
      table.add_row({sp.point.get_int("n"), sp.point.get_string("algorithm"),
                     sp.point.get_real("offered_per_s"), sp.point.get_int("batch_size"),
                     sp.point.get_int("pipeline_window"), stats.delivered_per_s,
                     vstats.delivered_per_s, latency_ci_cell(stats),
                     stats.decided > 0 ? Value{stats.p95_latency_ms} : Value{},
                     vstats.decided > 0 ? Value{vstats.p95_latency_ms} : Value{},
                     int_of(sp.result.peak_active_instances), int_of(stats.undecided)});
    }
    return table;
  };
  return spec;
}

ScenarioSpec batch_throughput_sweep_spec() {
  ScenarioSpec spec;
  spec.name = "batch_throughput_sweep";
  spec.description =
      "Delivered value throughput and per-value latency vs batch size at a fixed offered rate";
  spec.notes =
      "The amortisation curve behind ROADMAP item 2: the offered *value*\n"
      "rate sits far past the unbatched instance-rate knee (~376 inst/s at\n"
      "n = 5), so batch_size = 1 saturates -- queueing delay blows up and\n"
      "the stream falls behind -- while larger batches divide the instance\n"
      "rate by the batch size and deliver the full offered rate at a\n"
      "bounded p95. The max-linger deadline caps how long a value can wait\n"
      "for its batch to fill (at low rates it, not the size threshold,\n"
      "closes batches). queue_ms + consensus latency = end-to-end, per\n"
      "value.";
  spec.needs_calibration = false;
  spec.axes = [](const Scale& scale) {
    return stream_axes(
        scale, {ParamAxis::sizes("n", {5}), ParamAxis::strings("algorithm", {"ct"}),
                ParamAxis::sizes("batch_size", scale.batch_sizes),
                ParamAxis::reals("batch_linger_ms", {scale.batch_linger_ms}),
                ParamAxis::sizes("pipeline_window", {0}),
                ParamAxis::reals("offered_values_per_s", {scale.batch_offered_values_per_s})});
  };
  spec.columns = {{"n", ColumnType::kInt},
                  {"algorithm", ColumnType::kString},
                  {"batch_size", ColumnType::kInt},
                  {"batch_linger_ms", ColumnType::kReal},
                  {"pipeline_window", ColumnType::kInt},
                  {"offered_values_per_s", ColumnType::kReal},
                  {"instances_per_s", ColumnType::kReal},
                  {"values_per_s", ColumnType::kReal},
                  {"value_latency_ms", ColumnType::kMeanCI},
                  {"value_p95_ms", ColumnType::kReal},
                  {"queue_ms", ColumnType::kReal},
                  {"mean_batch", ColumnType::kReal},
                  {"undecided_values", ColumnType::kInt}};
  spec.run = [name = spec.name, columns = spec.columns](const ScenarioRun& run) {
    const auto points =
        run_stream_points(run, name, net::TimerModel::ideal(), [](StreamPoint& sp) {
          sp.stream.offered_per_s = sp.point.get_real("offered_values_per_s");
          apply_batching(sp.stream, sp.point);
        });
    ResultTable table{name, columns};
    for (const StreamPoint& sp : points) {
      const ValueStats& vstats = sp.result.value_stats;
      table.add_row({sp.point.get_int("n"), sp.point.get_string("algorithm"),
                     sp.point.get_int("batch_size"), sp.point.get_real("batch_linger_ms"),
                     sp.point.get_int("pipeline_window"),
                     sp.point.get_real("offered_values_per_s"), sp.result.stats.delivered_per_s,
                     vstats.delivered_per_s, value_latency_ci_cell(vstats),
                     vstats.decided > 0 ? Value{vstats.p95_latency_ms} : Value{},
                     vstats.decided > 0 ? Value{vstats.mean_queue_ms} : Value{},
                     sp.result.mean_batch_size, int_of(vstats.undecided)});
    }
    return table;
  };
  return spec;
}

ScenarioSpec closed_loop_clients_spec() {
  ScenarioSpec spec;
  spec.name = "closed_loop_clients";
  spec.description = "Closed-loop client sweep: delivered throughput and latency vs clients";
  spec.notes =
      "One client reproduces the back-to-back extension and is already\n"
      "near the hub's capacity (zero think time). Adding clients therefore\n"
      "buys no throughput -- interleaved instances pay more per-frame\n"
      "contention, so delivered_per_s falls below the 1-client rate\n"
      "(vs_one_client < 1) while per-instance latency grows roughly\n"
      "linearly in the client count: the closed-loop saturation plateau,\n"
      "approached from below.";
  spec.needs_calibration = false;
  spec.axes = [](const Scale& scale) {
    return stream_axes(scale, {ParamAxis::sizes("n", scale.sim_ns),
                               ParamAxis::sizes("clients", scale.client_counts),
                               ParamAxis::reals("think_ms", {0}),
                               ParamAxis::strings("think_dist", {"fixed"})});
  };
  spec.columns = {{"n", ColumnType::kInt},
                  {"clients", ColumnType::kInt},
                  {"think_ms", ColumnType::kReal},
                  {"think_dist", ColumnType::kString},
                  {"delivered_per_s", ColumnType::kReal},
                  {"vs_one_client", ColumnType::kReal},
                  {"latency_ms", ColumnType::kMeanCI},
                  {"p95_ms", ColumnType::kReal},
                  {"undecided", ColumnType::kInt}};
  spec.run = [name = spec.name, columns = spec.columns](const ScenarioRun& run) {
    const auto points =
        run_stream_points(run, name, net::TimerModel::ideal(), [](StreamPoint& sp) {
          sp.stream.arrivals = ArrivalProcess::kClosedLoop;
          sp.stream.clients = sp.point.get_size("clients");
          sp.stream.think_ms = sp.point.get_real("think_ms");
          sp.stream.think_dist = think_dist_of(sp.point.get_string("think_dist"));
        });
    ResultTable table{name, columns};
    for (const StreamPoint& sp : points) {
      const ParamPoint& point = sp.point;
      const WorkloadStats& stats = sp.result.stats;
      // Scaling baseline: the clients = 1 row agreeing with this one on
      // every other axis (n, think_ms, warmup, instances -- stream-length
      // sweeps must not mix baselines), if the restriction kept it.
      Value vs_one{};
      for (const StreamPoint& other : points) {
        const ParamPoint& o = other.point;
        if (o.get_int("clients") == 1 && o.get_int("n") == point.get_int("n") &&
            o.get_real("think_ms") == point.get_real("think_ms") &&
            o.get_string("think_dist") == point.get_string("think_dist") &&
            o.get_size("warmup") == point.get_size("warmup") &&
            o.get_size("instances") == point.get_size("instances") &&
            other.result.stats.delivered_per_s > 0) {
          // emplace<> rather than variant assignment: gcc-12 under ASan flags
          // the move-assign visitor's string alternative as maybe-uninitialized.
          vs_one.emplace<double>(stats.delivered_per_s / other.result.stats.delivered_per_s);
        }
      }
      table.add_row({point.get_int("n"), point.get_int("clients"), point.get_real("think_ms"),
                     point.get_string("think_dist"),
                     stats.delivered_per_s, std::move(vs_one), latency_ci_cell(stats),
                     stats.decided > 0 ? Value{stats.p95_latency_ms} : Value{},
                     int_of(stats.undecided)});
    }
    return table;
  };
  return spec;
}

ScenarioSpec crash_under_load_spec() {
  ScenarioSpec spec;
  spec.name = "crash_under_load";
  spec.description = "Open-loop stream with a crash + warm restart of host 0 mid-stream";
  spec.notes =
      "Host 0 coordinates round 1 of every instance, so its downtime shows\n"
      "as a latency transient: the instances in flight at the crash pay the\n"
      "full detection delay (~Th + T + tick), later during-window instances\n"
      "only the round-2 detour, and the stream returns to the before-phase\n"
      "baseline once the warm restart re-earns trust. Unlike the isolated\n"
      "crash_recovery_latency runs, arrivals keep coming during the outage,\n"
      "so the backlog drains through contention after recovery.";
  spec.needs_calibration = false;
  spec.takes_fault_plan = true;
  spec.axes = [](const Scale& scale) {
    return stream_axes(scale, {ParamAxis::sizes("n", scale.sim_ns),
                               ParamAxis::reals("downtime_ms", {20, 60, 150}),
                               ParamAxis::reals("offered_per_s", {200})});
  };
  spec.columns = {{"n", ColumnType::kInt},
                  {"downtime_ms", ColumnType::kReal},
                  {"offered_per_s", ColumnType::kReal},
                  {"before_ms", ColumnType::kMeanCI},
                  {"during_ms", ColumnType::kMeanCI},
                  {"after_ms", ColumnType::kMeanCI},
                  {"during_execs", ColumnType::kInt},
                  {"undecided", ColumnType::kInt}};
  spec.run = [name = spec.name, columns = spec.columns](const ScenarioRun& run) {
    const auto points = run_stream_points(run, name, run.ctx.timers, [](StreamPoint& sp) {
      sp.cfg.heartbeat_timeout_ms = kFaultTimeoutMs;
      // Strike 40% into the measured window, where the stream is past its
      // warm-up and still leaves room for the after-phase baseline.
      sp.plan = faults::FaultPlan{}.add(faults::FaultPlan::crash_recover(
          0, measured_instant_ms(sp.stream, 0.4), sp.point.get_real("downtime_ms")));
    });
    ResultTable table{name, columns};
    for (const StreamPoint& sp : points) {
      const PhasedLatency phases = plan_phases(sp);
      table.add_row({sp.point.get_int("n"), sp.point.get_real("downtime_ms"),
                     sp.point.get_real("offered_per_s"), mean_ci_cell(phases.before),
                     mean_ci_cell(phases.during), mean_ci_cell(phases.after),
                     int_of(executions(phases.during)), int_of(phases.undecided())});
    }
    return table;
  };
  return spec;
}

// --- Durable recovery & membership scenarios ---------------------------------

ScenarioSpec recovery_under_load_spec() {
  ScenarioSpec spec;
  spec.name = "recovery_under_load";
  spec.description =
      "Pinned-coordinator crash under load: volatile vs durable-log recovery";
  spec.notes =
      "The failure detector is static (host 0 is never suspected), so the\n"
      "instances in flight at the crash have no round-2 escape. The stream\n"
      "runs saturated behind a 16-instance pipeline window, so the window\n"
      "is full when the crash lands: every stalled instance is in host 0's\n"
      "write-ahead log, and arrivals queue behind the window instead of\n"
      "launching into the outage. Volatile, the stalled window blocks the\n"
      "whole stream until the give-up deadline and closes undecided;\n"
      "durable, the restarted host replays its records, rejoins exactly\n"
      "those instances and the stream resumes at recovery -- the undecided\n"
      "/ replayed columns and the end-to-end value p95 are the\n"
      "availability envelope the log buys, priced at append_ms per record.";
  spec.needs_calibration = false;
  spec.takes_fault_plan = true;
  spec.axes = [](const Scale& scale) {
    return stream_axes(scale, {ParamAxis::sizes("n", scale.sim_ns),
                               ParamAxis::strings("mode", {"volatile", "durable"}),
                               ParamAxis::reals("append_ms", {0.1}),
                               ParamAxis::reals("downtime_ms", {60}),
                               ParamAxis::reals("offered_per_s", {2000})});
  };
  spec.columns = {{"n", ColumnType::kInt},
                  {"mode", ColumnType::kString},
                  {"offered_per_s", ColumnType::kReal},
                  {"before_ms", ColumnType::kMeanCI},
                  {"during_ms", ColumnType::kMeanCI},
                  {"after_ms", ColumnType::kMeanCI},
                  {"value_p95_ms", ColumnType::kReal},
                  {"delivered_per_s", ColumnType::kReal},
                  {"undecided", ColumnType::kInt},
                  {"replayed", ColumnType::kInt},
                  {"log_appends", ColumnType::kInt}};
  spec.run = [name = spec.name, columns = spec.columns](const ScenarioRun& run) {
    const auto points = run_stream_points(run, name, run.ctx.timers, [&](StreamPoint& sp) {
      // No heartbeat detector: recovery, not detection, is the only way out.
      sp.cfg.durable_log = sp.point.get_string("mode") == "durable";
      sp.cfg.durable_append_ms = sp.point.get_real("append_ms");
      sp.cfg.seed = mode_blind_seed(run.ctx.seed, name, sp.point);
      // A stalled instance's horizon: far past the recovery (replay gets
      // its chance) but short enough that volatile-mode stalls drain fast.
      sp.stream.instance_timeout_ms = 1000.0;
      // Saturating load behind a bounded window: the window is full at the
      // strike (all of it replayable from host 0's log) and outage-time
      // arrivals queue instead of stalling unrescuably.
      sp.stream.pipeline_window = 16;
      sp.plan = faults::FaultPlan{}.add(faults::FaultPlan::crash_recover(
          0, measured_instant_ms(sp.stream, 0.4), sp.point.get_real("downtime_ms")));
    });
    ResultTable table{name, columns};
    for (const StreamPoint& sp : points) {
      const PhasedLatency phases = plan_phases(sp);
      table.add_row({sp.point.get_int("n"), sp.point.get_string("mode"),
                     sp.point.get_real("offered_per_s"), mean_ci_cell(phases.before),
                     mean_ci_cell(phases.during), mean_ci_cell(phases.after),
                     sp.result.value_stats.p95_latency_ms,
                     sp.result.value_stats.delivered_per_s, int_of(phases.undecided()),
                     int_of(sp.result.instances_replayed),
                     int_of(sp.result.durable_appends)});
    }
    return table;
  };
  return spec;
}

ScenarioSpec rolling_restart_spec() {
  ScenarioSpec spec;
  spec.name = "rolling_restart";
  spec.description =
      "Staggered whole-cluster restart under load, volatile vs durable log";
  spec.notes =
      "Every host in turn crashes and warm-restarts (one at a time: the\n"
      "stagger exceeds downtime + detection), with live heartbeat detection\n"
      "and per-instance coordinator rotation spreading the pain. Values on\n"
      "gave-up instances are resubmitted, so every submitted value is\n"
      "delivered exactly once (undelivered stays 0) in both modes. A\n"
      "restarted host replays whatever its log shows in flight instead of\n"
      "abandoning it to the give-up deadline -- visible in the replayed\n"
      "column once the offered load keeps instances in flight at the crash\n"
      "instants (raise offered_per_s to probe that regime).";
  spec.needs_calibration = false;
  spec.takes_fault_plan = true;
  spec.axes = [](const Scale& scale) {
    return stream_axes(scale, {ParamAxis::sizes("n", scale.sim_ns),
                               ParamAxis::strings("mode", {"volatile", "durable"}),
                               ParamAxis::reals("append_ms", {0.1}),
                               ParamAxis::reals("downtime_ms", {60}),
                               ParamAxis::reals("stagger_ms", {150}),
                               ParamAxis::reals("offered_per_s", {200})});
  };
  spec.columns = {{"n", ColumnType::kInt},
                  {"mode", ColumnType::kString},
                  {"before_ms", ColumnType::kMeanCI},
                  {"during_ms", ColumnType::kMeanCI},
                  {"after_ms", ColumnType::kMeanCI},
                  {"during_p95_ms", ColumnType::kReal},
                  {"delivered", ColumnType::kInt},
                  {"undelivered", ColumnType::kInt},
                  {"replayed", ColumnType::kInt}};
  spec.run = [name = spec.name, columns = spec.columns](const ScenarioRun& run) {
    const auto points = run_stream_points(run, name, run.ctx.timers, [&](StreamPoint& sp) {
      sp.cfg.heartbeat_timeout_ms = kFaultTimeoutMs;
      sp.cfg.rotate_coordinators = true;
      sp.cfg.durable_log = sp.point.get_string("mode") == "durable";
      sp.cfg.durable_append_ms = sp.point.get_real("append_ms");
      sp.cfg.seed = mode_blind_seed(run.ctx.seed, name, sp.point);
      sp.stream.instance_timeout_ms = 1000.0;
      sp.stream.resubmit_undecided = true;  // exactly-once across the storm
      sp.plan = faults::FaultPlan{}.add(faults::FaultPlan::rolling_restart(
          measured_instant_ms(sp.stream, 0.3), sp.point.get_real("downtime_ms"),
          sp.point.get_real("stagger_ms")));
    });
    ResultTable table{name, columns};
    for (const StreamPoint& sp : points) {
      const PhasedLatency phases = plan_phases(sp);
      table.add_row({sp.point.get_int("n"), sp.point.get_string("mode"),
                     mean_ci_cell(phases.before), mean_ci_cell(phases.during), mean_ci_cell(phases.after),
                     phase_p95(phases.during), int_of(sp.result.value_stats.decided),
                     int_of(sp.result.value_stats.undecided),
                     int_of(sp.result.instances_replayed)});
    }
    return table;
  };
  return spec;
}

ScenarioSpec membership_growth_spec() {
  ScenarioSpec spec;
  spec.name = "membership_growth";
  spec.description = "Live group growth 3 -> 5 under load, changes decided in-stream";
  spec.notes =
      "The stream starts on members {0,1,2} of a 5-host cluster; add_host\n"
      "control instances decide hosts 3 and 4 in at ~35% and ~65% of the\n"
      "measured span. Each change is agreed by the then-current members and\n"
      "applied view-synchronously at its decision instant; in-flight\n"
      "instances keep their launch epoch's quorum, so no value is lost\n"
      "across either switch (undecided stays 0). The three phase columns\n"
      "show the majority price of growth: 2-of-3 -> 3-of-4 -> 3-of-5\n"
      "acknowledgements on the same contended hub.";
  spec.needs_calibration = false;
  spec.takes_fault_plan = true;
  spec.axes = [](const Scale& scale) {
    return stream_axes(scale,
                       {ParamAxis::ints("n", {5}), ParamAxis::reals("offered_per_s", {200})});
  };
  spec.columns = {{"n", ColumnType::kInt},
                  {"offered_per_s", ColumnType::kReal},
                  {"n3_ms", ColumnType::kMeanCI},
                  {"n4_ms", ColumnType::kMeanCI},
                  {"n5_ms", ColumnType::kMeanCI},
                  {"n5_p95_ms", ColumnType::kReal},
                  {"epochs", ColumnType::kInt},
                  {"undecided", ColumnType::kInt}};
  spec.run = [name = spec.name, columns = spec.columns](const ScenarioRun& run) {
    const auto points = run_stream_points(run, name, run.ctx.timers, [](StreamPoint& sp) {
      sp.cfg.initial_members = {0, 1, 2};
      sp.plan = faults::FaultPlan{}
                    .add(faults::FaultPlan::add_host(3, measured_instant_ms(sp.stream, 0.35)))
                    .add(faults::FaultPlan::add_host(4, measured_instant_ms(sp.stream, 0.65)));
    });
    ResultTable table{name, columns};
    for (const StreamPoint& sp : points) {
      // Bucket against the *decision* instants when both changes landed
      // (the scheduled times otherwise): before = 3 members, during = 4,
      // after = 5.
      double t1 = measured_instant_ms(sp.stream, 0.35);
      double t2 = measured_instant_ms(sp.stream, 0.65);
      const auto& changes = sp.result.membership_changes;
      if (changes.size() >= 2) {
        t1 = changes.front().at_ms;
        t2 = changes.back().at_ms;
      }
      const PhasedLatency phases = split_by_window(sp.result.measured(), t1, t2);
      table.add_row({sp.point.get_int("n"), sp.point.get_real("offered_per_s"),
                     mean_ci_cell(phases.before), mean_ci_cell(phases.during), mean_ci_cell(phases.after),
                     phase_p95(phases.after), int_of(changes.size()),
                     int_of(phases.undecided())});
    }
    return table;
  };
  return spec;
}

// --- Topology scenarios (src/topo) -------------------------------------------

/// The shared 2-rack layout of the topology scenarios: hosts split
/// contiguously (rack 0 takes the remainder, so the round-1 coordinator
/// host 0 always sits in the majority rack) with the given uplink latency.
std::shared_ptr<const topo::Topology> two_rack_topology(std::size_t n, std::size_t racks,
                                                        double uplink_latency_ms) {
  topo::LinkParams uplink;
  uplink.latency_ms = uplink_latency_ms;
  return std::make_shared<const topo::Topology>(
      topo::Topology::uniform(n, racks, topo::LinkParams{}, uplink));
}

ScenarioSpec rack_loss_consensus_spec() {
  ScenarioSpec spec;
  spec.name = "rack_loss_consensus";
  spec.description =
      "CT vs MR through the correlated crash of a whole rack (kill_rack) on a 2-rack topology";
  spec.notes =
      "The result class the single-hub model cannot express: every host of\n"
      "the minority rack dies at the same instant (one kill_rack event\n"
      "lowered against the failure-domain tree), so the survivors lose\n"
      "several peers at once instead of one. The contiguous split keeps the\n"
      "round-1 coordinator in the surviving majority rack, so decisions\n"
      "continue through the outage -- and the during window is typically\n"
      "*faster*: once the heartbeat detector times the dead rack out, the\n"
      "quorum goes rack-local (no uplink crossings) and the per-link load\n"
      "drops. Recovery re-adds the remote rack and latency returns to the\n"
      "cross-rack baseline; CT vs MR compares round structure through that\n"
      "membership dip.";
  spec.needs_calibration = false;
  spec.takes_fault_plan = true;
  spec.axes = [](const Scale& scale) {
    return stream_axes(scale, {ParamAxis::sizes("n", scale.sim_ns),
                               ParamAxis::sizes("racks", {2}),
                               ParamAxis::strings("algorithm", {"ct", "mr"}),
                               ParamAxis::reals("downtime_ms", {60}),
                               ParamAxis::reals("offered_per_s", {200})});
  };
  spec.columns = {{"n", ColumnType::kInt},
                  {"racks", ColumnType::kInt},
                  {"algorithm", ColumnType::kString},
                  {"downtime_ms", ColumnType::kReal},
                  {"offered_per_s", ColumnType::kReal},
                  {"before_ms", ColumnType::kMeanCI},
                  {"during_ms", ColumnType::kMeanCI},
                  {"after_ms", ColumnType::kMeanCI},
                  {"during_execs", ColumnType::kInt},
                  {"undecided", ColumnType::kInt}};
  spec.run = [name = spec.name, columns = spec.columns](const ScenarioRun& run) {
    // An explicit --fault-plan replaces every plan, still lowered against
    // the point's topology.
    const auto points = run_stream_points(run, name, run.ctx.timers, [](StreamPoint& sp) {
      const std::size_t racks = sp.point.get_size("racks");
      sp.cfg.topology = two_rack_topology(sp.cfg.n, racks, /*uplink_latency_ms=*/0.05);
      sp.cfg.heartbeat_timeout_ms = kFaultTimeoutMs;
      // Kill the last (minority) rack 40% into the measured window (the
      // crash_under_load shape): the contiguous split leaves host 0 -- and
      // with it the round-1 coordinator -- in rack 0.
      sp.plan = faults::FaultPlan{}.add(faults::FaultPlan::kill_rack(
          static_cast<int>(racks) - 1, measured_instant_ms(sp.stream, 0.4),
          sp.point.get_real("downtime_ms")));
    });
    ResultTable table{name, columns};
    for (const StreamPoint& sp : points) {
      const PhasedLatency phases = plan_phases(sp);
      table.add_row({sp.point.get_int("n"), sp.point.get_int("racks"),
                     sp.point.get_string("algorithm"), sp.point.get_real("downtime_ms"),
                     sp.point.get_real("offered_per_s"), mean_ci_cell(phases.before),
                     mean_ci_cell(phases.during), mean_ci_cell(phases.after),
                     int_of(executions(phases.during)), int_of(phases.undecided())});
    }
    return table;
  };
  return spec;
}

ScenarioSpec cross_rack_latency_sweep_spec() {
  ScenarioSpec spec;
  spec.name = "cross_rack_latency_sweep";
  spec.description =
      "Steady-state stream latency vs cross-rack uplink latency on a 2-rack topology";
  spec.notes =
      "The load engine over routed delivery: inter-rack frames pay two\n"
      "uplink occupancies plus twice the swept propagation latency. Whether\n"
      "that reaches the end-to-end latency depends on where the quorum\n"
      "lives: at odd n the majority rack holds a full quorum by itself and\n"
      "the sweep stays flat (n = 3 is the control row), while the even\n"
      "sizes split 2+2 / 3+3 so every quorum must cross the spine and the\n"
      "latency floor rises with the uplink. That quorum-placement effect is\n"
      "exactly what the single-hub model cannot express.";
  spec.needs_calibration = false;
  spec.axes = [](const Scale& scale) {
    // Fixed sizes rather than scale.sim_ns: the even rows (no rack holds
    // a quorum alone) are the point of the sweep, the odd row the control.
    return stream_axes(scale, {ParamAxis::sizes("n", {3, 4, 6}),
                               ParamAxis::sizes("racks", {2}),
                               ParamAxis::reals("uplink_ms", {0, 0.1, 0.5, 2.0}),
                               ParamAxis::reals("offered_per_s", {200})});
  };
  spec.columns = {{"n", ColumnType::kInt},
                  {"racks", ColumnType::kInt},
                  {"uplink_ms", ColumnType::kReal},
                  {"offered_per_s", ColumnType::kReal},
                  {"delivered_per_s", ColumnType::kReal},
                  {"latency_ms", ColumnType::kMeanCI},
                  {"p95_ms", ColumnType::kReal},
                  {"undecided", ColumnType::kInt}};
  spec.run = [name = spec.name, columns = spec.columns](const ScenarioRun& run) {
    const auto points =
        run_stream_points(run, name, net::TimerModel::ideal(), [](StreamPoint& sp) {
          sp.cfg.topology = two_rack_topology(sp.cfg.n, sp.point.get_size("racks"),
                                              sp.point.get_real("uplink_ms"));
        });
    ResultTable table{name, columns};
    for (const StreamPoint& sp : points) {
      const WorkloadStats& stats = sp.result.stats;
      table.add_row({sp.point.get_int("n"), sp.point.get_int("racks"),
                     sp.point.get_real("uplink_ms"), sp.point.get_real("offered_per_s"),
                     stats.delivered_per_s, latency_ci_cell(stats),
                     stats.decided > 0 ? Value{stats.p95_latency_ms} : Value{},
                     int_of(stats.undecided)});
    }
    return table;
  };
  return spec;
}

ScenarioSpec scale_n_sweep_spec() {
  ScenarioSpec spec;
  spec.name = "scale_n_sweep";
  spec.description =
      "Engine throughput (events/s, ns/event, peak RSS) vs cluster size, unicast vs batched "
      "broadcast";
  spec.notes =
      "The single-run scaling story: one open-loop MR stream per point at an\n"
      "offered load ~1/n^2 (the per-instance frame count is Theta(n^2), so\n"
      "this keeps utilisation comparable across sizes). The engine axis\n"
      "compares per-receiver broadcast fan-out (heap_unicast) against\n"
      "batched hub broadcast (ladder_batched). The 'ladder' in that label\n"
      "names a queue backend that no longer exists; the label stays because\n"
      "each point's seed hashes it, and renaming it would reseed the golden.\n"
      "Simulated results -- delivered_per_s, events, sim_ms -- appear in the\n"
      "golden; the wall-clock columns (events_per_s, ns_per_event,\n"
      "peak_rss_mb) are machine facts, diffed with --ignore-cols in CI.\n"
      "peak_rss_mb is the process high-water mark, so within a sweep only\n"
      "the largest n is clean.";
  spec.needs_calibration = false;
  spec.axes = [](const Scale& scale) {
    return stream_axes(scale,
                       {ParamAxis::sizes("n", {3, 5, 9, 17, 33, 65, 129}),
                        ParamAxis::strings("engine", {"heap_unicast", "ladder_batched"})});
  };
  spec.columns = {{"engine", ColumnType::kString},
                  {"n", ColumnType::kInt},
                  {"offered_per_s", ColumnType::kReal},
                  {"delivered_per_s", ColumnType::kReal},
                  {"events", ColumnType::kReal},
                  {"sim_ms", ColumnType::kReal},
                  {"events_per_s", ColumnType::kReal},
                  {"ns_per_event", ColumnType::kReal},
                  {"peak_rss_mb", ColumnType::kReal},
                  {"undecided", ColumnType::kInt}};
  spec.run = [name = spec.name, columns = spec.columns](const ScenarioRun& run) {
    const PaperContext& ctx = run.ctx;
    const auto timers = net::TimerModel::ideal();
    struct PointResult {
      WorkloadResult workload;
      double offered_per_s = 0;
      double wall_s = 0;
      double rss_mb = 0;
    };
    const auto results = ctx.runner->map(run.grid.size(), [&](std::size_t p) {
      const auto point = run.grid.point(p);
      const std::size_t n = point.get_size("n");
      WorkloadConfig cfg;
      cfg.n = n;
      cfg.network = ctx.network;
      cfg.timers = timers;
      cfg.algorithm = Algorithm::kMostefaouiRaynal;
      const std::string engine = point.get_string("engine");
      if (engine != "heap_unicast" && engine != "ladder_batched") {
        throw std::invalid_argument{"unknown engine '" + engine + "'"};
      }
      cfg.network.batched_broadcast = engine == "ladder_batched";
      cfg.seed = workload_point_seed(ctx.seed, name, point);
      WorkloadSpec stream;
      stream.arrivals = ArrivalProcess::kOpenLoop;
      // Theta(n^2) frames per MR instance: an offered load ~1/n^2 keeps the
      // medium at comparable utilisation across the whole size ladder.
      stream.offered_per_s = 2000.0 / (static_cast<double>(n) * static_cast<double>(n));
      // Instance cost grows ~n^2, so the stream shrinks with n to keep the
      // largest sizes tractable at every scale preset.
      const std::size_t base = point.get_size("instances");
      stream.measured = std::min(base, std::max<std::size_t>(6, 8 * base / n));
      stream.warmup = std::min(point.get_size("warmup"),
                               std::max<std::size_t>(2, stream.measured / 8));
      stream.instance_timeout_ms = 60'000.0;
      PointResult res;
      res.offered_per_s = stream.offered_per_s;
      // Wall-clock engine throughput is the point of this sweep; the
      // simulated outputs stay host-independent.
      const auto wall_start = std::chrono::steady_clock::now();  // det-lint: allow(wall-clock) measures engine speed, not simulated time
      res.workload = run_workload(cfg, stream);
      const auto wall_end = std::chrono::steady_clock::now();  // det-lint: allow(wall-clock) measures engine speed, not simulated time
      res.wall_s = std::chrono::duration<double>(wall_end - wall_start).count();
      res.rss_mb = static_cast<double>(peak_rss_bytes()) / (1024.0 * 1024.0);
      return res;
    });
    ResultTable table{name, columns};
    for (std::size_t p = 0; p < run.grid.size(); ++p) {
      const auto point = run.grid.point(p);
      const PointResult& res = results[p];
      const auto events = static_cast<double>(res.workload.events_processed);
      const double events_per_s = res.wall_s > 0 ? events / res.wall_s : 0.0;
      table.add_row({point.get_string("engine"), point.get_int("n"), res.offered_per_s,
                     res.workload.stats.delivered_per_s, events, res.workload.sim_duration_ms,
                     events_per_s, events_per_s > 0 ? Value{1e9 / events_per_s} : Value{},
                     res.rss_mb > 0 ? Value{res.rss_mb} : Value{},
                     int_of(res.workload.stats.undecided)});
    }
    return table;
  };
  return spec;
}

}  // namespace

std::vector<ScenarioSpec> workload_scenarios() {
  return {scale_n_sweep_spec(),          load_latency_sweep_spec(),
          batch_throughput_sweep_spec(), closed_loop_clients_spec(),
          crash_under_load_spec(),       recovery_under_load_spec(),
          rolling_restart_spec(),        membership_growth_spec(),
          rack_loss_consensus_spec(),    cross_rack_latency_sweep_spec()};
}

std::vector<ScenarioSpec> fault_scenarios() {
  return {phased_fault_spec(/*partition_view=*/false),  // crash_recovery_latency
          phased_fault_spec(/*partition_view=*/true),   // partition_heal
          lossy_consensus_spec(), slowdown_sweep_spec()};
}

}  // namespace sanperf::core
