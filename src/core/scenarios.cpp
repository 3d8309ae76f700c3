// The built-in campaign registry: every paper artifact (Fig 6, 7a, 7b,
// Table 1, Fig 8, 9a, 9b), the model ablations and the future-work
// extensions, each re-expressed as a declarative ScenarioSpec over the
// flattened ShardSpace fan-out. The per-figure logic lives in the typed
// driver functions (experiments/extensions); the specs describe the axes,
// the output schema, and the fold into a ResultTable.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <stdexcept>

#include "core/campaign.hpp"
#include "core/extensions.hpp"
#include "core/rss.hpp"
#include "core/simulation.hpp"
#include "core/workload.hpp"
#include "des/random.hpp"
#include "faults/experiments.hpp"
#include "stats/ecdf.hpp"
#include "topo/topology.hpp"

namespace sanperf::core {

namespace {

using Value = ResultTable::Value;
using ColumnType = ResultTable::ColumnType;

Value real_or_null(double v) {
  if (!std::isfinite(v)) return Value{};
  return Value{v};
}

Value int_of(std::size_t v) { return Value{static_cast<std::int64_t>(v)}; }

// --- Crash-scenario axis -----------------------------------------------------

const std::vector<std::string>& crash_scenarios() {
  static const std::vector<std::string> names = {"no-crash", "coordinator-crash",
                                                 "participant-crash"};
  return names;
}

int crashed_id(const std::string& scenario) {
  if (scenario == "no-crash") return -1;
  if (scenario == "coordinator-crash") return 0;
  if (scenario == "participant-crash") return 1;
  throw std::invalid_argument{"unknown crash scenario '" + scenario + "'"};
}

const std::string& crash_scenario_name(int crashed) {
  return crash_scenarios().at(static_cast<std::size_t>(crashed + 1));
}

Algorithm algorithm_of(const std::string& name) {
  if (name == "ct") return Algorithm::kChandraToueg;
  if (name == "mr") return Algorithm::kMostefaouiRaynal;
  throw std::invalid_argument{"unknown algorithm '" + name + "' (ct|mr)"};
}

// --- Paper artifacts ---------------------------------------------------------

ScenarioSpec fig6_spec() {
  ScenarioSpec spec;
  spec.name = "fig6";
  spec.description = "End-to-end delay CDFs of isolated unicasts/broadcasts + bimodal fits";
  spec.notes =
      "Paper reports unicast U[0.10,0.13]@0.80 + U[0.145,0.35]@0.20 (mean 0.1415 ms);\n"
      "transmission time ~0.18 ms (Section 4).";
  spec.needs_calibration = false;  // fig6 IS the calibration pass
  spec.axes = [](const Scale& scale) {
    return std::vector<ParamAxis>{ParamAxis::sizes("n", scale.sim_ns)};
  };
  spec.columns = {{"kind", ColumnType::kString}, {"n", ColumnType::kInt},
                  {"p1", ColumnType::kReal},     {"a1_ms", ColumnType::kReal},
                  {"b1_ms", ColumnType::kReal},  {"a2_ms", ColumnType::kReal},
                  {"b2_ms", ColumnType::kReal},  {"mean_ms", ColumnType::kReal},
                  {"delay_ms", ColumnType::kSample}};
  spec.run = [columns = spec.columns](const ScenarioRun& run) {
    const auto ns = run.grid.axis("n").size_values();
    const auto fig6 = run_fig6(run.ctx, ns);
    ResultTable table{"fig6", columns};
    const auto add = [&](const std::string& kind, Value n, const stats::BimodalUniform& fit,
                         std::vector<double> delays) {
      table.add_row({kind, std::move(n), fit.p1, fit.a1, fit.b1, fit.a2, fit.b2, fit.mean(),
                     SampleRef{std::move(delays)}});
    };
    add("unicast", Value{}, fig6.unicast_fit, fig6.unicast_ms);
    for (const std::size_t n : ns) {
      add("broadcast", int_of(n), fig6.broadcast_fits.at(n), fig6.broadcast_ms.at(n));
    }
    return table;
  };
  return spec;
}

ScenarioSpec fig7a_spec() {
  ScenarioSpec spec;
  spec.name = "fig7a";
  spec.description = "Measured consensus latency CDFs, run class 1 (no failures/suspicions)";
  spec.notes =
      "Paper Section 5.2 measured means: 1.06, 1.43, 2.00, 2.62, 3.27 ms for\n"
      "n = 3..11 (this emulated testbed runs ~0.5-0.7x those absolute values).";
  spec.needs_calibration = false;
  spec.axes = [](const Scale& scale) {
    return std::vector<ParamAxis>{ParamAxis::sizes("n", scale.ns)};
  };
  spec.columns = {{"n", ColumnType::kInt},
                  {"paper_meas_ms", ColumnType::kReal},
                  {"latency_ms", ColumnType::kMeanCI},
                  {"undecided", ColumnType::kInt},
                  {"latencies_ms", ColumnType::kSample}};
  spec.run = [columns = spec.columns](const ScenarioRun& run) {
    const auto rows = run_fig7a(run.ctx, run.grid.axis("n").size_values());
    ResultTable table{"fig7a", columns};
    for (const auto& row : rows) {
      Value paper{};
      for (const auto& p : paper_table1()) {
        if (p.n == row.n) paper = real_or_null(p.meas_no_crash);
      }
      table.add_row({int_of(row.n), std::move(paper), row.mean, int_of(row.undecided),
                     SampleRef{row.latencies_ms}});
    }
    return table;
  };
  return spec;
}

ScenarioSpec fig7b_spec() {
  ScenarioSpec spec;
  spec.name = "fig7b";
  spec.description = "t_send sweep: simulated latency CDFs (n = 5) vs the measured CDF";
  spec.notes =
      "The sweep selects t_send by two-sample KS distance; the paper selects\n"
      "0.025 ms visually and the emulator's ground truth is 0.025 ms.";
  spec.needs_calibration = true;
  spec.axes = [](const Scale&) {
    return std::vector<ParamAxis>{ParamAxis::reals("t_send_ms", tsend_candidates())};
  };
  spec.columns = {{"kind", ColumnType::kString},     {"t_send_ms", ColumnType::kReal},
                  {"ks_distance", ColumnType::kReal}, {"mean_ms", ColumnType::kReal},
                  {"selected", ColumnType::kInt},     {"latencies_ms", ColumnType::kSample}};
  spec.run = [columns = spec.columns](const ScenarioRun& run) {
    const auto result = run_fig7b(run.ctx, run.grid.axis("t_send_ms").real_values());
    ResultTable table{"fig7b", columns};
    table.add_row({std::string{"measured"}, Value{}, Value{},
                   stats::summarize(result.measured_ms).mean(), Value{},
                   SampleRef{result.measured_ms}});
    for (const auto& cand : result.sweep.candidates) {
      table.add_row({std::string{"simulated"}, cand.t_send_ms, cand.ks_distance,
                     cand.sim_mean_ms,
                     Value{static_cast<std::int64_t>(
                         cand.t_send_ms == result.sweep.best_t_send_ms ? 1 : 0)},
                     SampleRef{cand.sim_latencies_ms}});
    }
    return table;
  };
  return spec;
}

ScenarioSpec table1_spec() {
  ScenarioSpec spec;
  spec.name = "table1";
  spec.description = "Crash-scenario latency: measurements (n = 3..11) vs SAN sim (n = 3, 5)";
  spec.notes =
      "Paper Section 5.3: a coordinator crash always increases latency; a\n"
      "participant crash decreases it for n >= 5, while for n = 3 the\n"
      "measurements increase (unicast ordering) and the simulation -- whose\n"
      "broadcast is a single message -- shows a decrease instead.";
  spec.needs_calibration = true;
  spec.axes = [](const Scale& scale) {
    return std::vector<ParamAxis>{ParamAxis::sizes("n", scale.ns),
                                  ParamAxis::strings("scenario", crash_scenarios())};
  };
  spec.columns = {{"n", ColumnType::kInt},
                  {"scenario", ColumnType::kString},
                  {"paper_meas_ms", ColumnType::kReal},
                  {"meas_ms", ColumnType::kMeanCI},
                  {"paper_sim_ms", ColumnType::kReal},
                  {"sim_ms", ColumnType::kReal}};
  spec.run = [columns = spec.columns](const ScenarioRun& run) {
    std::vector<int> crashed;
    for (const auto& s : run.grid.axis("scenario").string_values()) {
      crashed.push_back(crashed_id(s));
    }
    const auto cells = run_table1_cells(run.ctx, run.grid.axis("n").size_values(), crashed);
    ResultTable table{"table1", columns};
    for (const auto& cell : cells) {
      Value paper_meas{};
      Value paper_sim{};
      for (const auto& p : paper_table1()) {
        if (p.n != cell.n) continue;
        const double meas = cell.crashed == -1  ? p.meas_no_crash
                            : cell.crashed == 0 ? p.meas_coord
                                                : p.meas_part;
        const double sim = cell.crashed == -1  ? p.sim_no_crash
                           : cell.crashed == 0 ? p.sim_coord
                                               : p.sim_part;
        paper_meas = real_or_null(meas);
        paper_sim = real_or_null(sim);
      }
      table.add_row({int_of(cell.n), crash_scenario_name(cell.crashed), std::move(paper_meas),
                     cell.meas, std::move(paper_sim),
                     cell.sim ? Value{*cell.sim} : Value{}});
    }
    return table;
  };
  return spec;
}

/// fig8 and fig9a render the same class-3 campaign (QoS vs T, latency vs
/// T), so they share one run body differing only in the fold.
ScenarioSpec class3_spec(bool qos_view) {
  ScenarioSpec spec;
  spec.name = qos_view ? "fig8" : "fig9a";
  spec.description = qos_view
                         ? "Heartbeat FD QoS (T_MR, T_M) vs timeout T, class-3 measurements"
                         : "Consensus latency vs timeout T, class-3 measurements";
  spec.notes = qos_view
                   ? "Paper Fig 8: T_MR increases with T and blows up past T ~ 30 ms\n"
                     "(> 190 ms at T = 40); T_M stays irregular but bounded (< 12 ms)."
                   : "Paper Fig 9a: latency decreases in T, starting very high where\n"
                     "wrong suspicions are frequent.";
  spec.needs_calibration = false;
  spec.axes = [](const Scale& scale) {
    return std::vector<ParamAxis>{ParamAxis::sizes("n", scale.ns),
                                  ParamAxis::reals("timeout_ms", scale.timeouts_ms)};
  };
  if (qos_view) {
    spec.columns = {{"n", ColumnType::kInt},        {"timeout_ms", ColumnType::kReal},
                    {"t_mr_ms", ColumnType::kMeanCI}, {"t_m_ms", ColumnType::kMeanCI},
                    {"qos_pairs", ColumnType::kInt},  {"undecided", ColumnType::kInt}};
  } else {
    spec.columns = {{"n", ColumnType::kInt},
                    {"timeout_ms", ColumnType::kReal},
                    {"latency_ms", ColumnType::kMeanCI},
                    {"undecided", ColumnType::kInt},
                    {"latencies_ms", ColumnType::kSample}};
  }
  spec.run = [qos_view, columns = spec.columns](const ScenarioRun& run) {
    const auto points = run_class3_measurements(run.ctx, run.grid.axis("n").size_values(),
                                                run.grid.axis("timeout_ms").real_values());
    ResultTable table{qos_view ? "fig8" : "fig9a", columns};
    for (const auto& pt : points) {
      if (qos_view) {
        const bool quiet = pt.meas.pooled_qos.pairs_used == 0;
        table.add_row({int_of(pt.n), pt.timeout_ms, quiet ? Value{} : Value{pt.meas.t_mr_ms},
                       quiet ? Value{} : Value{pt.meas.t_m_ms},
                       int_of(pt.meas.pooled_qos.pairs_used), int_of(pt.meas.undecided)});
      } else {
        table.add_row({int_of(pt.n), pt.timeout_ms, pt.meas.latency_ms,
                       int_of(pt.meas.undecided), SampleRef{pt.meas.all_latencies_ms}});
      }
    }
    return table;
  };
  return spec;
}

ScenarioSpec fig9b_spec() {
  ScenarioSpec spec;
  spec.name = "fig9b";
  spec.description = "Latency vs timeout: measurements vs SAN sim (det/exp FD sojourns)";
  spec.notes =
      "Paper Fig 9b: the SAN model matches at large T (good QoS) and\n"
      "diverges when wrong suspicions are frequent, because the model\n"
      "assumes independent failure detectors.";
  spec.needs_calibration = true;
  spec.axes = [](const Scale& scale) {
    return std::vector<ParamAxis>{ParamAxis::sizes("n", scale.sim_ns),
                                  ParamAxis::reals("timeout_ms", scale.timeouts_ms)};
  };
  spec.columns = {{"n", ColumnType::kInt},          {"timeout_ms", ColumnType::kReal},
                  {"meas_ms", ColumnType::kReal},   {"sim_det_ms", ColumnType::kReal},
                  {"sim_exp_ms", ColumnType::kReal}, {"t_mr_ms", ColumnType::kReal},
                  {"t_m_ms", ColumnType::kReal}};
  spec.run = [columns = spec.columns](const ScenarioRun& run) {
    const auto points = run_class3_measurements(run.ctx, run.grid.axis("n").size_values(),
                                                run.grid.axis("timeout_ms").real_values());
    const auto rows = run_fig9b(run.ctx, points);
    ResultTable table{"fig9b", columns};
    for (const auto& row : rows) {
      table.add_row({int_of(row.n), row.timeout_ms, row.meas_ms, row.sim_det_ms, row.sim_exp_ms,
                     row.qos_t_mr_ms, row.qos_t_m_ms});
    }
    return table;
  };
  return spec;
}

// --- Ablations ---------------------------------------------------------------

ScenarioSpec ablation_broadcast_spec() {
  ScenarioSpec spec;
  spec.name = "ablation_broadcast";
  spec.description = "SAN ablation: broadcast-as-one-message vs unicast-sized frame";
  spec.notes =
      "The single-message broadcast (paper model) charges the medium for the\n"
      "whole fan-out at once; shrinking it to one unicast quantifies how much\n"
      "latency the simplification attributes to the proposal step. Neither\n"
      "variant reproduces the measured n=3 participant-crash anomaly -- that\n"
      "needs per-destination ordering, which only the emulator exhibits.";
  spec.needs_calibration = false;
  spec.axes = [](const Scale&) {
    return std::vector<ParamAxis>{ParamAxis::ints("n", {3, 5}),
                                  ParamAxis::strings("scenario", crash_scenarios())};
  };
  spec.columns = {{"n", ColumnType::kInt},
                  {"scenario", ColumnType::kString},
                  {"bcast_single_ms", ColumnType::kReal},
                  {"bcast_unicast_ms", ColumnType::kReal},
                  {"delta_pct", ColumnType::kReal}};
  spec.run = [columns = spec.columns](const ScenarioRun& run) {
    // Flattened (grid point x variant x replication) space; per-variant
    // offsets (11+n paper-like, 12+n unicast-frame) and the 400-replication
    // budget come from the original ablation harness, rebased on ctx.seed
    // so --seed yields independent replications.
    constexpr std::size_t kReps = 400;
    ConsensusStudyBank bank;
    std::vector<const san::TransientStudy*> studies;
    ShardSpace space;
    for (std::size_t p = 0; p < run.grid.size(); ++p) {
      const auto point = run.grid.point(p);
      const std::size_t n = point.get_size("n");
      const int crashed = crashed_id(point.get_string("scenario"));
      for (const bool unicast_frame : {false, true}) {
        auto transport = sanmodels::TransportParams::nominal(n);
        if (unicast_frame) transport.frame_broadcast = transport.frame_unicast;
        sanmodels::ConsensusSanConfig cfg;
        cfg.n = n;
        cfg.transport = transport;
        cfg.initially_crashed = crashed;
        // The original harness ran these studies at the 60 s default limit.
        studies.push_back(bank.add(cfg, des::Duration::seconds(60)));
        space.add_group(kReps, run.ctx.seed + (unicast_frame ? 12 : 11) + n, "rep");
      }
    }
    const auto rewards = run.ctx.runner->run_flat(space, [&](const ShardSpace::Task& t) {
      return studies[t.group]->run_one(des::RandomEngine{t.seed});
    });

    ResultTable table{"ablation_broadcast", columns};
    for (std::size_t p = 0; p < run.grid.size(); ++p) {
      const auto point = run.grid.point(p);
      const double a = fold_study_rewards(rewards[2 * p]).summary.mean();
      const double b = fold_study_rewards(rewards[2 * p + 1]).summary.mean();
      table.add_row({point.get_int("n"), point.get_string("scenario"), a, b,
                     100.0 * (a - b) / a});
    }
    return table;
  };
  return spec;
}

ScenarioSpec ablation_fd_spec() {
  ScenarioSpec spec;
  spec.name = "ablation_fd_correlation";
  spec.description = "SAN ablation: independent-FD assumption with matched measured QoS";
  spec.notes =
      "Expected shape (paper Section 5.4): sim/meas near 1 at large T, a\n"
      "clear divergence at small T where wrong suspicions are frequent and\n"
      "correlated in reality but independent in the model.";
  spec.needs_calibration = true;
  spec.axes = [](const Scale& scale) {
    return std::vector<ParamAxis>{ParamAxis::sizes("n", scale.sim_ns),
                                  ParamAxis::reals("timeout_ms", {2, 5, 10, 20, 40})};
  };
  spec.columns = {{"n", ColumnType::kInt},          {"timeout_ms", ColumnType::kReal},
                  {"meas_ms", ColumnType::kReal},   {"sim_ms", ColumnType::kReal},
                  {"sim_over_meas", ColumnType::kReal}, {"t_mr_ms", ColumnType::kReal},
                  {"t_m_ms", ColumnType::kReal}};
  spec.run = [columns = spec.columns](const ScenarioRun& run) {
    const PaperContext& ctx = run.ctx;
    const auto ns = run.grid.axis("n").size_values();
    const auto timeouts = run.grid.axis("timeout_ms").real_values();

    // Batch 1: the class-3 measurement campaign, one group per grid point.
    ShardSpace meas_space;
    struct Point {
      std::size_t n = 0;
      double timeout_ms = 0;
    };
    std::vector<Point> points;
    for (const std::size_t n : ns) {
      for (const double timeout : timeouts) {
        meas_space.add_group(ctx.scale.class3_runs,
                             ctx.seed + 31 * n + static_cast<std::uint64_t>(timeout), "run");
        points.push_back(Point{n, timeout});
      }
    }
    auto runs = ctx.runner->run_flat(meas_space, [&](const ShardSpace::Task& t) {
      const Point& pt = points[t.group];
      return measure_class3_run(pt.n, ctx.network, ctx.timers, pt.timeout_ms,
                                ctx.scale.class3_executions, t.seed);
    });
    std::vector<Class3Aggregate> aggs;
    aggs.reserve(points.size());
    for (auto& shard : runs) aggs.push_back(fold_class3_runs(std::move(shard)));

    // Batch 2: matched-QoS simulations; the branch (class 1 when the
    // detector made no mistakes, exponential-sojourn class 3 otherwise)
    // depends only on batch 1's fold.
    ConsensusStudyBank bank;
    std::vector<const san::TransientStudy*> studies;
    ShardSpace sim_space;
    for (std::size_t p = 0; p < points.size(); ++p) {
      const auto& qos = aggs[p].pooled_qos;
      sanmodels::ConsensusSanConfig cfg;
      cfg.n = points[p].n;
      cfg.transport = ctx.transport(points[p].n);
      if (qos.pairs_used == 0 || !(qos.t_m_ms > 0) || qos.t_m_ms >= qos.t_mr_ms) {
        sim_space.add_group(ctx.scale.sim_replications, ctx.seed + 51, "rep");
      } else {
        cfg.qos_fd =
            fd::AbstractFdParams::from_qos(qos, fd::AbstractFdParams::Sojourn::kExponential);
        sim_space.add_group(ctx.scale.sim_replications, ctx.seed + 52, "rep");
      }
      studies.push_back(bank.add(cfg));
    }
    const auto rewards = ctx.runner->run_flat(sim_space, [&](const ShardSpace::Task& t) {
      return studies[t.group]->run_one(des::RandomEngine{t.seed});
    });

    ResultTable table{"ablation_fd_correlation", columns};
    for (std::size_t p = 0; p < points.size(); ++p) {
      const double meas_mean = aggs[p].latency_ms.mean;
      const double sim_mean = fold_study_rewards(rewards[p]).summary.mean();
      const bool have_qos = aggs[p].pooled_qos.pairs_used > 0;
      table.add_row({int_of(points[p].n), points[p].timeout_ms, meas_mean, sim_mean,
                     meas_mean > 0 ? Value{sim_mean / meas_mean} : Value{0.0},
                     have_qos ? Value{aggs[p].pooled_qos.t_mr_ms} : Value{},
                     have_qos ? Value{aggs[p].pooled_qos.t_m_ms} : Value{}});
    }
    return table;
  };
  return spec;
}

// --- Extensions (the paper's declared future work) ---------------------------

ScenarioSpec ext_algorithms_spec() {
  ScenarioSpec spec;
  spec.name = "ext_algorithms";
  spec.description = "Chandra-Toueg vs Mostefaoui-Raynal latency, failure-free and crashed";
  spec.notes =
      "Failure-free, MR's two communication steps beat CT's three at every n.\n"
      "Under a coordinator crash the picture inverts and widens with n: MR\n"
      "burns a full all-to-all round on bottoms before recovering. Neither\n"
      "algorithm dominates -- the workload decides.";
  spec.needs_calibration = false;
  spec.axes = [](const Scale& scale) {
    return std::vector<ParamAxis>{
        ParamAxis::sizes("n", scale.ns),
        ParamAxis::strings("scenario", {"no-crash", "coordinator-crash"})};
  };
  spec.columns = {{"n", ColumnType::kInt},      {"scenario", ColumnType::kString},
                  {"ct_ms", ColumnType::kMeanCI}, {"mr_ms", ColumnType::kMeanCI},
                  {"mr_over_ct", ColumnType::kReal}, {"winner", ColumnType::kString}};
  spec.run = [columns = spec.columns](const ScenarioRun& run) {
    const PaperContext& ctx = run.ctx;
    const auto timers = net::TimerModel::ideal();
    // Two groups (CT, MR) per grid point, both on the (seed + 3n, "exec")
    // streams the comparative harness always used.
    ShardSpace space;
    std::vector<std::pair<Algorithm, std::size_t>> groups;  ///< algorithm, grid point
    for (std::size_t p = 0; p < run.grid.size(); ++p) {
      const std::size_t n = run.grid.point(p).get_size("n");
      for (const Algorithm alg : {Algorithm::kChandraToueg, Algorithm::kMostefaouiRaynal}) {
        space.add_group(ctx.scale.class1_executions, ctx.seed + 3 * n, "exec");
        groups.emplace_back(alg, p);
      }
    }
    const auto outcomes = ctx.runner->run_flat(space, [&](const ShardSpace::Task& t) {
      const auto [alg, p] = groups[t.group];
      const auto point = run.grid.point(p);
      return run_latency_execution_with(alg, point.get_size("n"), ctx.network, timers,
                                        crashed_id(point.get_string("scenario")), t.index,
                                        t.seed);
    });

    ResultTable table{"ext_algorithms", columns};
    for (std::size_t p = 0; p < run.grid.size(); ++p) {
      const auto point = run.grid.point(p);
      const auto ct = fold_latency_outcomes(outcomes[2 * p]).summary();
      const auto mr = fold_latency_outcomes(outcomes[2 * p + 1]).summary();
      table.add_row({point.get_int("n"), point.get_string("scenario"), ct.mean_ci(),
                     mr.mean_ci(), mr.mean() / ct.mean(),
                     std::string{mr.mean() < ct.mean() ? "MR" : "CT"}});
    }
    return table;
  };
  return spec;
}

ScenarioSpec ext_throughput_spec() {
  ScenarioSpec spec;
  spec.name = "ext_throughput";
  spec.description = "Back-to-back consensus throughput vs the isolated-latency bound";
  spec.notes =
      "Back-to-back executions interfere -- the decision broadcast and\n"
      "round-2 estimates of execution k contend with execution k+1 on the\n"
      "hub -- so per-execution latency roughly doubles and throughput lands\n"
      "well below the isolated-latency bound.";
  spec.needs_calibration = false;
  spec.axes = [](const Scale& scale) {
    return std::vector<ParamAxis>{ParamAxis::sizes("n", scale.ns)};
  };
  spec.columns = {{"n", ColumnType::kInt},
                  {"isolated_ms", ColumnType::kReal},
                  {"b2b_latency_ms", ColumnType::kMeanCI},
                  {"throughput_per_s", ColumnType::kReal},
                  {"bound_pct", ColumnType::kReal},
                  {"undecided", ColumnType::kInt}};
  spec.run = [columns = spec.columns](const ScenarioRun& run) {
    const PaperContext& ctx = run.ctx;
    const auto timers = net::TimerModel::ideal();
    const auto ns = run.grid.axis("n").size_values();
    // Per n: a flat group of isolated executions plus a single-task group
    // holding the (inherently sequential) back-to-back stream.
    struct Cell {
      ExecOutcome exec;
      std::optional<WorkloadResult> stream;
    };
    ShardSpace space;
    for (const std::size_t n : ns) {
      space.add_group(ctx.scale.class1_executions / 2, ctx.seed + 5 * n, "exec");
      // The b2b task seeds its cluster directly with ctx.seed + n below;
      // declaring the same value here keeps the space self-describing.
      space.add_group(1, ctx.seed + n, "b2b");
    }
    const auto cells = ctx.runner->run_flat(space, [&](const ShardSpace::Task& t) {
      const std::size_t n = ns[t.group / 2];
      Cell cell;
      if (t.group % 2 == 0) {
        cell.exec = run_latency_execution(n, ctx.network, timers, -1, t.index, t.seed);
      } else {
        // The back-to-back extension as its true shape: the degenerate
        // closed-loop workload (one client, zero think time, no warm-up --
        // the historic harness measured from the first execution). One
        // persistent cluster, seeded directly as the bespoke harness was.
        WorkloadConfig cfg;
        cfg.n = n;
        cfg.network = ctx.network;
        cfg.timers = timers;
        cfg.seed = ctx.seed + n;
        WorkloadSpec stream;
        stream.arrivals = ArrivalProcess::kClosedLoop;
        stream.clients = 1;
        stream.think_ms = 0;
        stream.warmup = 0;
        stream.measured = ctx.scale.class1_executions;
        cell.stream = run_workload(cfg, stream);
      }
      return cell;
    });

    ResultTable table{"ext_throughput", columns};
    for (std::size_t g = 0; g < ns.size(); ++g) {
      std::vector<ExecOutcome> outcomes;
      for (const Cell& c : cells[2 * g]) outcomes.push_back(c.exec);
      const double iso = fold_latency_outcomes(outcomes).summary().mean();
      const WorkloadStats& tput = cells[2 * g + 1][0].stream->stats;
      const double bound = iso > 0 ? 1000.0 / iso : 0;
      table.add_row({int_of(ns[g]), iso, tput.latency_ci, tput.delivered_per_s,
                     bound > 0 ? Value{100.0 * tput.delivered_per_s / bound} : Value{},
                     int_of(tput.undecided)});
    }
    return table;
  };
  return spec;
}

ScenarioSpec ext_detection_spec() {
  ScenarioSpec spec;
  spec.name = "ext_detection_time";
  spec.description = "Chen et al. detection time T_D of the heartbeat failure detector";
  spec.notes =
      "Detection takes roughly one timeout after the last heartbeat\n"
      "(T_D <~ Th + T), stretched by the 10 ms timer quantisation at small T\n"
      "and by scheduler stalls in the tail.";
  spec.needs_calibration = false;
  spec.axes = [](const Scale&) {
    return std::vector<ParamAxis>{ParamAxis::ints("n", {5}),
                                  ParamAxis::reals("timeout_ms", {10, 20, 40, 100})};
  };
  spec.columns = {{"n", ColumnType::kInt},       {"timeout_ms", ColumnType::kReal},
                  {"heartbeat_ms", ColumnType::kReal}, {"mean_ms", ColumnType::kReal},
                  {"p95_ms", ColumnType::kReal}, {"bound_ms", ColumnType::kReal},
                  {"samples", ColumnType::kInt}};
  spec.run = [columns = spec.columns](const ScenarioRun& run) {
    const PaperContext& ctx = run.ctx;
    const std::size_t trials = ctx.scale.class3_runs * 10;
    ShardSpace space;
    for (std::size_t p = 0; p < run.grid.size(); ++p) {
      space.add_group(trials, ctx.seed + 77, "trial");
    }
    const auto trial_samples = ctx.runner->run_flat(space, [&](const ShardSpace::Task& t) {
      const auto point = run.grid.point(t.group);
      return detection_time_trial(point.get_size("n"), ctx.network, ctx.timers,
                                  point.get_real("timeout_ms"), t.seed);
    });

    ResultTable table{"ext_detection_time", columns};
    for (std::size_t p = 0; p < run.grid.size(); ++p) {
      const auto point = run.grid.point(p);
      const double timeout = point.get_real("timeout_ms");
      std::vector<double> samples;
      stats::SummaryStats summary;
      for (const auto& shard : trial_samples[p]) {
        for (const double x : shard) {
          samples.push_back(x);
          summary.add(x);
        }
      }
      const bool empty = samples.empty();
      table.add_row({point.get_int("n"), timeout, 0.7 * timeout,
                     empty ? Value{} : Value{summary.mean()},
                     empty ? Value{} : Value{stats::Ecdf{samples}.quantile(0.95)},
                     0.7 * timeout + timeout, int_of(samples.size())});
    }
    return table;
  };
  return spec;
}

// --- Fault-injection scenarios (src/faults) ----------------------------------

/// The recovery scenarios fix the FD timeout at the paper's 10 ms operating
/// point and strike 30% into the run, where the sequencer is in steady
/// state.
constexpr double kFaultTimeoutMs = 10.0;

double fault_strike_ms(const Scale& scale) {
  return 0.3 * static_cast<double>(scale.class3_executions) * 10.0;  // 10 ms separation
}

/// The window the before/during/after fold buckets against: the first
/// windowed event of the plan (an override plan may be shaped differently
/// from the axis-derived one; an event-free plan makes everything
/// "before").
std::pair<double, double> fold_window(const faults::FaultPlan& plan) {
  for (const auto& event : plan.events()) {
    if (event.kind == faults::FaultKind::kCrash ||
        event.kind == faults::FaultKind::kPartition ||
        event.kind == faults::FaultKind::kKillRack ||
        event.kind == faults::FaultKind::kPartitionSwitch) {
      return {event.at_ms, event.end_ms()};
    }
  }
  return {faults::kForeverMs, faults::kForeverMs};
}

Value phase_ci(const MeasuredLatency& phase) {
  if (phase.latencies_ms.empty()) return Value{};
  return Value{phase.summary().mean_ci(0.90)};
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
      return faults::run_fault_class3(n, ctx.network, ctx.timers, kFaultTimeoutMs,
                                      ctx.scale.class3_executions, plans[t.group], t.seed);
    });

    ResultTable table{name, columns};
    for (std::size_t p = 0; p < run.grid.size(); ++p) {
      const auto point = run.grid.point(p);
      const auto [start_ms, end_ms] = fold_window(plans[p]);
      faults::PhasedLatency phases;
      for (const auto& one : runs[p]) {  // run order: the sequential fold
        phases.merge(faults::split_by_window(one.executions, start_ms, end_ms));
      }
      const std::size_t undecided =
          phases.before.undecided + phases.during.undecided + phases.after.undecided;
      table.add_row({point.get_int("n"), point.get_real(axis), phase_ci(phases.before),
                     phase_ci(phases.during), phase_ci(phases.after),
                     int_of(phases.during.latencies_ms.size() + phases.during.undecided),
                     int_of(undecided)});
    }
    return table;
  };
  return spec;
}

ScenarioSpec crash_recovery_spec() { return phased_fault_spec(/*partition_view=*/false); }
ScenarioSpec partition_heal_spec() { return phased_fault_spec(/*partition_view=*/true); }

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
      return faults::run_fault_execution(algorithm_of(point.get_string("algorithm")),
                                         point.get_size("n"), ctx.network, timers,
                                         plans[t.group], t.index, t.seed);
    });

    ResultTable table{"lossy_consensus", columns};
    for (std::size_t p = 0; p < run.grid.size(); ++p) {
      const auto point = run.grid.point(p);
      const auto meas = fold_latency_outcomes(outcomes[p]);
      const std::size_t total = meas.latencies_ms.size() + meas.undecided;
      table.add_row({point.get_int("n"), point.get_real("loss_pct"),
                     point.get_string("algorithm"), phase_ci(meas),
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
      return faults::run_fault_execution(Algorithm::kChandraToueg,
                                         run.grid.point(t.group).get_size("n"), network,
                                         timers, plans[t.group], t.index, t.seed);
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
                     phase_ci(folded[p]), std::move(vs_nominal), int_of(folded[p].undecided)});
    }
    return table;
  };
  return spec;
}

// --- Workload-engine scenarios (core/workload.hpp) ---------------------------

/// Restriction-stable per-grid-point seed for a workload stream: derived
/// from the point's value-encoded label, so a --set-restricted grid
/// reproduces the matching subset of the full grid bit for bit.
std::uint64_t workload_point_seed(std::uint64_t seed, const std::string& scenario,
                                  const ParamPoint& point) {
  return des::derive_seed(seed, scenario + "|" + point.label());
}

/// The workload-size axes every stream scenario carries: single-valued by
/// default (the Scale presets), overridable -- and sweepable -- with
/// --set warmup=... / --set instances=...
std::vector<ParamAxis> workload_size_axes(const Scale& scale) {
  return {ParamAxis::sizes("warmup", {scale.workload_warmup}),
          ParamAxis::sizes("instances", {scale.workload_instances})};
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

/// The batching/pipelining axes every workload scenario exposes:
/// single-valued defaults reproduce the unbatched engine, --set sweeps
/// them (e.g. --set batch_size=1,8,32).
std::vector<ParamAxis> batching_axes(std::size_t batch_size, double linger_ms,
                                     std::size_t pipeline_window) {
  return {ParamAxis::sizes("batch_size", {batch_size}),
          ParamAxis::reals("batch_linger_ms", {linger_ms}),
          ParamAxis::sizes("pipeline_window", {pipeline_window})};
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
    std::vector<ParamAxis> axes{
        ParamAxis::sizes("n", scale.sim_ns),
        ParamAxis::strings("algorithm", {"ct", "mr"}),
        ParamAxis::reals("offered_per_s", scale.offered_loads_per_s)};
    for (auto& axis : batching_axes(1, 0.0, 0)) axes.push_back(std::move(axis));
    for (auto& axis : workload_size_axes(scale)) axes.push_back(std::move(axis));
    return axes;
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
    const PaperContext& ctx = run.ctx;
    const auto timers = net::TimerModel::ideal();
    // One persistent-cluster stream per grid point; points fan out over the
    // runner (each stream is one sequential DES run, pure in its seed).
    const auto results = ctx.runner->map(run.grid.size(), [&](std::size_t p) {
      const auto point = run.grid.point(p);
      WorkloadConfig cfg;
      cfg.n = point.get_size("n");
      cfg.network = ctx.network;
      cfg.timers = timers;
      cfg.algorithm = algorithm_of(point.get_string("algorithm"));
      cfg.seed = workload_point_seed(ctx.seed, name, point);
      WorkloadSpec stream;
      stream.arrivals = ArrivalProcess::kOpenLoop;
      stream.offered_per_s = point.get_real("offered_per_s");
      stream.warmup = point.get_size("warmup");
      stream.measured = point.get_size("instances");
      apply_batching(stream, point);
      return run_workload(cfg, stream);
    });
    ResultTable table{name, columns};
    for (std::size_t p = 0; p < run.grid.size(); ++p) {
      const auto point = run.grid.point(p);
      const WorkloadStats& stats = results[p].stats;
      const ValueStats& vstats = results[p].value_stats;
      table.add_row({point.get_int("n"), point.get_string("algorithm"),
                     point.get_real("offered_per_s"), point.get_int("batch_size"),
                     point.get_int("pipeline_window"), stats.delivered_per_s,
                     vstats.delivered_per_s, latency_ci_cell(stats),
                     stats.decided > 0 ? Value{stats.p95_latency_ms} : Value{},
                     vstats.decided > 0 ? Value{vstats.p95_latency_ms} : Value{},
                     int_of(results[p].peak_active_instances), int_of(stats.undecided)});
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
    std::vector<ParamAxis> axes{
        ParamAxis::sizes("n", {5}),
        ParamAxis::strings("algorithm", {"ct"}),
        ParamAxis::sizes("batch_size", scale.batch_sizes),
        ParamAxis::reals("batch_linger_ms", {scale.batch_linger_ms}),
        ParamAxis::sizes("pipeline_window", {0}),
        ParamAxis::reals("offered_values_per_s", {scale.batch_offered_values_per_s})};
    for (auto& axis : workload_size_axes(scale)) axes.push_back(std::move(axis));
    return axes;
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
    const PaperContext& ctx = run.ctx;
    const auto timers = net::TimerModel::ideal();
    const auto results = ctx.runner->map(run.grid.size(), [&](std::size_t p) {
      const auto point = run.grid.point(p);
      WorkloadConfig cfg;
      cfg.n = point.get_size("n");
      cfg.network = ctx.network;
      cfg.timers = timers;
      cfg.algorithm = algorithm_of(point.get_string("algorithm"));
      cfg.seed = workload_point_seed(ctx.seed, name, point);
      WorkloadSpec stream;
      stream.arrivals = ArrivalProcess::kOpenLoop;
      stream.offered_per_s = point.get_real("offered_values_per_s");
      stream.warmup = point.get_size("warmup");
      stream.measured = point.get_size("instances");
      apply_batching(stream, point);
      return run_workload(cfg, stream);
    });
    ResultTable table{name, columns};
    for (std::size_t p = 0; p < run.grid.size(); ++p) {
      const auto point = run.grid.point(p);
      const ValueStats& vstats = results[p].value_stats;
      table.add_row({point.get_int("n"), point.get_string("algorithm"),
                     point.get_int("batch_size"), point.get_real("batch_linger_ms"),
                     point.get_int("pipeline_window"), point.get_real("offered_values_per_s"),
                     results[p].stats.delivered_per_s, vstats.delivered_per_s,
                     value_latency_ci_cell(vstats),
                     vstats.decided > 0 ? Value{vstats.p95_latency_ms} : Value{},
                     vstats.decided > 0 ? Value{vstats.mean_queue_ms} : Value{},
                     results[p].mean_batch_size, int_of(vstats.undecided)});
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
    std::vector<ParamAxis> axes{ParamAxis::sizes("n", scale.sim_ns),
                                ParamAxis::sizes("clients", scale.client_counts),
                                ParamAxis::reals("think_ms", {0}),
                                ParamAxis::strings("think_dist", {"fixed"})};
    for (auto& axis : workload_size_axes(scale)) axes.push_back(std::move(axis));
    return axes;
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
    const PaperContext& ctx = run.ctx;
    const auto timers = net::TimerModel::ideal();
    const auto results = ctx.runner->map(run.grid.size(), [&](std::size_t p) {
      const auto point = run.grid.point(p);
      WorkloadConfig cfg;
      cfg.n = point.get_size("n");
      cfg.network = ctx.network;
      cfg.timers = timers;
      cfg.seed = workload_point_seed(ctx.seed, name, point);
      WorkloadSpec stream;
      stream.arrivals = ArrivalProcess::kClosedLoop;
      stream.clients = point.get_size("clients");
      stream.think_ms = point.get_real("think_ms");
      stream.think_dist = think_dist_of(point.get_string("think_dist"));
      stream.warmup = point.get_size("warmup");
      stream.measured = point.get_size("instances");
      return run_workload(cfg, stream);
    });
    ResultTable table{name, columns};
    for (std::size_t p = 0; p < run.grid.size(); ++p) {
      const auto point = run.grid.point(p);
      const WorkloadStats& stats = results[p].stats;
      // Scaling baseline: the clients = 1 row agreeing with this one on
      // every other axis (n, think_ms, warmup, instances -- stream-length
      // sweeps must not mix baselines), if the restriction kept it.
      Value vs_one{};
      for (std::size_t q = 0; q < run.grid.size(); ++q) {
        const auto other = run.grid.point(q);
        if (other.get_int("clients") == 1 && other.get_int("n") == point.get_int("n") &&
            other.get_real("think_ms") == point.get_real("think_ms") &&
            other.get_string("think_dist") == point.get_string("think_dist") &&
            other.get_size("warmup") == point.get_size("warmup") &&
            other.get_size("instances") == point.get_size("instances") &&
            results[q].stats.delivered_per_s > 0) {
          // emplace<> rather than variant assignment: gcc-12 under ASan flags
          // the move-assign visitor's string alternative as maybe-uninitialized.
          vs_one.emplace<double>(stats.delivered_per_s / results[q].stats.delivered_per_s);
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
  spec.axes = [](const Scale& scale) {
    std::vector<ParamAxis> axes{ParamAxis::sizes("n", scale.sim_ns),
                                ParamAxis::reals("downtime_ms", {20, 60, 150}),
                                ParamAxis::reals("offered_per_s", {200})};
    for (auto& axis : workload_size_axes(scale)) axes.push_back(std::move(axis));
    return axes;
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
    const PaperContext& ctx = run.ctx;
    // Plans stay alive across the fan-out; one per grid point (an explicit
    // --fault-plan replaces them all).
    std::vector<faults::FaultPlan> plans;
    std::vector<WorkloadSpec> streams;
    for (std::size_t p = 0; p < run.grid.size(); ++p) {
      const auto point = run.grid.point(p);
      WorkloadSpec stream;
      stream.arrivals = ArrivalProcess::kOpenLoop;
      stream.offered_per_s = point.get_real("offered_per_s");
      stream.warmup = point.get_size("warmup");
      stream.measured = point.get_size("instances");
      // Strike 40% into the measured window, where the stream is past its
      // warm-up and still leaves room for the after-phase baseline.
      const double strike_ms =
          stream.start_ms + 1000.0 *
                                (static_cast<double>(stream.warmup) +
                                 0.4 * static_cast<double>(stream.measured)) /
                                stream.offered_per_s;
      if (run.fault_plan != nullptr) {
        plans.push_back(*run.fault_plan);
      } else {
        plans.push_back(faults::FaultPlan{}.add(
            faults::FaultPlan::crash_recover(0, strike_ms, point.get_real("downtime_ms"))));
      }
      streams.push_back(stream);
    }
    const auto results = ctx.runner->map(run.grid.size(), [&](std::size_t p) {
      const auto point = run.grid.point(p);
      WorkloadConfig cfg;
      cfg.n = point.get_size("n");
      cfg.network = ctx.network;
      cfg.timers = ctx.timers;
      cfg.heartbeat_timeout_ms = kFaultTimeoutMs;
      cfg.fault_plan = &plans[p];
      cfg.seed = workload_point_seed(ctx.seed, name, point);
      return run_workload(cfg, streams[p]);
    });
    ResultTable table{name, columns};
    for (std::size_t p = 0; p < run.grid.size(); ++p) {
      const auto point = run.grid.point(p);
      const auto [start_ms, end_ms] = fold_window(plans[p]);
      const PhasedWorkload phases = split_workload_by_window(results[p], start_ms, end_ms);
      const std::size_t undecided =
          phases.before.undecided + phases.during.undecided + phases.after.undecided;
      table.add_row({point.get_int("n"), point.get_real("downtime_ms"),
                     point.get_real("offered_per_s"), phase_ci(phases.before),
                     phase_ci(phases.during), phase_ci(phases.after),
                     int_of(phases.during.latencies_ms.size() + phases.during.undecided),
                     int_of(undecided)});
    }
    return table;
  };
  return spec;
}

// --- Durable recovery & membership scenarios ---------------------------------

Value phase_p95(const MeasuredLatency& phase) {
  if (phase.latencies_ms.empty()) return Value{};
  return Value{stats::Ecdf{phase.latencies_ms}.quantile(0.95)};
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
  spec.axes = [](const Scale& scale) {
    std::vector<ParamAxis> axes{ParamAxis::sizes("n", scale.sim_ns),
                                ParamAxis::strings("mode", {"volatile", "durable"}),
                                ParamAxis::reals("append_ms", {0.1}),
                                ParamAxis::reals("downtime_ms", {60}),
                                ParamAxis::reals("offered_per_s", {2000})};
    for (auto& axis : workload_size_axes(scale)) axes.push_back(std::move(axis));
    return axes;
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
    const PaperContext& ctx = run.ctx;
    std::vector<faults::FaultPlan> plans;
    std::vector<WorkloadSpec> streams;
    for (std::size_t p = 0; p < run.grid.size(); ++p) {
      const auto point = run.grid.point(p);
      WorkloadSpec stream;
      stream.arrivals = ArrivalProcess::kOpenLoop;
      stream.offered_per_s = point.get_real("offered_per_s");
      stream.warmup = point.get_size("warmup");
      stream.measured = point.get_size("instances");
      // A stalled instance's horizon: far past the recovery (replay gets
      // its chance) but short enough that volatile-mode stalls drain fast.
      stream.instance_timeout_ms = 1000.0;
      // Saturating load behind a bounded window: the window is full at the
      // strike (all of it replayable from host 0's log) and outage-time
      // arrivals queue instead of stalling unrescuably.
      stream.pipeline_window = 16;
      const double strike_ms =
          stream.start_ms + 1000.0 *
                                (static_cast<double>(stream.warmup) +
                                 0.4 * static_cast<double>(stream.measured)) /
                                stream.offered_per_s;
      if (run.fault_plan != nullptr) {
        plans.push_back(*run.fault_plan);
      } else {
        plans.push_back(faults::FaultPlan{}.add(
            faults::FaultPlan::crash_recover(0, strike_ms, point.get_real("downtime_ms"))));
      }
      streams.push_back(stream);
    }
    const auto results = ctx.runner->map(run.grid.size(), [&](std::size_t p) {
      const auto point = run.grid.point(p);
      WorkloadConfig cfg;
      cfg.n = point.get_size("n");
      cfg.network = ctx.network;
      cfg.timers = ctx.timers;
      // No heartbeat detector: recovery, not detection, is the only way out.
      cfg.fault_plan = &plans[p];
      cfg.durable_log = point.get_string("mode") == "durable";
      cfg.durable_append_ms = point.get_real("append_ms");
      cfg.seed = mode_blind_seed(ctx.seed, name, point);
      return run_workload(cfg, streams[p]);
    });
    ResultTable table{name, columns};
    for (std::size_t p = 0; p < run.grid.size(); ++p) {
      const auto point = run.grid.point(p);
      const auto [start_ms, end_ms] = fold_window(plans[p]);
      const PhasedWorkload phases = split_workload_by_window(results[p], start_ms, end_ms);
      const std::size_t undecided =
          phases.before.undecided + phases.during.undecided + phases.after.undecided;
      table.add_row({point.get_int("n"), point.get_string("mode"),
                     point.get_real("offered_per_s"), phase_ci(phases.before),
                     phase_ci(phases.during), phase_ci(phases.after),
                     results[p].value_stats.p95_latency_ms,
                     results[p].value_stats.delivered_per_s, int_of(undecided),
                     int_of(results[p].instances_replayed),
                     int_of(results[p].durable_appends)});
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
  spec.axes = [](const Scale& scale) {
    std::vector<ParamAxis> axes{ParamAxis::sizes("n", scale.sim_ns),
                                ParamAxis::strings("mode", {"volatile", "durable"}),
                                ParamAxis::reals("append_ms", {0.1}),
                                ParamAxis::reals("downtime_ms", {60}),
                                ParamAxis::reals("stagger_ms", {150}),
                                ParamAxis::reals("offered_per_s", {200})};
    for (auto& axis : workload_size_axes(scale)) axes.push_back(std::move(axis));
    return axes;
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
    const PaperContext& ctx = run.ctx;
    std::vector<faults::FaultPlan> plans;
    std::vector<WorkloadSpec> streams;
    std::vector<std::pair<double, double>> windows;
    for (std::size_t p = 0; p < run.grid.size(); ++p) {
      const auto point = run.grid.point(p);
      WorkloadSpec stream;
      stream.arrivals = ArrivalProcess::kOpenLoop;
      stream.offered_per_s = point.get_real("offered_per_s");
      stream.warmup = point.get_size("warmup");
      stream.measured = point.get_size("instances");
      stream.instance_timeout_ms = 1000.0;
      stream.resubmit_undecided = true;  // exactly-once across the storm
      const double strike_ms =
          stream.start_ms + 1000.0 *
                                (static_cast<double>(stream.warmup) +
                                 0.3 * static_cast<double>(stream.measured)) /
                                stream.offered_per_s;
      const double downtime = point.get_real("downtime_ms");
      const double stagger = point.get_real("stagger_ms");
      const auto n = static_cast<double>(point.get_size("n"));
      if (run.fault_plan != nullptr) {
        plans.push_back(*run.fault_plan);
        windows.push_back(fold_window(plans[p]));
      } else {
        plans.push_back(faults::FaultPlan{}.add(
            faults::FaultPlan::rolling_restart(strike_ms, downtime, stagger)));
        windows.emplace_back(strike_ms, strike_ms + (n - 1.0) * stagger + downtime);
      }
      streams.push_back(stream);
    }
    const auto results = ctx.runner->map(run.grid.size(), [&](std::size_t p) {
      const auto point = run.grid.point(p);
      WorkloadConfig cfg;
      cfg.n = point.get_size("n");
      cfg.network = ctx.network;
      cfg.timers = ctx.timers;
      cfg.heartbeat_timeout_ms = kFaultTimeoutMs;
      cfg.rotate_coordinators = true;
      cfg.fault_plan = &plans[p];
      cfg.durable_log = point.get_string("mode") == "durable";
      cfg.durable_append_ms = point.get_real("append_ms");
      cfg.seed = mode_blind_seed(ctx.seed, name, point);
      return run_workload(cfg, streams[p]);
    });
    ResultTable table{name, columns};
    for (std::size_t p = 0; p < run.grid.size(); ++p) {
      const auto point = run.grid.point(p);
      const auto [start_ms, end_ms] = windows[p];
      const PhasedWorkload phases = split_workload_by_window(results[p], start_ms, end_ms);
      table.add_row({point.get_int("n"), point.get_string("mode"), phase_ci(phases.before),
                     phase_ci(phases.during), phase_ci(phases.after),
                     phase_p95(phases.during), int_of(results[p].value_stats.decided),
                     int_of(results[p].value_stats.undecided),
                     int_of(results[p].instances_replayed)});
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
  spec.axes = [](const Scale& scale) {
    std::vector<ParamAxis> axes{ParamAxis::ints("n", {5}),
                                ParamAxis::reals("offered_per_s", {200})};
    for (auto& axis : workload_size_axes(scale)) axes.push_back(std::move(axis));
    return axes;
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
    const PaperContext& ctx = run.ctx;
    std::vector<faults::FaultPlan> plans;
    std::vector<WorkloadSpec> streams;
    std::vector<std::pair<double, double>> nominal;  // scheduled change times
    for (std::size_t p = 0; p < run.grid.size(); ++p) {
      const auto point = run.grid.point(p);
      WorkloadSpec stream;
      stream.arrivals = ArrivalProcess::kOpenLoop;
      stream.offered_per_s = point.get_real("offered_per_s");
      stream.warmup = point.get_size("warmup");
      stream.measured = point.get_size("instances");
      const auto at = [&](double frac) {
        return stream.start_ms + 1000.0 *
                                     (static_cast<double>(stream.warmup) +
                                      frac * static_cast<double>(stream.measured)) /
                                     stream.offered_per_s;
      };
      nominal.emplace_back(at(0.35), at(0.65));
      if (run.fault_plan != nullptr) {
        plans.push_back(*run.fault_plan);
      } else {
        plans.push_back(faults::FaultPlan{}
                            .add(faults::FaultPlan::add_host(3, nominal[p].first))
                            .add(faults::FaultPlan::add_host(4, nominal[p].second)));
      }
      streams.push_back(stream);
    }
    const auto results = ctx.runner->map(run.grid.size(), [&](std::size_t p) {
      const auto point = run.grid.point(p);
      WorkloadConfig cfg;
      cfg.n = point.get_size("n");
      cfg.network = ctx.network;
      cfg.timers = ctx.timers;
      cfg.fault_plan = &plans[p];
      cfg.initial_members = {0, 1, 2};
      cfg.seed = workload_point_seed(ctx.seed, name, point);
      return run_workload(cfg, streams[p]);
    });
    ResultTable table{name, columns};
    for (std::size_t p = 0; p < run.grid.size(); ++p) {
      const auto point = run.grid.point(p);
      // Bucket against the *decision* instants when both changes landed
      // (the scheduled times otherwise): before = 3 members, during = 4,
      // after = 5.
      double t1 = nominal[p].first;
      double t2 = nominal[p].second;
      const auto& changes = results[p].membership_changes;
      if (changes.size() >= 2) {
        t1 = changes.front().at_ms;
        t2 = changes.back().at_ms;
      }
      const PhasedWorkload phases = split_workload_by_window(results[p], t1, t2);
      const std::size_t undecided =
          phases.before.undecided + phases.during.undecided + phases.after.undecided;
      table.add_row({point.get_int("n"), point.get_real("offered_per_s"),
                     phase_ci(phases.before), phase_ci(phases.during), phase_ci(phases.after),
                     phase_p95(phases.after), int_of(changes.size()), int_of(undecided)});
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
  spec.axes = [](const Scale& scale) {
    std::vector<ParamAxis> axes{ParamAxis::sizes("n", scale.sim_ns),
                                ParamAxis::sizes("racks", {2}),
                                ParamAxis::strings("algorithm", {"ct", "mr"}),
                                ParamAxis::reals("downtime_ms", {60}),
                                ParamAxis::reals("offered_per_s", {200})};
    for (auto& axis : workload_size_axes(scale)) axes.push_back(std::move(axis));
    return axes;
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
    const PaperContext& ctx = run.ctx;
    // Plans and topologies stay alive across the fan-out; one per grid
    // point (an explicit --fault-plan replaces every plan, still lowered
    // against the point's topology).
    std::vector<faults::FaultPlan> plans;
    std::vector<std::shared_ptr<const topo::Topology>> topologies;
    std::vector<WorkloadSpec> streams;
    for (std::size_t p = 0; p < run.grid.size(); ++p) {
      const auto point = run.grid.point(p);
      const std::size_t racks = point.get_size("racks");
      topologies.push_back(
          two_rack_topology(point.get_size("n"), racks, /*uplink_latency_ms=*/0.05));
      WorkloadSpec stream;
      stream.arrivals = ArrivalProcess::kOpenLoop;
      stream.offered_per_s = point.get_real("offered_per_s");
      stream.warmup = point.get_size("warmup");
      stream.measured = point.get_size("instances");
      // Strike 40% into the measured window (the crash_under_load shape).
      const double strike_ms =
          stream.start_ms + 1000.0 *
                                (static_cast<double>(stream.warmup) +
                                 0.4 * static_cast<double>(stream.measured)) /
                                stream.offered_per_s;
      if (run.fault_plan != nullptr) {
        plans.push_back(*run.fault_plan);
      } else {
        // Kill the last (minority) rack: the contiguous split leaves host 0
        // -- and with it the round-1 coordinator -- in rack 0.
        plans.push_back(faults::FaultPlan{}.add(faults::FaultPlan::kill_rack(
            static_cast<int>(racks) - 1, strike_ms, point.get_real("downtime_ms"))));
      }
      streams.push_back(stream);
    }
    const auto results = ctx.runner->map(run.grid.size(), [&](std::size_t p) {
      const auto point = run.grid.point(p);
      WorkloadConfig cfg;
      cfg.n = point.get_size("n");
      cfg.network = ctx.network;
      cfg.timers = ctx.timers;
      cfg.topology = topologies[p];
      cfg.heartbeat_timeout_ms = kFaultTimeoutMs;
      cfg.algorithm = algorithm_of(point.get_string("algorithm"));
      cfg.fault_plan = &plans[p];
      cfg.seed = workload_point_seed(ctx.seed, name, point);
      return run_workload(cfg, streams[p]);
    });
    ResultTable table{name, columns};
    for (std::size_t p = 0; p < run.grid.size(); ++p) {
      const auto point = run.grid.point(p);
      const auto [start_ms, end_ms] = fold_window(plans[p]);
      const PhasedWorkload phases = split_workload_by_window(results[p], start_ms, end_ms);
      const std::size_t undecided =
          phases.before.undecided + phases.during.undecided + phases.after.undecided;
      table.add_row({point.get_int("n"), point.get_int("racks"),
                     point.get_string("algorithm"), point.get_real("downtime_ms"),
                     point.get_real("offered_per_s"), phase_ci(phases.before),
                     phase_ci(phases.during), phase_ci(phases.after),
                     int_of(phases.during.latencies_ms.size() + phases.during.undecided),
                     int_of(undecided)});
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
    std::vector<ParamAxis> axes{ParamAxis::sizes("n", {3, 4, 6}),
                                ParamAxis::sizes("racks", {2}),
                                ParamAxis::reals("uplink_ms", {0, 0.1, 0.5, 2.0}),
                                ParamAxis::reals("offered_per_s", {200})};
    for (auto& axis : workload_size_axes(scale)) axes.push_back(std::move(axis));
    return axes;
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
    const PaperContext& ctx = run.ctx;
    const auto timers = net::TimerModel::ideal();
    const auto results = ctx.runner->map(run.grid.size(), [&](std::size_t p) {
      const auto point = run.grid.point(p);
      WorkloadConfig cfg;
      cfg.n = point.get_size("n");
      cfg.network = ctx.network;
      cfg.timers = timers;
      cfg.topology = two_rack_topology(cfg.n, point.get_size("racks"),
                                       point.get_real("uplink_ms"));
      cfg.seed = workload_point_seed(ctx.seed, name, point);
      WorkloadSpec stream;
      stream.arrivals = ArrivalProcess::kOpenLoop;
      stream.offered_per_s = point.get_real("offered_per_s");
      stream.warmup = point.get_size("warmup");
      stream.measured = point.get_size("instances");
      return run_workload(cfg, stream);
    });
    ResultTable table{name, columns};
    for (std::size_t p = 0; p < run.grid.size(); ++p) {
      const auto point = run.grid.point(p);
      const WorkloadStats& stats = results[p].stats;
      table.add_row({point.get_int("n"), point.get_int("racks"), point.get_real("uplink_ms"),
                     point.get_real("offered_per_s"), stats.delivered_per_s,
                     latency_ci_cell(stats),
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
    std::vector<ParamAxis> axes{
        ParamAxis::sizes("n", {3, 5, 9, 17, 33, 65, 129}),
        ParamAxis::strings("engine", {"heap_unicast", "ladder_batched"})};
    for (auto& axis : workload_size_axes(scale)) axes.push_back(std::move(axis));
    return axes;
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

SANPERF_REGISTER_SCENARIO(scale_n_sweep_spec);
SANPERF_REGISTER_SCENARIO(load_latency_sweep_spec);
SANPERF_REGISTER_SCENARIO(batch_throughput_sweep_spec);
SANPERF_REGISTER_SCENARIO(closed_loop_clients_spec);
SANPERF_REGISTER_SCENARIO(crash_under_load_spec);
SANPERF_REGISTER_SCENARIO(recovery_under_load_spec);
SANPERF_REGISTER_SCENARIO(rolling_restart_spec);
SANPERF_REGISTER_SCENARIO(membership_growth_spec);
SANPERF_REGISTER_SCENARIO(rack_loss_consensus_spec);
SANPERF_REGISTER_SCENARIO(cross_rack_latency_sweep_spec);

// The fault scenarios self-register next to builtin() (same translation
// unit, so any registry user links them in): the satellite registration
// hook, exercised in-tree.
SANPERF_REGISTER_SCENARIO(crash_recovery_spec);
SANPERF_REGISTER_SCENARIO(partition_heal_spec);
SANPERF_REGISTER_SCENARIO(lossy_consensus_spec);
SANPERF_REGISTER_SCENARIO(slowdown_sweep_spec);

}  // namespace

const CampaignRegistry& CampaignRegistry::builtin() {
  static const CampaignRegistry registry = [] {
    CampaignRegistry r;
    r.add(fig6_spec());
    r.add(fig7a_spec());
    r.add(fig7b_spec());
    r.add(table1_spec());
    r.add(class3_spec(/*qos_view=*/true));   // fig8
    r.add(class3_spec(/*qos_view=*/false));  // fig9a
    r.add(fig9b_spec());
    r.add(ablation_broadcast_spec());
    r.add(ablation_fd_spec());
    r.add(ext_algorithms_spec());
    r.add(ext_throughput_spec());
    r.add(ext_detection_spec());
    return r;
  }();
  return registry;
}

CampaignRegistry& CampaignRegistry::global() {
  // Seeded from builtin() on first use; register_scenario appends (the
  // static registrars above run during this TU's initialisation, so the
  // fault scenarios land right after the paper artifacts). Deliberately in
  // this translation unit: any global()/builtin() user links the builtin
  // specs and their registrars together.
  static CampaignRegistry registry = [] {
    CampaignRegistry r;
    for (const ScenarioSpec& spec : builtin().specs()) r.add(spec);
    return r;
  }();
  return registry;
}

}  // namespace sanperf::core
