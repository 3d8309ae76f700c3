// The paper context (make_context, the Fig 6 calibration pass) and the
// paper's scenario family: every paper artifact (Fig 6, 7a, 7b, Table 1,
// Fig 8, 9a, 9b), the model ablations and the future-work extensions. Each
// is a declarative ScenarioSpec whose run enumerates its grid into
// flattened ShardSpace batches and folds them, in index order, into a
// ResultTable.
#include "core/experiments.hpp"

#include <cmath>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/campaign.hpp"
#include "core/extensions.hpp"
#include "core/measurement.hpp"
#include "core/simulation.hpp"
#include "core/workload.hpp"
#include "sanmodels/consensus_model.hpp"
#include "stats/ecdf.hpp"

namespace sanperf::core {

sanmodels::TransportParams PaperContext::transport(std::size_t n) const {
  const auto it = broadcast_fits.find(n);
  if (it == broadcast_fits.end()) {
    throw std::out_of_range{"PaperContext::transport: no broadcast fit for this n"};
  }
  return make_transport(unicast_fit, it->second, t_send_ms);
}

namespace {

/// The Fig 6 calibration pass as one flattened shard space: group 0 holds
/// the unicast probe shards, one further group per broadcast n. Returns the
/// pooled per-group delay samples in probe order.
struct DelaySamples {
  std::vector<double> unicast_ms;
  std::map<std::size_t, std::vector<double>> broadcast_ms;  ///< keyed by n
};

DelaySamples run_calibration_probes(const net::NetworkParams& network, std::size_t probes,
                                    const std::vector<std::size_t>& ns, std::uint64_t seed,
                                    const ReplicationRunner& runner) {
  const std::size_t shard_count = delay_probe_shards(probes);
  ShardSpace space;
  space.add_group(shard_count, seed + 1, "probe");
  for (const std::size_t n : ns) space.add_group(shard_count, seed + 2 + n, "probe");

  auto shards = runner.run_flat(space, [&](const ShardSpace::Task& t) {
    const std::size_t count = delay_probe_shard_size(probes, t.index);
    if (t.group == 0) return unicast_probe_shard(network, count, t.seed);
    return broadcast_probe_shard(network, ns[t.group - 1], count, t.seed);
  });

  const auto concat = [](std::vector<double>& a, std::vector<double>& b) {
    a.insert(a.end(), b.begin(), b.end());
  };
  DelaySamples out;
  out.unicast_ms = tree_merge(std::move(shards[0]), concat, &runner);
  for (std::size_t g = 0; g < ns.size(); ++g) {
    out.broadcast_ms[ns[g]] = tree_merge(std::move(shards[g + 1]), concat, &runner);
  }
  return out;
}

}  // namespace

PaperContext make_context(const Scale& scale, std::uint64_t seed,
                          const ReplicationRunner& runner) {
  PaperContext ctx;
  ctx.scale = scale;
  ctx.seed = seed;

  const auto samples =
      run_calibration_probes(ctx.network, scale.delay_probes, scale.sim_ns, seed, runner);
  ctx.unicast_fit = stats::fit_bimodal_uniform(samples.unicast_ms);
  for (const auto& [n, delays] : samples.broadcast_ms) {
    ctx.broadcast_fits[n] = stats::fit_bimodal_uniform(delays);
  }
  return ctx;
}

const std::vector<double>& tsend_candidates() {
  static const std::vector<double> candidates = {0.005, 0.010, 0.015, 0.020, 0.025, 0.035};
  return candidates;
}

const std::vector<PaperTable1Row>& paper_table1() {
  static const double nan = std::nan("");
  static const std::vector<PaperTable1Row> rows = {
      {3, 1.06, 1.568, 1.115, 1.030, 1.336, 0.786},
      {5, 1.43, 2.245, 1.340, 1.442, 2.295, 1.336},
      {7, 2.00, 2.739, 1.811, nan, nan, nan},
      {9, 2.62, 3.101, 2.400, nan, nan, nan},
      {11, 3.27, 3.469, 3.049, nan, nan, nan},
  };
  return rows;
}

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

/// The paper's Table 1 measurement and simulation for n under a crash
/// scenario (-1 none, 0 coordinator, 1 participant); null where the paper
/// reports none.
std::pair<Value, Value> paper_cells(std::size_t n, int crashed) {
  for (const auto& p : paper_table1()) {
    if (p.n != n) continue;
    if (crashed == -1) return {real_or_null(p.meas_no_crash), real_or_null(p.sim_no_crash)};
    if (crashed == 0) return {real_or_null(p.meas_coord), real_or_null(p.sim_coord)};
    return {real_or_null(p.meas_part), real_or_null(p.sim_part)};
  }
  return {Value{}, Value{}};
}

// --- Shared campaign pieces --------------------------------------------------

/// One task of a space mixing emulator executions and SAN replications.
struct MixedCell {
  consensus::ExecutionResult exec;
  std::optional<double> reward;
};

/// Folds the emulator executions of one group's cells in index order.
template <typename Cell>
MeasuredLatency fold_execs(const std::vector<Cell>& cells) {
  MeasuredLatency out;
  for (const Cell& c : cells) out.add(c.exec);
  return out;
}

std::vector<std::optional<double>> rewards_of(const std::vector<MixedCell>& cells) {
  std::vector<std::optional<double>> out;
  out.reserve(cells.size());
  for (const MixedCell& c : cells) out.push_back(c.reward);
  return out;
}

/// One (n, timeout) point of a class-3 measurement campaign.
struct Class3Point {
  std::size_t n = 0;
  double timeout_ms = 0;
  Class3Aggregate meas;
};

/// The class-3 campaign over an (n, timeout_ms) grid as one flattened
/// (point, run) space, so the whole sweep drains from a single pool batch.
/// Point (n, T) runs on the streams of ctx.seed + offset + stride * n + T:
/// fig8, fig9a and fig9b use offset 1000 and stride 17, the FD-correlation
/// ablation 0 and 31.
std::vector<Class3Point> run_class3_measurements(const PaperContext& ctx, const ParamGrid& grid,
                                                 std::uint64_t offset, std::uint64_t stride) {
  ShardSpace space;
  std::vector<Class3Point> points;
  for (std::size_t p = 0; p < grid.size(); ++p) {
    const auto point = grid.point(p);
    Class3Point pt;
    pt.n = point.get_size("n");
    pt.timeout_ms = point.get_real("timeout_ms");
    space.add_group(ctx.scale.class3_runs,
                    ctx.seed + offset + stride * pt.n + static_cast<std::uint64_t>(pt.timeout_ms),
                    "run");
    points.push_back(pt);
  }

  auto runs = ctx.runner->run_flat(space, [&](const ShardSpace::Task& t) {
    const Class3Point& pt = points[t.group];
    return measure_class3_run(pt.n, ctx.network, ctx.timers, pt.timeout_ms,
                              ctx.scale.class3_executions, t.seed);
  });

  for (std::size_t g = 0; g < points.size(); ++g) {
    points[g].meas = fold_class3_runs(std::move(runs[g]));
  }
  return points;
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
    const PaperContext& ctx = run.ctx;
    // Per-n groups are independent, so a restriction of n reproduces the
    // matching rows of the full run bit for bit.
    const auto ns = run.grid.axis("n").size_values();
    auto samples =
        run_calibration_probes(ctx.network, ctx.scale.delay_probes, ns, ctx.seed, *ctx.runner);
    ResultTable table{"fig6", columns};
    const auto add = [&](const std::string& kind, Value n, std::vector<double> delays) {
      const auto fit = stats::fit_bimodal_uniform(delays);
      table.add_row({kind, std::move(n), fit.p1, fit.a1, fit.b1, fit.a2, fit.b2, fit.mean(),
                     SampleRef{std::move(delays)}});
    };
    add("unicast", Value{}, std::move(samples.unicast_ms));
    for (const std::size_t n : ns) add("broadcast", int_of(n), samples.broadcast_ms.at(n));
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
    const PaperContext& ctx = run.ctx;
    const auto ns = run.grid.axis("n").size_values();
    // Flattened fan-out: every (n, execution) pair is one task, so small n
    // groups and large ones drain from the same pool batch.
    ShardSpace space;
    for (const std::size_t n : ns) {
      space.add_group(ctx.scale.class1_executions, ctx.seed + 100 + n, "exec");
    }
    const auto outcomes = ctx.runner->run_flat(space, [&](const ShardSpace::Task& t) {
      return run_latency_execution(ns[t.group], ctx.network, ctx.timers,
                                   /*initially_crashed=*/-1, t.index, t.seed);
    });

    ResultTable table{"fig7a", columns};
    for (std::size_t g = 0; g < ns.size(); ++g) {
      const auto meas = fold_latency_outcomes(outcomes[g]);
      table.add_row({int_of(ns[g]), paper_cells(ns[g], -1).first, mean_ci_cell(meas),
                     int_of(meas.undecided),
                     SampleRef{meas.latencies_ms}});
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
    const PaperContext& ctx = run.ctx;
    const auto candidates = run.grid.axis("t_send_ms").real_values();
    // One flattened space: group 0 is the n = 5 class-1 measurement, one
    // further group per t_send candidate's class-1 SAN study, each on the
    // stream the nested measure_latency / sweep_tsend calls used.
    ConsensusStudyBank bank;
    std::vector<const san::TransientStudy*> studies;
    ShardSpace space;
    space.add_group(ctx.scale.class1_executions, ctx.seed + 105, "exec");
    for (const double t_send : candidates) {
      sanmodels::ConsensusSanConfig cfg;
      cfg.n = 5;
      cfg.transport = make_transport(ctx.unicast_fit, ctx.broadcast_fits.at(5), t_send);
      studies.push_back(bank.add(cfg));
      space.add_group(ctx.scale.sim_replications, ctx.seed + 7, "rep");
    }
    const auto cells = ctx.runner->run_flat(space, [&](const ShardSpace::Task& t) {
      MixedCell cell;
      if (t.group == 0) {
        cell.exec = run_latency_execution(5, ctx.network, ctx.timers, -1, t.index, t.seed);
      } else {
        cell.reward = studies[t.group - 1]->run_one(des::RandomEngine{t.seed});
      }
      return cell;
    });

    const auto measured_ms = fold_execs(cells[0]).latencies_ms;
    std::vector<std::vector<std::optional<double>>> rewards;
    for (std::size_t k = 0; k < candidates.size(); ++k) rewards.push_back(rewards_of(cells[k + 1]));
    const TsendSweep sweep = fold_tsend_sweep(candidates, rewards, stats::Ecdf{measured_ms});

    ResultTable table{"fig7b", columns};
    table.add_row({std::string{"measured"}, Value{}, Value{},
                   stats::summarize(measured_ms).mean(), Value{}, SampleRef{measured_ms}});
    for (const auto& cand : sweep.candidates) {
      table.add_row({std::string{"simulated"}, cand.t_send_ms, cand.ks_distance,
                     cand.sim_mean_ms,
                     Value{static_cast<std::int64_t>(
                         cand.t_send_ms == sweep.best_t_send_ms ? 1 : 0)},
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
    const PaperContext& ctx = run.ctx;
    // One flattened space for the whole campaign: every (n, scenario,
    // execution) measurement task and every (n, scenario, replication) SAN
    // simulation task drains from a single batch. Per-task seeds reproduce
    // the nested measure_latency / simulate_class* calls exactly, and are
    // independent per (n, scenario), so a restricted axis reproduces the
    // matching rows of the full table.
    struct Row {
      std::size_t n = 0;
      int crashed = -1;
      Value meas;
      std::optional<double> sim;
    };
    struct Group {
      std::size_t row = 0;
      const san::TransientStudy* study = nullptr;  ///< non-null for SAN groups
    };
    ConsensusStudyBank bank;
    ShardSpace space;
    std::vector<Row> rows;
    std::vector<Group> groups;
    for (std::size_t p = 0; p < run.grid.size(); ++p) {
      const auto point = run.grid.point(p);
      Row row;
      row.n = point.get_size("n");
      row.crashed = crashed_id(point.get_string("scenario"));
      // Measurement streams at +200 / +300 / +400 (no, coordinator,
      // participant crash), their SAN twins 300 further on.
      const std::uint64_t offset = 200 + 100 * static_cast<std::uint64_t>(row.crashed + 1);
      space.add_group(ctx.scale.class1_executions, ctx.seed + offset + row.n, "exec");
      groups.push_back(Group{p, nullptr});
      if (ctx.broadcast_fits.contains(row.n)) {
        sanmodels::ConsensusSanConfig cfg;
        cfg.n = row.n;
        cfg.transport = ctx.transport(row.n);
        cfg.initially_crashed = row.crashed;
        space.add_group(ctx.scale.sim_replications, ctx.seed + offset + 300 + row.n, "rep");
        groups.push_back(Group{p, bank.add(cfg)});
      }
      rows.push_back(row);
    }

    const auto cells = ctx.runner->run_flat(space, [&](const ShardSpace::Task& t) {
      const Group& g = groups[t.group];
      MixedCell cell;
      if (g.study != nullptr) {
        cell.reward = g.study->run_one(des::RandomEngine{t.seed});
      } else {
        const Row& row = rows[g.row];
        cell.exec = run_latency_execution(row.n, ctx.network, ctx.timers, row.crashed, t.index,
                                          t.seed);
      }
      return cell;
    });

    // Fold per group in index order: bit-identical to the sequential sweep.
    for (std::size_t g = 0; g < groups.size(); ++g) {
      Row& row = rows[groups[g].row];
      if (groups[g].study != nullptr) {
        row.sim = fold_study_rewards(rewards_of(cells[g])).summary.mean();
      } else {
        row.meas = mean_ci_cell(fold_execs(cells[g]));
      }
    }
    ResultTable table{"table1", columns};
    for (const Row& row : rows) {
      auto [paper_meas, paper_sim] = paper_cells(row.n, row.crashed);
      table.add_row({int_of(row.n), crash_scenarios().at(static_cast<std::size_t>(row.crashed + 1)),
                     std::move(paper_meas), row.meas, std::move(paper_sim),
                     row.sim ? Value{*row.sim} : Value{}});
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
    const auto points = run_class3_measurements(run.ctx, run.grid, 1000, 17);
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
    const PaperContext& ctx = run.ctx;
    const auto points = run_class3_measurements(ctx, run.grid, 1000, 17);
    // The conditional simulation branches -- class 1 where the detector
    // made no mistakes, deterministic plus exponential class-3 sojourns
    // otherwise -- are decided up front from the measured QoS, so every
    // replication of every branch of every point drains from one batch.
    // Seeds match the nested simulate_class* calls.
    struct Group {
      std::size_t row = 0;
      bool both = false;  ///< class-1 degenerate: result feeds det and exp
      bool exp = false;   ///< exponential-sojourn group
    };
    struct Row {
      const Class3Point* pt = nullptr;
      double sim_det_ms = 0;
      double sim_exp_ms = 0;
    };
    ConsensusStudyBank bank;
    std::vector<const san::TransientStudy*> studies;
    std::vector<Group> groups;
    std::vector<Row> rows;
    ShardSpace space;
    for (const auto& pt : points) {
      if (!ctx.broadcast_fits.contains(pt.n)) continue;  // sim only where calibrated (n = 3, 5)
      const std::size_t row = rows.size();
      rows.push_back(Row{&pt});
      const auto& qos = pt.meas.pooled_qos;
      sanmodels::ConsensusSanConfig cfg;
      cfg.n = pt.n;
      cfg.transport = ctx.transport(pt.n);
      if (!(qos.t_mr_ms > 0) || !(qos.t_m_ms > 0) || qos.t_m_ms >= qos.t_mr_ms) {
        // The detector made essentially no mistakes at this timeout: the
        // class-3 model degenerates to class 1.
        studies.push_back(bank.add(cfg));
        space.add_group(ctx.scale.sim_replications, ctx.seed + 9000, "rep");
        groups.push_back(Group{row, /*both=*/true, /*exp=*/false});
      } else {
        auto det_cfg = cfg;
        det_cfg.qos_fd =
            fd::AbstractFdParams::from_qos(qos, fd::AbstractFdParams::Sojourn::kDeterministic);
        studies.push_back(bank.add(det_cfg));
        space.add_group(ctx.scale.sim_replications, ctx.seed + 9100, "rep");
        groups.push_back(Group{row, /*both=*/false, /*exp=*/false});

        auto exp_cfg = cfg;
        exp_cfg.qos_fd =
            fd::AbstractFdParams::from_qos(qos, fd::AbstractFdParams::Sojourn::kExponential);
        studies.push_back(bank.add(exp_cfg));
        space.add_group(ctx.scale.sim_replications, ctx.seed + 9200, "rep");
        groups.push_back(Group{row, /*both=*/false, /*exp=*/true});
      }
    }

    const auto rewards = ctx.runner->run_flat(space, [&](const ShardSpace::Task& t) {
      return studies[t.group]->run_one(des::RandomEngine{t.seed});
    });
    for (std::size_t g = 0; g < groups.size(); ++g) {
      const double mean = fold_study_rewards(rewards[g]).summary.mean();
      Row& row = rows[groups[g].row];
      if (groups[g].both || !groups[g].exp) row.sim_det_ms = mean;
      if (groups[g].both || groups[g].exp) row.sim_exp_ms = mean;
    }

    ResultTable table{"fig9b", columns};
    for (const Row& row : rows) {
      const Class3Point& pt = *row.pt;
      table.add_row({int_of(pt.n), pt.timeout_ms, pt.meas.latency_ms.mean, row.sim_det_ms,
                     row.sim_exp_ms, pt.meas.pooled_qos.t_mr_ms, pt.meas.pooled_qos.t_m_ms});
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
    // Batch 1: the class-3 measurement campaign, one group per grid point.
    const auto points = run_class3_measurements(ctx, run.grid, 0, 31);

    // Batch 2: matched-QoS simulations; the branch (class 1 when the
    // detector made no mistakes, exponential-sojourn class 3 otherwise)
    // depends only on batch 1's fold.
    ConsensusStudyBank bank;
    std::vector<const san::TransientStudy*> studies;
    ShardSpace sim_space;
    for (const auto& pt : points) {
      const auto& qos = pt.meas.pooled_qos;
      sanmodels::ConsensusSanConfig cfg;
      cfg.n = pt.n;
      cfg.transport = ctx.transport(pt.n);
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
      const Class3Aggregate& meas = points[p].meas;
      const double meas_mean = meas.latency_ms.mean;
      const double sim_mean = fold_study_rewards(rewards[p]).summary.mean();
      const bool have_qos = meas.pooled_qos.pairs_used > 0;
      table.add_row({int_of(points[p].n), points[p].timeout_ms, meas_mean, sim_mean,
                     meas_mean > 0 ? Value{sim_mean / meas_mean} : Value{0.0},
                     have_qos ? Value{meas.pooled_qos.t_mr_ms} : Value{},
                     have_qos ? Value{meas.pooled_qos.t_m_ms} : Value{}});
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
      WorkloadConfig cfg;
      cfg.n = point.get_size("n");
      cfg.network = ctx.network;
      cfg.timers = timers;
      cfg.algorithm = alg;
      cfg.initially_crashed = crashed_id(point.get_string("scenario"));
      return run_one_shot(cfg, t.index, t.seed);
    });

    ResultTable table{"ext_algorithms", columns};
    for (std::size_t p = 0; p < run.grid.size(); ++p) {
      const auto point = run.grid.point(p);
      const auto ct = fold_latency_outcomes(outcomes[2 * p]);
      const auto mr = fold_latency_outcomes(outcomes[2 * p + 1]);
      // A ratio and a winner need both sides to have decided.
      Value ratio{};
      Value winner{};
      if (!ct.latencies_ms.empty() && !mr.latencies_ms.empty()) {
        const double ct_mean = ct.summary().mean();
        const double mr_mean = mr.summary().mean();
        ratio = Value{mr_mean / ct_mean};
        winner = Value{std::string{mr_mean < ct_mean ? "MR" : "CT"}};
      }
      table.add_row({point.get_int("n"), point.get_string("scenario"), mean_ci_cell(ct),
                     mean_ci_cell(mr), std::move(ratio), std::move(winner)});
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
      consensus::ExecutionResult exec;
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
      const double iso = fold_execs(cells[2 * g]).summary().mean();
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

}  // namespace

std::vector<ScenarioSpec> paper_scenarios() {
  return {fig6_spec(),
          fig7a_spec(),
          fig7b_spec(),
          table1_spec(),
          class3_spec(/*qos_view=*/true),   // fig8
          class3_spec(/*qos_view=*/false),  // fig9a
          fig9b_spec(),
          ablation_broadcast_spec(),
          ablation_fd_spec(),
          ext_algorithms_spec(),
          ext_throughput_spec(),
          ext_detection_spec()};
}

}  // namespace sanperf::core
