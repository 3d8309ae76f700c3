#include "core/experiments.hpp"

#include <cmath>
#include <stdexcept>
#include <utility>

#include "core/simulation.hpp"
#include "sanmodels/consensus_model.hpp"

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

Fig6Result run_fig6(const PaperContext& ctx, const std::vector<std::size_t>& ns) {
  Fig6Result out;
  auto samples =
      run_calibration_probes(ctx.network, ctx.scale.delay_probes, ns, ctx.seed, *ctx.runner);
  out.unicast_ms = std::move(samples.unicast_ms);
  out.unicast_fit = stats::fit_bimodal_uniform(out.unicast_ms);
  for (auto& [n, delays] : samples.broadcast_ms) {
    out.broadcast_fits[n] = stats::fit_bimodal_uniform(delays);
    out.broadcast_ms[n] = std::move(delays);
  }
  return out;
}

std::vector<Fig7aRow> run_fig7a(const PaperContext& ctx, const std::vector<std::size_t>& ns) {
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

  std::vector<Fig7aRow> rows;
  for (std::size_t g = 0; g < ns.size(); ++g) {
    const auto meas = fold_latency_outcomes(outcomes[g]);
    Fig7aRow row;
    row.n = ns[g];
    row.latencies_ms = meas.latencies_ms;
    row.mean = meas.summary().mean_ci(0.90);
    row.undecided = meas.undecided;
    rows.push_back(std::move(row));
  }
  return rows;
}

const std::vector<double>& tsend_candidates() {
  static const std::vector<double> candidates = {0.005, 0.010, 0.015, 0.020, 0.025, 0.035};
  return candidates;
}

Fig7bResult run_fig7b(const PaperContext& ctx, const std::vector<double>& candidates) {
  if (candidates.empty()) throw std::invalid_argument{"run_fig7b: no candidates"};
  // One flattened space: group 0 is the n = 5 class-1 measurement, one
  // further group per t_send candidate's class-1 SAN study. Seeds are the
  // streams the nested measure_latency / sweep_tsend calls used, so the
  // result is bit-identical to the pre-flattening driver (which also
  // simulated every candidate twice -- once for the sweep, once for the
  // CDFs; here each candidate runs once and both foldings share it).
  struct Cell {
    ExecOutcome exec;
    std::optional<double> reward;
  };

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
    Cell cell;
    if (t.group == 0) {
      cell.exec = run_latency_execution(5, ctx.network, ctx.timers, -1, t.index, t.seed);
    } else {
      cell.reward = studies[t.group - 1]->run_one(des::RandomEngine{t.seed});
    }
    return cell;
  });

  Fig7bResult out;
  {
    std::vector<ExecOutcome> outcomes;
    outcomes.reserve(cells[0].size());
    for (const Cell& c : cells[0]) outcomes.push_back(c.exec);
    out.measured_ms = fold_latency_outcomes(outcomes).latencies_ms;
  }

  std::vector<std::vector<std::optional<double>>> rewards(candidates.size());
  for (std::size_t k = 0; k < candidates.size(); ++k) {
    rewards[k].reserve(cells[k + 1].size());
    for (const Cell& c : cells[k + 1]) rewards[k].push_back(c.reward);
  }
  out.sweep = fold_tsend_sweep(candidates, rewards, stats::Ecdf{out.measured_ms});
  for (const TsendCandidate& cand : out.sweep.candidates) {
    out.sim_ms[cand.t_send_ms] = cand.sim_latencies_ms;
  }
  return out;
}

std::vector<Table1Cell> run_table1_cells(const PaperContext& ctx,
                                         const std::vector<std::size_t>& ns,
                                         const std::vector<int>& crashed) {
  // One flattened space for the whole campaign: every (n, scenario,
  // execution) measurement task and every (n, scenario, replication) SAN
  // simulation task drains from a single batch. Per-task seeds reproduce
  // the nested measure_latency / simulate_class* calls exactly, and are
  // independent per (n, scenario), so a restricted axis reproduces the
  // matching cells of the full table.
  struct GroupDesc {
    std::size_t cell = 0;                        ///< index into the output cells
    const san::TransientStudy* study = nullptr;  ///< non-null for SAN groups
  };
  struct Cell {
    ExecOutcome exec;
    std::optional<double> reward;
  };

  const auto meas_seed_base = [](int crash) -> std::uint64_t {
    switch (crash) {
      case -1: return 200;
      case 0: return 300;
      case 1: return 400;
      default: throw std::invalid_argument{"run_table1_cells: crashed must be -1, 0 or 1"};
    }
  };

  ConsensusStudyBank bank;
  ShardSpace space;
  std::vector<GroupDesc> descs;
  std::vector<Table1Cell> cells_out;
  for (const std::size_t n : ns) {
    for (const int crash : crashed) {
      cells_out.push_back(Table1Cell{n, crash, {}, std::nullopt});
      const std::size_t cell_index = cells_out.size() - 1;

      space.add_group(ctx.scale.class1_executions, ctx.seed + meas_seed_base(crash) + n, "exec");
      descs.push_back(GroupDesc{cell_index, nullptr});
      if (ctx.broadcast_fits.contains(n)) {
        sanmodels::ConsensusSanConfig cfg;
        cfg.n = n;
        cfg.transport = ctx.transport(n);
        cfg.initially_crashed = crash;
        space.add_group(ctx.scale.sim_replications, ctx.seed + meas_seed_base(crash) + 300 + n,
                        "rep");
        descs.push_back(GroupDesc{cell_index, bank.add(cfg)});
      }
    }
  }

  const auto raw = ctx.runner->run_flat(space, [&](const ShardSpace::Task& t) {
    const GroupDesc& gd = descs[t.group];
    Cell cell;
    if (gd.study != nullptr) {
      cell.reward = gd.study->run_one(des::RandomEngine{t.seed});
    } else {
      const Table1Cell& out_cell = cells_out[gd.cell];
      cell.exec = run_latency_execution(out_cell.n, ctx.network, ctx.timers, out_cell.crashed,
                                        t.index, t.seed);
    }
    return cell;
  });

  // Fold per group in index order: bit-identical to the sequential sweep.
  for (std::size_t g = 0; g < descs.size(); ++g) {
    Table1Cell& out_cell = cells_out[descs[g].cell];
    if (descs[g].study != nullptr) {
      std::vector<std::optional<double>> rewards;
      rewards.reserve(raw[g].size());
      for (const Cell& c : raw[g]) rewards.push_back(c.reward);
      out_cell.sim = fold_study_rewards(rewards).summary.mean();
    } else {
      std::vector<ExecOutcome> outcomes;
      outcomes.reserve(raw[g].size());
      for (const Cell& c : raw[g]) outcomes.push_back(c.exec);
      out_cell.meas = fold_latency_outcomes(outcomes).summary().mean_ci(0.90);
    }
  }
  return cells_out;
}

std::vector<Class3Point> run_class3_measurements(const PaperContext& ctx,
                                                 const std::vector<std::size_t>& ns,
                                                 const std::vector<double>& timeouts_ms) {
  // Flattened (n, timeout, run) space: every class-3 run is one task, so
  // the whole Fig 8 / Fig 9a sweep drains from a single pool batch.
  ShardSpace space;
  std::vector<Class3Point> points;
  for (const std::size_t n : ns) {
    for (const double timeout : timeouts_ms) {
      space.add_group(ctx.scale.class3_runs,
                      ctx.seed + 1000 + 17 * n + static_cast<std::uint64_t>(timeout), "run");
      Class3Point pt;
      pt.n = n;
      pt.timeout_ms = timeout;
      points.push_back(pt);
    }
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

std::vector<Fig9bPoint> run_fig9b(const PaperContext& ctx,
                                  const std::vector<Class3Point>& measurements) {
  // Flattened driver-level fan-out: the conditional simulation branches --
  // class 1 where the detector made no mistakes, deterministic plus
  // exponential class-3 sojourns otherwise -- are decided up front from
  // the measured QoS, so every replication of every branch of every point
  // drains from one batch. Seeds match the nested simulate_class* calls.
  struct GroupRef {
    std::size_t row = 0;
    bool both = false;  ///< class-1 degenerate: result feeds det and exp
    bool exp = false;   ///< exponential-sojourn group
  };

  ConsensusStudyBank bank;
  std::vector<const san::TransientStudy*> studies;
  std::vector<GroupRef> refs;
  ShardSpace space;
  std::vector<Fig9bPoint> out;

  for (const auto& pt : measurements) {
    if (!ctx.broadcast_fits.contains(pt.n)) continue;  // sim only where calibrated (n = 3, 5)
    Fig9bPoint row;
    row.n = pt.n;
    row.timeout_ms = pt.timeout_ms;
    row.meas_ms = pt.meas.latency_ms.mean;
    row.qos_t_mr_ms = pt.meas.pooled_qos.t_mr_ms;
    row.qos_t_m_ms = pt.meas.pooled_qos.t_m_ms;
    const std::size_t row_index = out.size();
    out.push_back(row);

    const auto transport = ctx.transport(pt.n);
    const auto& qos = pt.meas.pooled_qos;
    sanmodels::ConsensusSanConfig cfg;
    cfg.n = pt.n;
    cfg.transport = transport;
    if (!(qos.t_mr_ms > 0) || !(qos.t_m_ms > 0) || qos.t_m_ms >= qos.t_mr_ms) {
      // The detector made essentially no mistakes at this timeout: the
      // class-3 model degenerates to class 1.
      studies.push_back(bank.add(cfg));
      space.add_group(ctx.scale.sim_replications, ctx.seed + 9000, "rep");
      refs.push_back(GroupRef{row_index, /*both=*/true, /*exp=*/false});
    } else {
      auto det_cfg = cfg;
      det_cfg.qos_fd =
          fd::AbstractFdParams::from_qos(qos, fd::AbstractFdParams::Sojourn::kDeterministic);
      studies.push_back(bank.add(det_cfg));
      space.add_group(ctx.scale.sim_replications, ctx.seed + 9100, "rep");
      refs.push_back(GroupRef{row_index, /*both=*/false, /*exp=*/false});

      auto exp_cfg = cfg;
      exp_cfg.qos_fd =
          fd::AbstractFdParams::from_qos(qos, fd::AbstractFdParams::Sojourn::kExponential);
      studies.push_back(bank.add(exp_cfg));
      space.add_group(ctx.scale.sim_replications, ctx.seed + 9200, "rep");
      refs.push_back(GroupRef{row_index, /*both=*/false, /*exp=*/true});
    }
  }

  const auto rewards = ctx.runner->run_flat(space, [&](const ShardSpace::Task& t) {
    return studies[t.group]->run_one(des::RandomEngine{t.seed});
  });

  for (std::size_t g = 0; g < refs.size(); ++g) {
    const double mean = fold_study_rewards(rewards[g]).summary.mean();
    Fig9bPoint& row = out[refs[g].row];
    if (refs[g].both) {
      row.sim_det_ms = mean;
      row.sim_exp_ms = mean;
    } else if (refs[g].exp) {
      row.sim_exp_ms = mean;
    } else {
      row.sim_det_ms = mean;
    }
  }
  return out;
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

}  // namespace sanperf::core
