// Experiment drivers: one function per paper table/figure, returning
// structured data that the registered scenarios (core/scenarios.cpp)
// render. All drivers share a PaperContext holding the emulator
// configuration and the calibration products.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "core/calibration.hpp"
#include "core/config.hpp"
#include "core/measurement.hpp"
#include "core/replication.hpp"
#include "net/params.hpp"
#include "stats/ecdf.hpp"

namespace sanperf::core {

struct PaperContext {
  Scale scale;
  std::uint64_t seed = kDefaultSeed;
  net::NetworkParams network = net::NetworkParams::defaults();
  net::TimerModel timers = net::TimerModel::defaults();
  /// Replication engine the drivers fan campaigns out on. Thread count does
  /// not affect results (deterministic per-replication seeding).
  const ReplicationRunner* runner = &default_runner();

  // Calibration products (Section 5.1), filled by make_context():
  stats::BimodalUniform unicast_fit;
  std::map<std::size_t, stats::BimodalUniform> broadcast_fits;  ///< keyed by n
  double t_send_ms = kTsendMs;

  /// SAN transport parameters for n processes from the calibration.
  [[nodiscard]] sanmodels::TransportParams transport(std::size_t n) const;
};

/// Measures delay distributions and fits them (the shared calibration pass).
/// The calibration probes fan out over `runner` (results are identical for
/// any thread count); the returned context keeps the default runner unless
/// the caller re-points it.
[[nodiscard]] PaperContext make_context(const Scale& scale, std::uint64_t seed = kDefaultSeed,
                                        const ReplicationRunner& runner = default_runner());

// --- Fig 6: end-to-end delay CDFs -----------------------------------------
struct Fig6Result {
  std::vector<double> unicast_ms;
  std::map<std::size_t, std::vector<double>> broadcast_ms;  ///< keyed by n
  stats::BimodalUniform unicast_fit;
  std::map<std::size_t, stats::BimodalUniform> broadcast_fits;
};
/// Per-n results are independent, so a restriction of `ns` reproduces the
/// matching subset of the full run bit for bit.
[[nodiscard]] Fig6Result run_fig6(const PaperContext& ctx, const std::vector<std::size_t>& ns);

// --- Fig 7a: measured latency CDFs, class 1 --------------------------------
struct Fig7aRow {
  std::size_t n = 0;
  std::vector<double> latencies_ms;
  stats::MeanCI mean;
  std::size_t undecided = 0;
};
[[nodiscard]] std::vector<Fig7aRow> run_fig7a(const PaperContext& ctx,
                                              const std::vector<std::size_t>& ns);

// --- Fig 7b: simulated latency CDFs for t_send candidates, n = 5 ----------
struct Fig7bResult {
  std::vector<double> measured_ms;  ///< class-1 measurement, n = 5
  TsendSweep sweep;
  std::map<double, std::vector<double>> sim_ms;  ///< keyed by t_send
};
/// The paper's candidate set {0.005 .. 0.035} ms.
[[nodiscard]] const std::vector<double>& tsend_candidates();
[[nodiscard]] Fig7bResult run_fig7b(const PaperContext& ctx,
                                    const std::vector<double>& candidates);

// --- Table 1: crash scenarios ----------------------------------------------
/// One (n, crash scenario) cell pair of Table 1: the measurement, plus the
/// SAN simulation where n is calibrated.
struct Table1Cell {
  std::size_t n = 0;
  int crashed = -1;  ///< -1 none, 0 coordinator, 1 participant
  stats::MeanCI meas;
  std::optional<double> sim;
};
/// The whole (ns x crashed) campaign as one flattened space; cells come
/// back in (n-major, scenario-minor) order. `crashed` entries must be in
/// {-1, 0, 1}. Restrictions reproduce the matching cells of the full run.
[[nodiscard]] std::vector<Table1Cell> run_table1_cells(const PaperContext& ctx,
                                                       const std::vector<std::size_t>& ns,
                                                       const std::vector<int>& crashed);

// --- Fig 8 (QoS vs T) and Fig 9a (latency vs T): class-3 measurements -----
struct Class3Point {
  std::size_t n = 0;
  double timeout_ms = 0;
  Class3Aggregate meas;
};
[[nodiscard]] std::vector<Class3Point> run_class3_measurements(
    const PaperContext& ctx, const std::vector<std::size_t>& ns,
    const std::vector<double>& timeouts_ms);

// --- Fig 9b: measurements vs det/exp SAN simulation, n = 3, 5 -------------
struct Fig9bPoint {
  std::size_t n = 0;
  double timeout_ms = 0;
  double meas_ms = 0;
  double sim_det_ms = 0;
  double sim_exp_ms = 0;
  double qos_t_mr_ms = 0;
  double qos_t_m_ms = 0;
};
[[nodiscard]] std::vector<Fig9bPoint> run_fig9b(const PaperContext& ctx,
                                                const std::vector<Class3Point>& measurements);

// --- Paper-reported reference values (for side-by-side printing) ----------
struct PaperTable1Row {
  std::size_t n;
  double meas_no_crash, meas_coord, meas_part;
  double sim_no_crash, sim_coord, sim_part;  ///< NaN where the paper has none
};
[[nodiscard]] const std::vector<PaperTable1Row>& paper_table1();

}  // namespace sanperf::core
