// The paper context every scenario runs against: the emulator
// configuration plus the Fig 6 calibration products (make_context). The
// paper artifacts themselves (Fig 6, 7a, 7b, Table 1, Fig 8, 9a, 9b), the
// model ablations and the future-work extensions are registered scenarios,
// defined in experiments.cpp next to make_context and listed by
// CampaignRegistry::global() (core/campaign.hpp).
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "core/calibration.hpp"
#include "core/config.hpp"
#include "core/replication.hpp"
#include "net/params.hpp"

namespace sanperf::core {

struct PaperContext {
  Scale scale;
  std::uint64_t seed = kDefaultSeed;
  net::NetworkParams network = net::NetworkParams::defaults();
  net::TimerModel timers = net::TimerModel::defaults();
  /// Replication engine the scenarios fan campaigns out on. Thread count
  /// does not affect results (deterministic per-replication seeding).
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

/// The paper's t_send candidate set {0.005 .. 0.035} ms (the fig7b axis).
[[nodiscard]] const std::vector<double>& tsend_candidates();

// --- Paper-reported reference values (for side-by-side printing) ----------
struct PaperTable1Row {
  std::size_t n;
  double meas_no_crash, meas_coord, meas_part;
  double sim_no_crash, sim_coord, sim_part;  ///< NaN where the paper has none
};
[[nodiscard]] const std::vector<PaperTable1Row>& paper_table1();

}  // namespace sanperf::core
