// Calibration of the SAN model from emulator measurements (Section 5.1).
//
// The pipeline mirrors the paper exactly:
//   1. measure end-to-end delays of isolated unicasts and broadcasts;
//   2. fit bi-modal uniform distributions to the delay samples (Fig 6);
//   3. assume t_send = t_receive constant; derive t_network as the
//      end-to-end fit shifted down by 2 t_send;
//   4. select t_send by sweeping candidates and comparing the simulated
//      class-1 latency CDF (n = 5) against the measured one (Fig 7b) --
//      quantified here with the two-sample Kolmogorov-Smirnov distance.
#pragma once

#include <cstdint>
#include <vector>

#include "core/replication.hpp"
#include "sanmodels/network_chains.hpp"
#include "stats/bimodal_fit.hpp"
#include "stats/ecdf.hpp"

namespace sanperf::core {

/// Shifts both components of a fit down by `delta_ms`, clamping at >= 0.
/// This is the paper's "t_network = end-to-end delay minus 2 t_send".
[[nodiscard]] stats::BimodalUniform shift_fit(const stats::BimodalUniform& fit, double delta_ms);

/// Assembles SAN transport parameters from the delay fits and a t_send.
[[nodiscard]] sanmodels::TransportParams make_transport(const stats::BimodalUniform& unicast_e2e,
                                                        const stats::BimodalUniform& broadcast_e2e,
                                                        double t_send_ms);

struct TsendCandidate {
  double t_send_ms = 0;
  double ks_distance = 0;  ///< simulated vs measured latency CDF (n = 5)
  double sim_mean_ms = 0;
  std::vector<double> sim_latencies_ms;  ///< the candidate's simulated sample
};

struct TsendSweep {
  std::vector<TsendCandidate> candidates;
  double best_t_send_ms = 0;
};

/// Folds per-candidate replication rewards (in replication order) into the
/// ranked sweep: KS distance against the measured CDF, first-wins best
/// selection. The shared fold of sweep_tsend and the fig7b scenario.
[[nodiscard]] TsendSweep fold_tsend_sweep(
    const std::vector<double>& candidates_ms,
    const std::vector<std::vector<std::optional<double>>>& rewards,
    const stats::Ecdf& measured_latency_n5);

/// The Fig 7b sweep: simulate class-1 latency for each t_send candidate and
/// rank them against the measured latency distribution. The whole
/// (candidate x replication) space fans out over `runner` as one flattened
/// ShardSpace batch; results are bit-identical for any thread count.
[[nodiscard]] TsendSweep sweep_tsend(const stats::Ecdf& measured_latency_n5,
                                     const stats::BimodalUniform& unicast_e2e,
                                     const stats::BimodalUniform& broadcast_e2e_n5,
                                     const std::vector<double>& candidates_ms,
                                     std::size_t replications, std::uint64_t seed,
                                     const ReplicationRunner& runner = default_runner());

}  // namespace sanperf::core
