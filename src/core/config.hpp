// Experiment configuration: the paper's parameter space plus sample-size
// presets so every bench can run quickly by default and at paper scale
// on demand (environment variable SANPERF_SCALE=quick|default|full).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace sanperf::core {

struct Scale {
  std::size_t delay_probes = 2000;        ///< Fig 6 end-to-end delay samples
  std::size_t class1_executions = 1000;   ///< Fig 7a / Table 1 (paper: 5000)
  std::size_t sim_replications = 1000;    ///< SAN transient replications
  std::size_t class3_runs = 5;            ///< QoS runs per setting (paper: 20)
  std::size_t class3_executions = 200;    ///< consensus per run (paper: 1000)
  std::vector<std::size_t> ns = {3, 5, 7, 9, 11};
  std::vector<std::size_t> sim_ns = {3, 5};  ///< the paper simulates n = 3, 5
  std::vector<double> timeouts_ms = {1, 2, 3, 5, 7, 10, 15, 20, 30, 40, 70, 100};

  // Steady-state workload-engine knobs (core/workload.hpp).
  std::size_t workload_warmup = 50;      ///< stream instances truncated as warm-up
  std::size_t workload_instances = 400;  ///< measured instances per stream
  /// Open-loop offered-load grid (instances/s); spans past the n = 5
  /// saturation knee so the load-latency sweep shows the blow-up.
  std::vector<double> offered_loads_per_s = {100, 200, 400, 600, 800, 1100};
  /// Closed-loop client-count grid.
  std::vector<std::size_t> client_counts = {1, 2, 4, 8, 16};
  /// Batch-size grid for the batch_throughput_sweep (values per instance).
  std::vector<std::size_t> batch_sizes = {1, 2, 4, 8, 16, 32};
  /// Max-linger deadline paired with the batch sweep; large enough that
  /// big batches actually fill at the offered rate, small enough to bound
  /// per-value queueing delay.
  double batch_linger_ms = 10.0;
  /// Offered *value* rate for the batch sweep -- far past the unbatched
  /// instance-rate knee (~376 inst/s at n = 5), so only batching can keep
  /// up.
  double batch_offered_values_per_s = 2500.0;

  [[nodiscard]] static Scale quick();
  [[nodiscard]] static Scale defaults();
  [[nodiscard]] static Scale full();  ///< the paper's sample sizes

  /// The preset named `name`: quick, default or full. Throws
  /// std::invalid_argument for any other name.
  [[nodiscard]] static Scale from_name(std::string_view name);

  /// The preset named by SANPERF_SCALE (see from_name); unset or empty
  /// means `defaults()`.
  [[nodiscard]] static Scale from_env();
  [[nodiscard]] std::string name() const { return name_; }

 private:
  std::string name_ = "default";
};

/// Consensus algorithms available for comparative studies (the paper's
/// Section 6: "we will analyze alternative protocols and compare").
enum class Algorithm {
  kChandraToueg,      ///< the paper's algorithm
  kMostefaouiRaynal,  ///< the natural <>S comparator
};

[[nodiscard]] const char* to_string(Algorithm algorithm);

/// Paper constants.
inline constexpr double kTsendMs = 0.025;                    // Section 5.2
inline constexpr double kHeartbeatFactor = 0.7;              // Th = 0.7 T
inline constexpr std::uint64_t kDefaultSeed = 20020612;      // DSN 2002

}  // namespace sanperf::core
