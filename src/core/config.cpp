#include "core/config.hpp"

#include <cstdlib>
#include <stdexcept>

namespace sanperf::core {

Scale Scale::quick() {
  Scale s;
  s.delay_probes = 400;
  s.class1_executions = 150;
  s.sim_replications = 150;
  s.class3_runs = 2;
  s.class3_executions = 50;
  s.ns = {3, 5, 7};
  s.timeouts_ms = {1, 5, 10, 20, 40, 100};
  s.workload_warmup = 15;
  s.workload_instances = 120;
  s.offered_loads_per_s = {100, 300, 600, 900};
  s.client_counts = {1, 4, 16};
  s.batch_sizes = {1, 4, 16, 32};
  s.name_ = "quick";
  return s;
}

Scale Scale::defaults() {
  Scale s;
  s.name_ = "default";
  return s;
}

Scale Scale::full() {
  Scale s;
  s.delay_probes = 10000;
  s.class1_executions = 5000;
  s.sim_replications = 5000;
  s.class3_runs = 20;
  s.class3_executions = 1000;
  s.workload_warmup = 200;
  s.workload_instances = 2000;
  s.offered_loads_per_s = {50, 100, 200, 300, 400, 600, 800, 1000, 1200, 1500};
  s.client_counts = {1, 2, 4, 8, 16, 32};
  s.batch_sizes = {1, 2, 4, 8, 16, 32, 64};
  s.batch_offered_values_per_s = 4000.0;
  s.name_ = "full";
  return s;
}

const char* to_string(Algorithm algorithm) {
  switch (algorithm) {
    case Algorithm::kChandraToueg: return "Chandra-Toueg";
    case Algorithm::kMostefaouiRaynal: return "Mostefaoui-Raynal";
  }
  return "?";
}

Scale Scale::from_name(std::string_view name) {
  if (name == "quick") return quick();
  if (name == "default") return defaults();
  if (name == "full") return full();
  throw std::invalid_argument{"unknown scale '" + std::string{name} + "' (quick|default|full)"};
}

Scale Scale::from_env() {
  const char* env = std::getenv("SANPERF_SCALE");
  if (env == nullptr || *env == '\0') return defaults();
  try {
    return from_name(env);
  } catch (const std::invalid_argument& e) {
    throw std::invalid_argument{std::string{"SANPERF_SCALE: "} + e.what()};
  }
}

}  // namespace sanperf::core
