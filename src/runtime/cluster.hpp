// The emulated cluster: a simulator, a contention network, n processes and
// the group's one membership view (runtime/membership.hpp). Every layer
// reads the view through its Process; the paper's fixed group is the view's
// first and only epoch.
#pragma once

#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "core/audit.hpp"
#include "des/random.hpp"
#include "des/simulator.hpp"
#include "net/network.hpp"
#include "runtime/membership.hpp"
#include "runtime/process.hpp"
#include "topo/topology.hpp"

namespace sanperf::runtime {

struct ClusterConfig {
  std::size_t n = 3;
  net::NetworkParams network = net::NetworkParams::defaults();
  net::TimerModel timers = net::TimerModel::defaults();
  /// Optional network topology (shared so config copies stay cheap). Null
  /// or single-rack = the paper's shared hub; multi-rack routes frames
  /// over access edges and rack uplinks and scopes domain fault events
  /// (see faults::lower_plan).
  std::shared_ptr<const topo::Topology> topology;
  std::uint64_t seed = 1;
};

class Cluster {
 public:
  /// Epoch 0 of the membership view is `members`, or every host when it is
  /// empty. Throws std::invalid_argument on a member outside 0..n-1.
  explicit Cluster(const ClusterConfig& cfg, std::vector<HostId> members = {});

  [[nodiscard]] std::size_t n() const { return processes_.size(); }
  [[nodiscard]] Process& process(HostId id) { return *processes_.at(id); }
  [[nodiscard]] const Process& process(HostId id) const { return *processes_.at(id); }
  [[nodiscard]] des::Simulator& sim() { return sim_; }
  [[nodiscard]] net::ContentionNetwork& network() { return net_; }
  [[nodiscard]] des::TimePoint now() const { return sim_.now(); }
  [[nodiscard]] const ClusterConfig& config() const { return cfg_; }
  [[nodiscard]] const MembershipView& membership() const { return view_; }

  /// Installs the next membership epoch with `host` added / removed, then
  /// runs every host's Layer::on_view_change in host-id order, started,
  /// crashed or not. Returns the new epoch.
  MembershipView::Epoch add_member(HostId host);
  MembershipView::Epoch remove_member(HostId host);

  /// Crashes a process before the simulation starts.
  void crash_initially(HostId id);
  /// Schedules a crash at an absolute simulated time.
  void crash_at(HostId id, des::TimePoint at);
  /// Schedules a warm restart of a crashed process (see Process::restart).
  void recover_at(HostId id, des::TimePoint at);

  /// Calls every process's on_start layers (idempotent) and runs events
  /// until `deadline` or queue exhaustion; the clock ends at `deadline`.
  void run_until(des::TimePoint deadline);
  /// Same, but also stops as soon as `stop()` holds, checked before each
  /// event. Runs no event later than `deadline` and leaves the clock at
  /// the last event run.
  template <typename Stop>
  void run_until(Stop&& stop, des::TimePoint deadline) {
    start_processes();
    while (!stop() && !sim_.queue_empty() && sim_.next_time() <= deadline) sim_.step();
    SANPERF_AUDIT_ONLY(net_.audit_check_frame_conservation(sim_.queue_empty());)
  }

  /// Derives a fresh RNG substream tied to this cluster's seed.
  [[nodiscard]] des::RandomEngine rng_stream(std::string_view label, std::uint64_t index = 0) const;

 private:
  void start_processes();
  MembershipView::Epoch announce(MembershipView::Epoch epoch);

  ClusterConfig cfg_;
  des::Simulator sim_;
  des::RandomEngine master_;
  net::ContentionNetwork net_;
  MembershipView view_;
  std::vector<std::unique_ptr<Process>> processes_;
  bool started_ = false;
};

}  // namespace sanperf::runtime
