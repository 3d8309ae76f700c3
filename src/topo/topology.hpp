// Declarative network topologies with failure domains.
//
// The paper's emulated testbed is a single shared hub -- every frame from
// every host serialises through one half-duplex medium. That is faithful
// for n <= 7 but cannot express anything production-shaped: racks behind
// top-of-rack switches, a spine joining them, per-link latency/bandwidth,
// or the correlated loss of a whole failure domain. A `Topology` describes
// the production shape declaratively (hosts -> racks -> ToR switches ->
// spine, each edge with its own LinkParams), round-trips through JSON with
// the ResultTable mini-parser, and compiles into a `RouteTable`: the
// per-host-pair sequence of links a frame occupies, which
// net::ContentionNetwork walks instead of the single hub.
//
// The rack tree doubles as the failure-domain tree (cortx-motr style):
// `hosts_in_rack(r)` is exactly the blast radius of killing rack r's power
// feed or partitioning its ToR switch, and faults::lower_plan expands
// domain-scoped fault events by walking it.
//
// Degeneracy contract: a topology with a single rack is semantically the
// legacy shared hub (every host hangs off one switch), and the network
// keeps using the hub code path for it -- bit-exact with every existing
// golden. Multi-rack topologies switch to routed delivery.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace sanperf::topo {

/// Same underlying type as net::HostId / runtime::HostId; spelled out so
/// this header stays dependency-free below core/net.
using HostId = std::uint32_t;

/// Per-edge service model. `service_scale` (finite, > 0) multiplies the
/// calibrated bimodal wire occupancy (a 0.5x uplink carries frames twice
/// as fast as the paper's medium); `latency_ms` (finite, >= 0) is a
/// non-exclusive propagation delay paid after the occupancy; `queue_limit`
/// bounds the frames waiting on the link (0 = unbounded, >0 drops overflow
/// like a shallow switch buffer).
struct LinkParams {
  double latency_ms = 0.0;
  double service_scale = 1.0;
  std::size_t queue_limit = 0;

  bool operator==(const LinkParams&) const = default;
};

/// One rack: its member hosts, the host<->ToR access edges (all hosts in a
/// rack share one access profile) and the ToR<->spine uplink edge.
struct Rack {
  std::vector<HostId> hosts;
  LinkParams access;
  LinkParams uplink;

  bool operator==(const Rack&) const = default;
};

class Topology {
 public:
  Topology() = default;
  /// Validates on construction: hosts 0..n-1 must appear exactly once
  /// across racks, every rack non-empty, every link profile in range (see
  /// LinkParams). Throws std::invalid_argument naming the rack and field.
  Topology(std::string name, std::vector<Rack> racks);

  /// The degenerate topology: one rack holding every host -- semantically
  /// the paper's shared hub, reproduced bit for bit by the network.
  [[nodiscard]] static Topology single_hub(std::size_t n);
  /// `n` hosts split contiguously over `racks` racks (first racks get the
  /// remainder), every rack sharing the given edge profiles.
  [[nodiscard]] static Topology uniform(std::size_t n, std::size_t racks,
                                        LinkParams access = {}, LinkParams uplink = {});

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] const std::vector<Rack>& racks() const { return racks_; }
  [[nodiscard]] std::size_t n_hosts() const { return rack_of_.size(); }
  /// True when routed delivery degenerates to the legacy single hub.
  [[nodiscard]] bool single_hub_equivalent() const { return racks_.size() <= 1; }

  /// Failure-domain tree walk: which rack holds `h`, and the blast radius
  /// of a rack-scoped fault (kill_rack / partition_switch / domain loss).
  [[nodiscard]] std::size_t rack_of(HostId h) const;
  [[nodiscard]] const std::vector<HostId>& hosts_in_rack(std::size_t rack) const;

  // JSON round-trip. Canonical form (every LinkParams field written with
  // %.17g) so to_json(from_json(to_json(t))) == to_json(t) bit for bit.
  [[nodiscard]] std::string to_json() const;
  [[nodiscard]] static Topology from_json(const std::string& text);

  bool operator==(const Topology& other) const {
    return name_ == other.name_ && racks_ == other.racks_;
  }

 private:
  std::string name_;
  std::vector<Rack> racks_;
  std::vector<std::uint32_t> rack_of_;  // derived: host -> rack index
};

/// The compiled routing view of a Topology: a dense per-ordered-pair table
/// of the links a frame occupies in order. Links are numbered access edges
/// first (link h = host h's access edge, h in [0, n)), then uplinks (link
/// n + r = rack r's uplink). Same-rack routes take 2 hops (src access, dst
/// access); cross-rack routes take 4 (src access, src uplink, dst uplink,
/// dst access) -- the spine itself is modelled as non-blocking.
class RouteTable {
 public:
  static constexpr std::uint32_t kMaxHops = 4;

  enum class LinkType : std::uint8_t { kAccess, kUplink };

  struct Link {
    LinkType type = LinkType::kAccess;
    std::uint32_t owner = 0;  ///< host id (access) or rack index (uplink)
    LinkParams params;
  };

  struct Route {
    std::array<std::uint32_t, kMaxHops> links{};
    std::uint32_t hops = 0;
  };

  explicit RouteTable(const Topology& topo);

  [[nodiscard]] std::size_t n_hosts() const { return n_; }
  [[nodiscard]] std::size_t link_count() const { return links_.size(); }
  [[nodiscard]] const Link& link(std::size_t index) const { return links_.at(index); }
  /// "access:3" / "uplink:1" -- stable names for audits and test output.
  [[nodiscard]] std::string link_name(std::size_t index) const;
  [[nodiscard]] const Route& route(HostId src, HostId dst) const {
    return routes_.at(static_cast<std::size_t>(src) * n_ + dst);
  }
  [[nodiscard]] bool crosses_racks(HostId src, HostId dst) const {
    return route(src, dst).hops == kMaxHops;
  }

 private:
  std::size_t n_ = 0;
  std::vector<Link> links_;
  std::vector<Route> routes_;  // dense n*n, src-major
};

}  // namespace sanperf::topo
