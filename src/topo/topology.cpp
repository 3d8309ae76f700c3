#include "topo/topology.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

#include "core/json.hpp"

namespace sanperf::topo {

namespace {

[[noreturn]] void bad_topology(const std::string& what) {
  throw std::invalid_argument{"Topology: " + what};
}

/// A link must delay by a finite non-negative latency and occupy by a
/// finite positive scale: a negative latency would silently run as none,
/// a zero scale makes occupancy free and a negative one schedules into
/// the past.
void check_link(const LinkParams& link, std::size_t rack, const char* edge) {
  const char* problem = nullptr;
  if (!(std::isfinite(link.latency_ms) && link.latency_ms >= 0)) {
    problem = "latency_ms must be finite and >= 0";
  } else if (!(std::isfinite(link.service_scale) && link.service_scale > 0)) {
    problem = "service_scale must be finite and > 0";
  }
  if (problem != nullptr) {
    bad_topology("rack " + std::to_string(rack) + " " + edge + "." + problem);
  }
}

}  // namespace

Topology::Topology(std::string name, std::vector<Rack> racks)
    : name_{std::move(name)}, racks_{std::move(racks)} {
  if (racks_.empty()) bad_topology("no racks");
  std::size_t n = 0;
  for (std::size_t r = 0; r < racks_.size(); ++r) {
    if (racks_[r].hosts.empty()) bad_topology("empty rack");
    check_link(racks_[r].access, r, "access");
    check_link(racks_[r].uplink, r, "uplink");
    n += racks_[r].hosts.size();
  }
  rack_of_.assign(n, 0);
  std::vector<char> seen(n, 0);
  for (std::size_t r = 0; r < racks_.size(); ++r) {
    for (const HostId h : racks_[r].hosts) {
      if (h >= n) bad_topology("host " + std::to_string(h) + " out of range for " +
                               std::to_string(n) + " hosts");
      if (seen[h]) bad_topology("host " + std::to_string(h) + " appears twice");
      seen[h] = 1;
      rack_of_[h] = static_cast<std::uint32_t>(r);
    }
  }
}

Topology Topology::single_hub(std::size_t n) { return uniform(n, 1); }

Topology Topology::uniform(std::size_t n, std::size_t racks, LinkParams access,
                           LinkParams uplink) {
  if (n == 0) bad_topology("uniform: n == 0");
  if (racks == 0 || racks > n) bad_topology("uniform: need 1 <= racks <= n");
  std::vector<Rack> built(racks);
  const std::size_t base = n / racks;
  const std::size_t extra = n % racks;
  HostId next = 0;
  for (std::size_t r = 0; r < racks; ++r) {
    const std::size_t size = base + (r < extra ? 1 : 0);
    built[r].access = access;
    built[r].uplink = uplink;
    built[r].hosts.reserve(size);
    for (std::size_t i = 0; i < size; ++i) built[r].hosts.push_back(next++);
  }
  std::ostringstream name;
  name << "uniform-" << n << "x" << racks;
  return Topology{name.str(), std::move(built)};
}

std::size_t Topology::rack_of(HostId h) const {
  if (h >= rack_of_.size()) bad_topology("rack_of: host out of range");
  return rack_of_[h];
}

const std::vector<HostId>& Topology::hosts_in_rack(std::size_t rack) const {
  if (rack >= racks_.size()) bad_topology("hosts_in_rack: rack out of range");
  return racks_[rack].hosts;
}

// --- JSON --------------------------------------------------------------------

namespace {

void write_link(std::ostringstream& os, const LinkParams& link) {
  os << "{\"latency_ms\":" << core::detail::json_exact(link.latency_ms)
     << ",\"service_scale\":" << core::detail::json_exact(link.service_scale)
     << ",\"queue_limit\":" << link.queue_limit << '}';
}

LinkParams read_link(const core::detail::JsonParser::JsonValue& value, std::size_t rack,
                     const char* edge) {
  using core::detail::JsonParser;
  const std::string where =
      "Topology::from_json: rack " + std::to_string(rack) + " " + edge + ".";
  const auto number = [&where](const JsonParser::JsonValue* v, const char* field,
                               double fallback) {
    if (v == nullptr) return fallback;
    if (!v->number) throw std::invalid_argument{where + field + ": expected a number"};
    return *v->number;
  };
  LinkParams link;
  link.latency_ms = number(JsonParser::field(value, "latency_ms"), "latency_ms", 0.0);
  link.service_scale = number(JsonParser::field(value, "service_scale"), "service_scale", 1.0);
  const double limit = number(JsonParser::field(value, "queue_limit"), "queue_limit", 0.0);
  // 2^53: every integer below it is exact in a double and fits size_t.
  if (!(limit >= 0 && limit <= 9007199254740992.0 && std::floor(limit) == limit)) {
    throw std::invalid_argument{where + "queue_limit must be an integer >= 0"};
  }
  link.queue_limit = static_cast<std::size_t>(limit);
  return link;
}

}  // namespace

std::string Topology::to_json() const {
  std::ostringstream os;
  os << "{\"name\":";
  core::detail::write_json_string(os, name_);
  os << ",\"racks\":[";
  for (std::size_t r = 0; r < racks_.size(); ++r) {
    const Rack& rack = racks_[r];
    os << (r == 0 ? "" : ",") << "{\"hosts\":[";
    for (std::size_t i = 0; i < rack.hosts.size(); ++i) {
      os << (i == 0 ? "" : ",") << rack.hosts[i];
    }
    os << "],\"access\":";
    write_link(os, rack.access);
    os << ",\"uplink\":";
    write_link(os, rack.uplink);
    os << '}';
  }
  os << "]}";
  return os.str();
}

Topology Topology::from_json(const std::string& text) {
  using core::detail::JsonParser;
  const auto root = JsonParser{text, "Topology::from_json"}.parse();
  const auto* name = JsonParser::field(root, "name");
  if (name == nullptr || !name->string) {
    throw std::invalid_argument{"Topology::from_json: missing \"name\""};
  }
  const auto* racks = JsonParser::field(root, "racks");
  if (racks == nullptr || !racks->array) {
    throw std::invalid_argument{"Topology::from_json: missing \"racks\" array"};
  }
  std::vector<Rack> built;
  for (const auto& rv : racks->array.value()) {
    const std::size_t r = built.size();
    Rack rack;
    const auto* hosts = JsonParser::field(rv, "hosts");
    if (hosts == nullptr || !hosts->array) {
      throw std::invalid_argument{"Topology::from_json: rack without a \"hosts\" array"};
    }
    for (const auto& h : *hosts->array) {
      if (!h.number || !(*h.number >= 0 && *h.number <= 4294967295.0) ||
          std::floor(*h.number) != *h.number) {
        throw std::invalid_argument{"Topology::from_json: bad host id"};
      }
      rack.hosts.push_back(static_cast<HostId>(*h.number));
    }
    if (const auto* access = JsonParser::field(rv, "access")) {
      rack.access = read_link(*access, r, "access");
    }
    if (const auto* uplink = JsonParser::field(rv, "uplink")) {
      rack.uplink = read_link(*uplink, r, "uplink");
    }
    built.push_back(std::move(rack));
  }
  return Topology{*name->string, std::move(built)};
}

// --- RouteTable --------------------------------------------------------------

RouteTable::RouteTable(const Topology& topo) : n_{topo.n_hosts()} {
  if (n_ == 0) throw std::invalid_argument{"RouteTable: empty topology"};
  links_.reserve(n_ + topo.racks().size());
  for (HostId h = 0; h < static_cast<HostId>(n_); ++h) {
    links_.push_back({LinkType::kAccess, h, topo.racks()[topo.rack_of(h)].access});
  }
  const std::uint32_t uplink_base = static_cast<std::uint32_t>(n_);
  for (std::size_t r = 0; r < topo.racks().size(); ++r) {
    links_.push_back({LinkType::kUplink, static_cast<std::uint32_t>(r), topo.racks()[r].uplink});
  }
  routes_.resize(n_ * n_);
  for (HostId src = 0; src < static_cast<HostId>(n_); ++src) {
    for (HostId dst = 0; dst < static_cast<HostId>(n_); ++dst) {
      if (src == dst) continue;  // unused: the network rejects self-sends
      Route& route = routes_[static_cast<std::size_t>(src) * n_ + dst];
      const auto src_rack = static_cast<std::uint32_t>(topo.rack_of(src));
      const auto dst_rack = static_cast<std::uint32_t>(topo.rack_of(dst));
      if (src_rack == dst_rack) {
        route.links = {src, dst, 0, 0};
        route.hops = 2;
      } else {
        route.links = {src, uplink_base + src_rack, uplink_base + dst_rack, dst};
        route.hops = kMaxHops;
      }
    }
  }
}

std::string RouteTable::link_name(std::size_t index) const {
  const Link& l = link(index);
  return (l.type == LinkType::kAccess ? "access:" : "uplink:") + std::to_string(l.owner);
}

}  // namespace sanperf::topo
