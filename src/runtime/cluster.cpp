#include "runtime/cluster.hpp"

#include <stdexcept>
#include <string>
#include <utility>

namespace sanperf::runtime {
namespace {

HostId checked_member(HostId host, std::size_t n) {
  if (host >= n) {
    throw std::invalid_argument{"Cluster: member " + std::to_string(host) +
                                " out of range for n = " + std::to_string(n)};
  }
  return host;
}

std::vector<HostId> starting_members(std::vector<HostId> members, std::size_t n) {
  if (members.empty()) {
    for (std::size_t h = 0; h < n; ++h) members.push_back(static_cast<HostId>(h));
  }
  for (const HostId h : members) checked_member(h, n);
  return members;
}

}  // namespace

Cluster::Cluster(const ClusterConfig& cfg, std::vector<HostId> members)
    : cfg_{cfg},
      master_{cfg.seed},
      net_{sim_, master_.substream("net"), cfg.network, cfg.n, cfg.topology.get()},
      view_{starting_members(std::move(members), cfg.n)} {
  if (cfg.n < 2) throw std::invalid_argument{"Cluster: need at least 2 processes"};
  processes_.reserve(cfg.n);
  for (std::size_t i = 0; i < cfg.n; ++i) {
    processes_.push_back(std::make_unique<Process>(static_cast<HostId>(i), cfg.n, sim_, net_,
                                                   view_, master_.substream("proc", i),
                                                   cfg.timers));
  }
  net_.set_deliver([this](const net::Packet& pkt) {
    const auto& msg = pkt.body->get<Message>();
    processes_[pkt.dst]->deliver(msg);
  });
}

void Cluster::crash_initially(HostId id) { processes_.at(id)->crash(); }

void Cluster::crash_at(HostId id, des::TimePoint at) {
  sim_.schedule_at(at, [this, id] { processes_.at(id)->crash(); });
}

void Cluster::recover_at(HostId id, des::TimePoint at) {
  sim_.schedule_at(at, [this, id] { processes_.at(id)->restart(); });
}

MembershipView::Epoch Cluster::add_member(HostId host) {
  return announce(view_.add(checked_member(host, n())));
}

MembershipView::Epoch Cluster::remove_member(HostId host) {
  return announce(view_.remove(checked_member(host, n())));
}

MembershipView::Epoch Cluster::announce(MembershipView::Epoch epoch) {
  for (auto& p : processes_) p->view_changed(epoch);
  return epoch;
}

void Cluster::start_processes() {
  if (started_) return;
  started_ = true;
  for (auto& p : processes_) p->start();
}

void Cluster::run_until(des::TimePoint deadline) {
  start_processes();
  sim_.run_until(deadline);
  SANPERF_AUDIT_ONLY(net_.audit_check_frame_conservation(sim_.queue_empty());)
}

des::RandomEngine Cluster::rng_stream(std::string_view label, std::uint64_t index) const {
  return master_.substream(label, index);
}

}  // namespace sanperf::runtime
