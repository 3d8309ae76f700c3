// Group membership as an epoch history.
//
// The paper's cluster is a fixed set of n hosts; a production-shaped stream
// must grow, shrink and roll-restart the group while instances are in
// flight. The cluster owns one MembershipView, an append-only history of
// member sets, one per epoch. Epoch 0 is the starting group (every host
// unless a workload names a subset), so the paper's fixed group is a
// one-epoch view: member k is host k and the majority is n/2+1. The
// workload engine advances the view through runtime::Cluster at the
// instant a membership-change instance decides (the change is itself
// agreed in-stream, joint-consensus style, so every host observes the same
// epoch sequence at the same simulated instants).
//
// Consensus instances capture the epoch current at their launch and keep
// using that epoch's member set for coordinator rotation, majority size and
// broadcast fan-out until they decide -- two instances straddling a change
// may legitimately run under different member sets, but no single instance
// ever changes quorum size mid-flight (the 3 -> 5 growth hazard: an
// in-flight majority of 2 must not silently become 3). Messages carry the
// instance's epoch (Message::view_epoch) so late joiners adopt it.
#pragma once

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace sanperf::runtime {

/// Same underlying type as HostId (kept dependency-free: the view needs
/// nothing of the network).
using MemberId = std::uint32_t;

/// True when a (normalized: sorted, duplicate-free) member set is exactly
/// every host 0..n-1 -- the case where a member-wise fan-out is identical
/// to Process::broadcast and can take the pooled single-frame path.
[[nodiscard]] inline bool covers_all_hosts(const std::vector<MemberId>& members, std::size_t n) {
  return members.size() == n && members.front() == 0 &&
         members.back() == static_cast<MemberId>(n - 1);
}

class MembershipView {
 public:
  using Epoch = std::uint32_t;

  explicit MembershipView(std::vector<MemberId> members) {
    normalize(members, "initial");
    history_.push_back(std::move(members));
  }

  [[nodiscard]] Epoch epoch() const { return static_cast<Epoch>(history_.size() - 1); }
  [[nodiscard]] const std::vector<MemberId>& members() const { return history_.back(); }
  /// The member set of a specific epoch; every epoch ever installed stays
  /// addressable (in-flight instances keep resolving their launch epoch).
  [[nodiscard]] const std::vector<MemberId>& members_at(Epoch epoch) const {
    if (epoch >= history_.size()) {
      throw std::out_of_range{"MembershipView: epoch from the future"};
    }
    return history_[epoch];
  }
  [[nodiscard]] bool is_member(MemberId host) const { return contains(members(), host); }
  [[nodiscard]] bool is_member_at(Epoch epoch, MemberId host) const {
    return contains(members_at(epoch), host);
  }

  /// Installs the next epoch with `host` added / removed and returns it.
  /// Cluster::add_member / remove_member call these and then tell every
  /// host's layers.
  Epoch add(MemberId host) {
    std::vector<MemberId> next = members();
    if (contains(next, host)) throw std::invalid_argument{"MembershipView: already a member"};
    next.push_back(host);
    return install(std::move(next));
  }
  Epoch remove(MemberId host) {
    std::vector<MemberId> next = members();
    const auto it = std::find(next.begin(), next.end(), host);
    if (it == next.end()) throw std::invalid_argument{"MembershipView: not a member"};
    next.erase(it);
    if (next.empty()) throw std::invalid_argument{"MembershipView: cannot empty the group"};
    return install(std::move(next));
  }

 private:
  static bool contains(const std::vector<MemberId>& members, MemberId host) {
    return std::binary_search(members.begin(), members.end(), host);
  }

  static void normalize(std::vector<MemberId>& members, const char* what) {
    if (members.empty()) {
      throw std::invalid_argument{std::string{"MembershipView: empty "} + what + " member set"};
    }
    std::sort(members.begin(), members.end());
    if (std::adjacent_find(members.begin(), members.end()) != members.end()) {
      throw std::invalid_argument{std::string{"MembershipView: duplicate "} + what + " member"};
    }
  }

  Epoch install(std::vector<MemberId> next) {
    normalize(next, "next-epoch");
    history_.push_back(std::move(next));
    return epoch();
  }

  std::vector<std::vector<MemberId>> history_;  ///< index = epoch
};

}  // namespace sanperf::runtime
