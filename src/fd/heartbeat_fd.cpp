#include "fd/heartbeat_fd.hpp"

#include <stdexcept>

namespace sanperf::fd {

HeartbeatFd::HeartbeatFd(HeartbeatFdParams params) : params_{params} {
  if (params_.timeout <= des::Duration::zero()) {
    throw std::invalid_argument{"HeartbeatFd: timeout must be > 0"};
  }
  if (params_.heartbeat_period <= des::Duration::zero()) {
    throw std::invalid_argument{"HeartbeatFd: heartbeat period must be > 0"};
  }
}

void HeartbeatFd::on_start() {
  const std::size_t n = process().n();
  suspected_.assign(n, 0);
  last_msg_.assign(n, process().now());
  history_.assign(n, PairHistory{});
  known_incarnation_.assign(n, 0);
  for (HostId peer = 0; peer < static_cast<HostId>(n); ++peer) {
    if (peer == process().id()) continue;
    arm_check(peer, process().now() + params_.timeout);
  }
  send_heartbeat_round();
}

void HeartbeatFd::send_heartbeat_round() {
  if (stopped_) return;
  runtime::Message hb;
  hb.kind = runtime::MsgKind::kHeartbeat;
  // Only current members monitor this host; heartbeating a non-member would
  // wake a removed (crashed) process for nothing.
  process().broadcast_in(process().membership().epoch(), hb);
  ++heartbeats_sent_;
  // Thread-style sleep: subject to tick quantisation and stalls.
  process().set_os_timer(params_.heartbeat_period, [this] { send_heartbeat_round(); });
}

void HeartbeatFd::arm_check(HostId peer, des::TimePoint nominal) {
  const des::Duration delay =
      nominal > process().now() ? nominal - process().now() : des::Duration::zero();
  process().set_os_timer(delay, [this, peer] { check_timeout(peer); });
}

void HeartbeatFd::check_timeout(HostId peer) {
  if (stopped_) return;
  const des::TimePoint now = process().now();
  if (!process().membership().is_member(peer)) {
    // Not (or no longer) a member: its silence means nothing. Keep the
    // wake-up alive -- the peer may join later, and on_view_change resets
    // its reception clock at that instant.
    last_msg_[peer] = now;
    arm_check(peer, now + params_.timeout);
    return;
  }
  if (!suspected_[peer] && now - last_msg_[peer] >= params_.timeout) {
    suspected_[peer] = 1;
    history_[peer].record(now, /*to_suspect=*/true);
    notify(peer, true);
  }
  // One outstanding wake-up per peer: while trusting, sleep until the
  // current timeout deadline; while suspecting, poll every T (the suspicion
  // itself only clears on a reception, which is event-driven).
  arm_check(peer, suspected_[peer] ? now + params_.timeout : last_msg_[peer] + params_.timeout);
}

void HeartbeatFd::on_message(const runtime::Message& m) {
  if (stopped_) return;
  const HostId peer = m.from;
  if (peer == process().id()) return;
  if (m.incarnation > known_incarnation_[peer]) {
    // The peer crashed and warm-restarted since its last message. If the
    // downtime beat the timeout, the crash was never suspected: surface it
    // as an instantaneous suspect->trust blip so layers above re-evaluate
    // the peer (it lost its volatile state even though it looks alive).
    // The trust half is restored by the common path below.
    known_incarnation_[peer] = m.incarnation;
    if (!suspected_[peer]) {
      suspected_[peer] = 1;
      history_[peer].record(process().now(), /*to_suspect=*/true);
      notify(peer, true);
    }
  }
  // Any message from `peer` counts (heartbeat or application message).
  last_msg_[peer] = process().now();
  if (suspected_[peer]) {
    suspected_[peer] = 0;
    history_[peer].record(process().now(), /*to_suspect=*/false);
    notify(peer, false);
  }
}

void HeartbeatFd::on_crash() { stopped_ = true; }

void HeartbeatFd::on_restart() {
  stopped_ = false;
  const std::size_t n = process().n();
  const des::TimePoint now = process().now();
  // A host crashed before the cluster started never ran on_start: initialise
  // from scratch. Otherwise keep the histories (QoS estimation spans the
  // whole experiment) but reset the volatile monitoring state.
  if (suspected_.size() != n) suspected_.assign(n, 0);
  if (history_.size() != n) history_.assign(n, PairHistory{});
  if (known_incarnation_.size() != n) known_incarnation_.assign(n, 0);
  last_msg_.assign(n, now);
  for (HostId peer = 0; peer < static_cast<HostId>(n); ++peer) {
    if (peer == process().id()) continue;
    if (suspected_[peer]) {
      // The restarted monitor trusts everyone afresh; record the transition
      // so the history keeps alternating (and QoS sees the suspicion end).
      suspected_[peer] = 0;
      history_[peer].record(now, /*to_suspect=*/false);
      notify(peer, false);
    }
    arm_check(peer, now + params_.timeout);
  }
  send_heartbeat_round();
}

bool HeartbeatFd::is_suspected(HostId peer) const {
  return peer < suspected_.size() && suspected_[peer] != 0;
}

void HeartbeatFd::notify(HostId peer, bool suspected) {
  for (const auto& l : listeners_) l(peer, suspected);
}

void HeartbeatFd::on_view_change(runtime::MembershipView::Epoch epoch) {
  // Crashed monitors (and ones whose host never started) re-derive
  // everything on restart.
  if (stopped_ || epoch == 0 || last_msg_.size() != process().n()) return;
  const des::TimePoint now = process().now();
  const runtime::MembershipView& view = process().membership();
  for (const HostId peer : view.members_at(epoch)) {
    if (peer == process().id() || view.is_member_at(epoch - 1, peer)) continue;
    // Newly added member: start trusted with a fresh reception clock (its
    // pre-join silence must not fire an instant suspicion).
    last_msg_[peer] = now;
    if (suspected_[peer]) {
      suspected_[peer] = 0;
      history_[peer].record(now, /*to_suspect=*/false);
      notify(peer, false);
    }
  }
  for (const HostId peer : view.members_at(epoch - 1)) {
    if (peer == process().id() || view.is_member_at(epoch, peer)) continue;
    if (suspected_[peer]) {
      // Removed member: the suspicion is moot; retire it so the history
      // keeps alternating.
      suspected_[peer] = 0;
      history_[peer].record(now, /*to_suspect=*/false);
      notify(peer, false);
    }
  }
}

}  // namespace sanperf::fd
