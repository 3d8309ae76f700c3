#include "runtime/process.hpp"

#include <stdexcept>
#include <string>
#include <utility>

namespace sanperf::runtime {

Process::Process(HostId id, std::size_t n, des::Simulator& sim, net::ContentionNetwork& net,
                 const MembershipView& view, des::RandomEngine rng, net::TimerModel timers)
    : id_{id}, n_{n}, sim_{&sim}, net_{&net}, view_{&view}, rng_{rng}, timers_{timers} {}

void Process::send(Message m, HostId dst) {
  if (crashed_) return;
  if (dst == id_) throw std::invalid_argument{"Process::send: self-send goes through the layer"};
  m.from = id_;
  m.to = dst;
  m.incarnation = static_cast<std::uint32_t>(epoch_);
  m.sent_at = sim_->now();
  ++sent_;
  const auto cls = m.kind == MsgKind::kHeartbeat ? net::ContentionNetwork::FrameClass::kSmall
                                                 : net::ContentionNetwork::FrameClass::kProtocol;
  net_->send(id_, dst, std::move(m), cls);
}

void Process::broadcast(Message m) {
  if (crashed_) return;
  // One shared-body frame for all n-1 receivers (ascending host id, as the
  // per-receiver send loop did). `to` stays 0: no consumer reads it.
  m.from = id_;
  m.incarnation = static_cast<std::uint32_t>(epoch_);
  m.sent_at = sim_->now();
  sent_ += n_ - 1;
  const auto cls = m.kind == MsgKind::kHeartbeat ? net::ContentionNetwork::FrameClass::kSmall
                                                 : net::ContentionNetwork::FrameClass::kProtocol;
  net_->broadcast(id_, std::move(m), cls);
}

void Process::broadcast_in(MembershipView::Epoch epoch, Message m) {
  const std::vector<MemberId>& members = view_->members_at(epoch);
  if (covers_all_hosts(members, n_)) {
    broadcast(std::move(m));
    return;
  }
  for (const MemberId peer : members) {
    if (peer != id_) send(m, peer);
  }
}

des::TimePoint Process::os_timer_expiry(des::Duration delay) {
  return net::quantize_timer(timers_, sim_->now() + delay, rng_);
}

#if SANPERF_AUDIT_ENABLED
TimerId Process::audit_arm_unguarded_timer(des::Duration delay, std::function<void()> fn) {
  return sim_->schedule(delay, [this, epoch = epoch_, fn = std::move(fn)] {
    SANPERF_AUDIT_CHECK("runtime.timer_epoch_guard", !crashed_ && epoch == epoch_,
                        "pre-crash timer fired on host " + std::to_string(id_) +
                            " (armed epoch " + std::to_string(epoch) + ", now " +
                            std::to_string(epoch_) + (crashed_ ? ", crashed)" : ")"));
    fn();
  });
}
#endif

void Process::crash() {
  if (crashed_) return;
  crashed_ = true;
  ++epoch_;  // kill every armed timer, across any future restart
  net_->host_down(id_);
  for (auto& l : layers_) l->on_crash();
}

void Process::restart() {
  if (!crashed_) return;
  crashed_ = false;
  net_->host_restart(id_);
  for (auto& l : layers_) l->on_restart();
}

void Process::deliver(const Message& m) {
  if (crashed_) return;
  ++received_;
  for (auto& l : layers_) {
    l->on_message(m);
    if (crashed_) return;  // a layer may crash the process mid-delivery
  }
}

void Process::start() {
  for (auto& l : layers_) {
    if (!crashed_) l->on_start();
  }
}

void Process::view_changed(MembershipView::Epoch epoch) {
  for (auto& l : layers_) l->on_view_change(epoch);
}

}  // namespace sanperf::runtime
