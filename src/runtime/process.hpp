// A process with a stack of protocol layers (Neko-style).
//
// Layers receive every incoming message bottom-up and may send messages,
// set timers and crash the process. The failure-detector layer sits below
// the consensus layer so that it observes all traffic ("the reception of
// any message from q resets the timer", Section 2.2).
//
// Timers are templates over the callable: set_timer and set_os_timer build
// one event closure that holds the epoch guard and the callable itself, so
// a timer firing makes one indirect call, and the callable, which may be
// move-only, must fit that closure's 64-byte buffer next to the guard's 16
// bytes (see des::EventAction).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "core/audit.hpp"
#include "des/random.hpp"
#include "des/simulator.hpp"
#include "net/jitter.hpp"
#include "runtime/membership.hpp"
#include "runtime/message.hpp"

namespace sanperf::runtime {

class Process;

class Layer {
 public:
  virtual ~Layer() = default;

  /// Called once when the cluster starts (before any event runs).
  virtual void on_start() {}
  /// Called for every message delivered to the process, bottom-up.
  virtual void on_message(const Message& m) = 0;
  /// Called when the hosting process crashes.
  virtual void on_crash() {}
  /// Called on a warm restart after a crash (fault injection). The default
  /// keeps the layer's state untouched; layers holding volatile protocol
  /// state or running timer loops override it to re-initialise -- all
  /// timers armed before the crash are dead by then (see Process::crash).
  virtual void on_restart() {}
  /// Called when the cluster installs membership epoch `epoch`, on every
  /// host in host-id order, whether it has started or crashed.
  virtual void on_view_change(MembershipView::Epoch /*epoch*/) {}

  [[nodiscard]] Process& process() const { return *process_; }

 private:
  friend class Process;
  Process* process_ = nullptr;
};

using TimerId = des::EventId;

class Process {
 public:
  /// `view` is the cluster's membership view; it must outlive the process.
  Process(HostId id, std::size_t n, des::Simulator& sim, net::ContentionNetwork& net,
          const MembershipView& view, des::RandomEngine rng, net::TimerModel timers);

  Process(const Process&) = delete;
  Process& operator=(const Process&) = delete;

  /// Appends a layer; returns a reference owned by the process.
  template <typename L, typename... Args>
  L& add_layer(Args&&... args) {
    auto layer = std::make_unique<L>(std::forward<Args>(args)...);
    L& ref = *layer;
    layer->process_ = this;
    layers_.push_back(std::move(layer));
    return ref;
  }

  /// First layer of dynamic type L; throws if absent.
  template <typename L>
  [[nodiscard]] L& layer() const {
    for (const auto& l : layers_) {
      if (auto* p = dynamic_cast<L*>(l.get())) return *p;
    }
    throw std::logic_error{"Process: no such layer"};
  }

  [[nodiscard]] HostId id() const { return id_; }
  [[nodiscard]] std::size_t n() const { return n_; }
  [[nodiscard]] des::TimePoint now() const { return sim_->now(); }
  [[nodiscard]] des::RandomEngine& rng() { return rng_; }
  [[nodiscard]] bool crashed() const { return crashed_; }
  [[nodiscard]] const MembershipView& membership() const { return *view_; }

  /// Sends a unicast; `from` and `sent_at` are stamped here.
  void send(Message m, HostId dst);
  /// Sends to every other process, in ascending host-id order (the paper's
  /// implementation sends n-1 unicasts; the fixed order is what produces
  /// the n=3 participant-crash anomaly of Section 5.3).
  void broadcast(Message m);
  /// Sends to every other member of `epoch`: member-wise unicasts in
  /// ascending host-id order, the same fan-out broadcast() produces, so a
  /// member set that covers every host takes the pooled broadcast.
  void broadcast_in(MembershipView::Epoch epoch, Message m);

  /// Event-driven timer with exact expiry (message-handler work).
  template <typename F>
  TimerId set_timer(des::Duration delay, F&& fn) {
    return sim_->schedule(delay, epoch_guarded(std::forward<F>(fn)));
  }
  /// Thread-style timer subject to the OS timer model (tick quantisation +
  /// stalls); used by the heartbeat sender. The expiry is drawn when the
  /// timer is armed.
  template <typename F>
  TimerId set_os_timer(des::Duration delay, F&& fn) {
    const des::TimePoint at = os_timer_expiry(delay);
    return sim_->schedule_at(at, epoch_guarded(std::forward<F>(fn)));
  }
  bool cancel_timer(TimerId id) { return sim_->cancel(id); }

  /// Crash-stop: the process stops sending, receiving and firing timers.
  /// Every timer armed before the crash is permanently dead (epoch guard),
  /// even if the process is later restarted.
  void crash();

  /// Warm restart after a crash: the host rejoins the network (frames flow
  /// and the TCP dead-peer state resets), and every layer's on_restart runs
  /// bottom-up. Pre-crash timers stay dead; pre-crash layer state survives
  /// unless the layer's on_restart discards it. No-op on a live process.
  void restart();

  /// Entry point used by the cluster when a packet reaches this host.
  void deliver(const Message& m);
  /// Runs every layer's on_start.
  void start();
  /// Runs every layer's on_view_change, crashed or not.
  void view_changed(MembershipView::Epoch epoch);

  [[nodiscard]] std::uint64_t messages_sent() const { return sent_; }
  [[nodiscard]] std::uint64_t messages_received() const { return received_; }

#if SANPERF_AUDIT_ENABLED
  /// Timers whose firing was suppressed because the process crashed (or
  /// crash-restarted) after arming them: evidence the epoch guard kills
  /// pre-crash timers instead of letting them run into post-restart state.
  [[nodiscard]] std::uint64_t audit_timers_suppressed() const { return audit_suppressed_; }
  /// Test-only corruption backdoor: arms a timer WITHOUT the epoch guard,
  /// so a pre-crash timer chain survives into the post-crash process. The
  /// audit check inside trips when the unguarded timer fires on a crashed
  /// or restarted process.
  TimerId audit_arm_unguarded_timer(des::Duration delay, std::function<void()> fn);
#endif

 private:
  /// `fn` behind the epoch guard: it runs only on a live process in the
  /// epoch it was armed in; otherwise the firing is dropped (and counted in
  /// audit builds).
  template <typename F>
  auto epoch_guarded(F&& fn) {
    return [this, epoch = epoch_, fn = std::forward<F>(fn)]() mutable {
      if (!crashed_ && epoch == epoch_) {
        // A timer body must only ever run in the epoch it was armed in, on
        // a live process -- the guard just established both.
        SANPERF_AUDIT_CHECK("runtime.timer_epoch_guard", !crashed_ && epoch == epoch_);
        fn();
      } else {
        SANPERF_AUDIT_ONLY(++audit_suppressed_;)
      }
    };
  }
  /// The OS timer model's expiry for a timer armed now with `delay`.
  des::TimePoint os_timer_expiry(des::Duration delay);

  HostId id_;
  std::size_t n_;
  des::Simulator* sim_;
  net::ContentionNetwork* net_;
  const MembershipView* view_;
  des::RandomEngine rng_;
  net::TimerModel timers_;
  std::vector<std::unique_ptr<Layer>> layers_;
  bool crashed_ = false;
  /// Bumped on every crash: timers capture the epoch they were armed in and
  /// fire only if it still matches, so a warm restart cannot resurrect
  /// pre-crash timer chains (stale heartbeat rounds, stale FD wake-ups).
  std::uint64_t epoch_ = 0;
  std::uint64_t sent_ = 0;
  std::uint64_t received_ = 0;
#if SANPERF_AUDIT_ENABLED
  std::uint64_t audit_suppressed_ = 0;
#endif
};

}  // namespace sanperf::runtime
