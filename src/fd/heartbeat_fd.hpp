// Push-style heartbeat failure detection (Section 2.2, Fig 1).
//
// Every process periodically broadcasts a heartbeat. Process p starts
// suspecting q when it has received no message from q (heartbeat or
// application message) for longer than the timeout T; the reception of any
// message from q clears the suspicion and resets the timer.
//
// Both halves of the detector run on OS timers (tick quantisation and
// stalls, the TimerModel): the heartbeat sender sleeps Th between rounds,
// and the monitoring side is a thread that wakes up to compare
// now - last_message against T. Message receptions update last_message
// (and clear suspicions) immediately, but a *suspicion* can only start at
// a wake-up. This pair of quantisations is the mechanism behind the
// measured QoS curves of Fig 8 -- mistake recurrence locked to the
// effective heartbeat period, the blow-up once T exceeds the tick-rounded
// period, and the latency peak near T = 10 ms that the paper attributes to
// the Linux scheduler (Section 5.4).
//
// The detector monitors the current members of the cluster's membership
// view (every host in the paper's fixed group): heartbeats go only to
// members, a non-member is never suspected, and on an epoch change a newly
// added member starts trusted with a fresh reception clock while a removed
// member's suspicion is retired.
#pragma once

#include <functional>
#include <vector>

#include "fd/failure_detector.hpp"
#include "fd/history.hpp"
#include "runtime/process.hpp"

namespace sanperf::fd {

struct HeartbeatFdParams {
  des::Duration heartbeat_period = des::Duration::from_ms(7.0);  ///< Th
  des::Duration timeout = des::Duration::from_ms(10.0);          ///< T

  /// The paper fixes Th = 0.7 T for all experiments (Section 5.4).
  [[nodiscard]] static HeartbeatFdParams from_timeout_ms(double timeout_ms) {
    return {des::Duration::from_ms(0.7 * timeout_ms), des::Duration::from_ms(timeout_ms)};
  }
};

class HeartbeatFd : public runtime::Layer, public FailureDetector {
 public:
  /// Throws std::invalid_argument unless the heartbeat period and the
  /// timeout are both > 0.
  explicit HeartbeatFd(HeartbeatFdParams params);

  void on_start() override;
  void on_message(const runtime::Message& m) override;
  void on_crash() override;
  /// Warm restart: the monitor comes back trusting everyone with a fresh
  /// reception clock (last_msg = now, never pre-crash timestamps -- a
  /// stale value would fire an instant wrong suspicion), re-arms its
  /// wake-ups and resumes heartbeating. Histories survive, with
  /// suspect->trust transitions recorded for peers suspected at the crash.
  void on_restart() override;
  /// Adopts epoch `epoch` of the cluster's view: trusts a joiner afresh and
  /// retires a removed member's suspicion. A crashed or unstarted monitor
  /// re-derives its state on restart instead.
  void on_view_change(runtime::MembershipView::Epoch epoch) override;

  [[nodiscard]] bool is_suspected(HostId peer) const override;
  void add_listener(SuspicionListener listener) override {
    listeners_.push_back(std::move(listener));
  }

  [[nodiscard]] const HeartbeatFdParams& params() const { return params_; }

  /// Full trust/suspect history per monitored peer (index = host id).
  [[nodiscard]] const std::vector<PairHistory>& histories() const { return history_; }

  [[nodiscard]] std::uint64_t heartbeats_sent() const { return heartbeats_sent_; }

 private:
  void send_heartbeat_round();
  /// Arms the monitoring thread's next wake-up for `peer` at `nominal`
  /// (subject to the OS timer model).
  void arm_check(HostId peer, des::TimePoint nominal);
  /// The monitoring thread's wake-up: suspects when the timeout elapsed.
  void check_timeout(HostId peer);
  void notify(HostId peer, bool suspected);

  HeartbeatFdParams params_;
  std::vector<char> suspected_;             // per peer
  std::vector<des::TimePoint> last_msg_;    // per peer: last reception
  std::vector<PairHistory> history_;        // per peer
  /// Highest sender incarnation seen per peer. A message carrying a newer
  /// one reveals a crash + warm restart that completed faster than the
  /// timeout could detect; the detector surfaces it as an instantaneous
  /// suspect->trust blip so layers above re-evaluate the peer
  /// (crash-recovery completeness).
  std::vector<std::uint32_t> known_incarnation_;
  std::vector<SuspicionListener> listeners_;
  std::uint64_t heartbeats_sent_ = 0;
  bool stopped_ = false;
};

}  // namespace sanperf::fd
