// The instance lifecycle both consensus protocols share.
//
// CtConsensus and MrConsensus run different rounds over one skeleton: a
// map of instances keyed by cid, each started by propose(), decided once,
// disseminated by a DECIDE broadcast and collected by InstanceGc; a
// write-ahead DurableLog replayed on restart; and a membership epoch of the
// cluster's view (runtime/membership.hpp) pinned per instance: coordinator
// rotation, majority and broadcast fan-out run over that epoch's member
// set, which for the paper's fixed group is every host. ConsensusLayer
// owns that skeleton. A protocol derives from it (CRTP: every hook is a
// direct call resolved at compile time, so the message path gains no
// virtual call) and supplies only its rounds through these hooks:
//
//   static bool is_round_message(MsgKind)   the kinds its rounds exchange
//   void advance_round(cid, inst)           enters the instance's next round
//   void on_round_message(inst, m)          a round message for an
//                                           undecided instance
//   void on_suspected(cid, inst, peer)      the detector now suspects `peer`
//   static void record_extra(rec, inst)     its own fields of a log record
//   void reenter_round(cid, inst, rec)      replay: resume the logged round
//                                           (inst.round is already restored)
//   void answer_replay_query(inst, m)       a REPLAYQ for an undecided
//                                           instance this host holds
//
// `InstanceT` derives from InstanceCore and nests the protocol's Phase enum,
// whose kDone marks a decided instance.
//
// Every write-ahead step (an ack, a logged broadcast, round entry after a
// proposal, delivery of a decision) goes through durable_apply, a template
// over the step: with the log off or an append that charges nothing it is
// a direct inline call, and only a step deferred by a charged append is
// boxed in a std::function for its timer, since a step that captures a
// whole Message does not fit an event closure.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "consensus/durable_log.hpp"
#include "consensus/instance_gc.hpp"
#include "consensus/layer_audit.hpp"
#include "consensus/payload.hpp"
#include "fd/failure_detector.hpp"
#include "runtime/process.hpp"

namespace sanperf::consensus {

using fd::FailureDetector;
using runtime::HostId;
using runtime::Message;
using runtime::MsgKind;

struct DecisionEvent {
  std::int32_t cid = 0;
  std::int64_t value = 0;       ///< first decided value (scalar view)
  std::int32_t round = 0;       ///< round in which the decision was reached
  des::TimePoint at;
  HostId by = 0;
  /// Full decided batch; one entry per client value the instance carried
  /// (a single entry for unbatched proposals).
  std::vector<std::int64_t> values;
};

/// Per-instance state every protocol keeps; a protocol's instance type
/// derives from it and adds its phase and round tallies.
struct InstanceCore {
  bool started = false;
  bool decided = false;
  bool decide_pending = false;  ///< decision record still persisting
  bool decide_broadcast = false;
  /// Membership epoch the instance runs under, captured at first touch
  /// (locally from the view at launch, remotely from Message::view_epoch)
  /// and fixed for the instance's life -- quorum size never changes
  /// mid-flight.
  std::uint32_t epoch = 0;
  bool epoch_set = false;
  std::vector<std::int64_t> decision;
  std::int32_t decision_round = 0;
  std::int32_t round = 0;  ///< current round, 1-based; 0 before start
  std::vector<std::int64_t> estimate;
  /// Replay dedup (durable recovery only): the round on_restart restored
  /// and the senders already tallied for it. A peer's normal round traffic
  /// can race its REPLAYQ re-send; the count-based tallies must count each
  /// peer once. -1 = not a restored round.
  std::int32_t replay_round = -1;
  std::set<HostId> replay_seen;

  /// True when `m` repeats a sender already tallied for the restored round
  /// (and records the sender otherwise).
  bool replay_duplicate(const Message& m) {
    return m.round == replay_round && !replay_seen.insert(m.from).second;
  }
};

template <typename Protocol, typename InstanceT>
class ConsensusLayer : public runtime::Layer {
 public:
  void on_start() override {
    fd_->add_listener([this](HostId peer, bool suspected) { on_suspicion(peer, suspected); });
  }
  void on_message(const Message& m) override;
  void on_crash() override;
  /// Warm restart. Without a durable log, consensus state is volatile: a
  /// rebooted process forgets every in-flight instance and rejoins
  /// passively -- it takes part in instances proposed after the restart,
  /// and learns old decisions only through DECIDE messages (never
  /// re-reporting them). With the log enabled, the logged suffix is
  /// replayed instead: each undecided in-flight instance re-enters its
  /// logged round and broadcasts a REPLAYQ so peers re-send the round
  /// traffic missed while down.
  void on_restart() override;

  /// Starts instance `cid` with this process's initial value.
  void propose(std::int32_t cid, std::int64_t value) {
    propose(cid, std::vector<std::int64_t>{value});
  }
  /// Batched form: the instance carries a whole vector of client values
  /// (one Batcher batch); agreement is on the vector as a unit.
  void propose(std::int32_t cid, std::vector<std::int64_t> values);

  /// Round-robins the *round-1* coordinator across instances (`cid % n`)
  /// instead of always host 0, so a single host crash stalls only 1/n of a
  /// streamed workload instead of every instance. Off by default: the
  /// paper's experiments pin host 0 (Section 2.1 rotates only across
  /// rounds), and the goldens depend on that.
  void set_rotate_coordinators(bool on) { rotate_coordinators_ = on; }

  /// Enables the stable-storage write-ahead log: per-instance state is
  /// recorded before every externally visible protocol step (each record
  /// charging the configured persistence latency on a serialized device
  /// tail), and on_restart replays it so the process rejoins in-flight
  /// instances. Disabled (the default) the layer is bit-exact with the
  /// volatile warm-restart model.
  void set_durable_log(const DurableLogConfig& cfg) { log_.configure(cfg); }
  [[nodiscard]] const DurableLog& durable_log() const { return log_; }

  [[nodiscard]] bool has_decided(std::int32_t cid) const {
    if (gc_.collected(cid)) return true;
    const auto it = instances_.find(cid);
    return it != instances_.end() && it->second.decided;
  }
  [[nodiscard]] std::int64_t decision(std::int32_t cid) const {
    const std::vector<std::int64_t>& values = decision_values(cid);
    return values.empty() ? 0 : values.front();
  }
  [[nodiscard]] const std::vector<std::int64_t>& decision_values(std::int32_t cid) const {
    const auto it = instances_.find(cid);
    if (it == instances_.end() || !it->second.decided) {
      throw std::logic_error{std::string{Protocol::kName} + ": no decision yet"};
    }
    return it->second.decision;
  }
  [[nodiscard]] std::int32_t rounds_used(std::int32_t cid) const {
    const auto it = instances_.find(cid);
    if (it == instances_.end()) return 0;
    return it->second.decided ? it->second.decision_round : it->second.round;
  }

  /// Called on every local decision (first delivery per instance).
  void set_decide_callback(std::function<void(const DecisionEvent&)> cb) {
    on_decide_ = std::move(cb);
  }

  /// When true, a process that learns a decision re-broadcasts it once
  /// (full reliable-broadcast behaviour). Off by default: the coordinator's
  /// own broadcast suffices in crash-free tails and the paper's latency
  /// metric stops at the first decision anyway.
  void set_relay_decide(bool relay) { relay_decide_ = relay; }

  /// When enabled, an instance's state is discarded once this process has
  /// decided it (and handled the decide broadcast), so a long stream of
  /// instances runs in O(in-flight) memory instead of O(stream length).
  /// Late messages for a collected instance are ignored exactly as they
  /// were for a decided one; has_decided stays true for collected cids, but
  /// decision()/rounds_used() no longer answer for them -- workloads that
  /// query decisions after the run keep it off (the default).
  void set_gc_decided(bool on) { gc_.enable(on); }
  /// Instances currently holding state (streams with GC keep this bounded
  /// by the in-flight window).
  [[nodiscard]] std::size_t active_instances() const { return instances_.size(); }
  /// High-water mark of active_instances over the layer's lifetime.
  [[nodiscard]] std::size_t peak_active_instances() const { return peak_active_; }
  [[nodiscard]] std::uint64_t instances_collected() const { return gc_.collected_count(); }

#if SANPERF_AUDIT_ENABLED
  /// Test-only corruption backdoor: forgets that `cid` decided (the decided
  /// flag, the pending flag and the broadcast marker), so a re-delivered
  /// DECIDE re-drives the decide path and the no-double-decide audit trips.
  void audit_corrupt_clear_decided(std::int32_t cid) {
    const auto it = instances_.find(cid);
    if (it == instances_.end()) return;
    it->second.decided = false;
    it->second.decide_pending = false;
    it->second.decide_broadcast = true;  // the corrupted re-decide must not re-flood
    if (cid < decided_prefix_) decided_prefix_ = cid;
  }
  /// Test-only: mutable log access for corrupting records between a crash
  /// and its replay (the replay-matches-precrash audit must notice).
  [[nodiscard]] DurableLog& audit_mutable_log() { return log_; }
#endif

 protected:
  using Instance = InstanceT;

  /// `fd` must outlive the layer; its suspicions reach the protocol
  /// through on_suspected.
  explicit ConsensusLayer(FailureDetector& fd) : fd_{&fd} {}

  [[nodiscard]] HostId coordinator_of(std::int32_t cid, const Instance& inst,
                                      std::int32_t round) const;
  [[nodiscard]] std::int32_t majority(const Instance& inst) const {
    const std::size_t group = process().membership().members_at(inst.epoch).size();
    return static_cast<std::int32_t>(group / 2 + 1);
  }
  /// Stamps the instance's epoch and sends within its member set.
  void ucast(const Instance& inst, Message m, HostId dst) {
    m.view_epoch = inst.epoch;
    process().send(std::move(m), dst);
  }
  void bcast(const Instance& inst, Message m) {
    m.view_epoch = inst.epoch;
    process().broadcast_in(inst.epoch, std::move(m));
  }
  /// bcast once one durable append completes (write-ahead: the record the
  /// caller just wrote persists before the message leaves). Deferred sends
  /// serialize on the log device tail, so later appends (a decision, say)
  /// cannot overtake this broadcast.
  void bcast_logged(const Instance& inst, Message m) {
    m.view_epoch = inst.epoch;
    durable_apply([this, epoch = inst.epoch, m = std::move(m)]() mutable {
      process().broadcast_in(epoch, std::move(m));
    });
  }
  /// Runs `fn` after one durable append completes: inline when the log is
  /// disabled or the latency is 0, else after the charged delay (the timer
  /// is epoch-guarded, so a crash mid-write kills the step -- replay
  /// re-drives it). Only the deferred step is boxed in a std::function: a
  /// closure that captures a Message does not fit a timer's event closure.
  template <typename F>
  void durable_apply(F&& fn);
  /// Folds the instance's replayable state into its log record (no charge;
  /// charges happen at the write-ahead points that defer a visible step).
  void record_state(std::int32_t cid, const Instance& inst);
  void decide(std::int32_t cid, Instance& inst, const std::vector<std::int64_t>& value,
              std::int32_t round);

  FailureDetector* fd_;
  DurableLog log_;

 private:
  using Phase = typename Instance::Phase;

  Protocol& protocol() { return static_cast<Protocol&>(*this); }

  Instance& instance(std::int32_t cid) {
    Instance& inst = instances_[cid];
    if (instances_.size() > peak_active_) peak_active_ = instances_.size();
    return inst;
  }
  /// Moves decided_prefix_ over the consecutive cids that are present and
  /// decided; a gap or a collected cid stops it.
  void advance_decided_prefix() {
    for (auto it = instances_.find(decided_prefix_);
         it != instances_.end() && it->first == decided_prefix_ && it->second.decided; ++it) {
      ++decided_prefix_;
    }
  }
  static void touch_epoch(Instance& inst, std::uint32_t epoch) {
    if (!inst.epoch_set) {
      inst.epoch_set = true;
      inst.epoch = epoch;
    }
  }
  void finish_decide(std::int32_t cid, Instance& inst);
  void on_suspicion(HostId peer, bool suspected);
  void handle_replay_query(const Message& m);
#if SANPERF_AUDIT_ENABLED
  void audit_check_sender(const Instance& inst, const Message& m) const;
  void audit_check_replay();
#endif

  std::map<std::int32_t, Instance> instances_;
  /// Every instance held with a cid below this is decided (cids are never
  /// negative), so a suspicion need not walk them. Collection may erase
  /// them; a collected cid never comes back.
  std::int32_t decided_prefix_ = 0;
  detail::InstanceGc gc_;
  std::size_t peak_active_ = 0;
  std::function<void(const DecisionEvent&)> on_decide_;
  bool relay_decide_ = false;
  bool rotate_coordinators_ = false;
  SANPERF_AUDIT_ONLY(detail::LayerAudit audit_;)
};

// Member definitions. Each protocol instantiates them once, in its own .cpp
// (its header declares the instantiation extern), so the hooks inline.

template <typename Protocol, typename InstanceT>
HostId ConsensusLayer<Protocol, InstanceT>::coordinator_of(std::int32_t cid, const Instance& inst,
                                                           std::int32_t round) const {
  // Rounds are 1-based; p_i coordinates rounds kn + i (Section 2.1). With
  // rotation on, the cycle is offset per instance so round 1 of instance
  // cid starts at p_{cid mod n} rather than always p_0. The rotation runs
  // over the instance's epoch member set, p_k being its k-th member (host k
  // in the fixed group).
  const std::vector<runtime::MemberId>& members = process().membership().members_at(inst.epoch);
  const auto n = static_cast<std::int32_t>(members.size());
  const std::int32_t offset = rotate_coordinators_ ? cid % n : 0;
  return members[static_cast<std::size_t>((offset + round - 1) % n)];
}

template <typename Protocol, typename InstanceT>
template <typename F>
void ConsensusLayer<Protocol, InstanceT>::durable_apply(F&& fn) {
  if (log_.enabled()) {
    const double delay = log_.charge_ms(process().now().to_ms());
    if (delay > 0) {
      process().set_timer(des::Duration::from_ms(delay),
                          std::function<void()>{std::forward<F>(fn)});
      return;
    }
  }
  fn();
}

template <typename Protocol, typename InstanceT>
void ConsensusLayer<Protocol, InstanceT>::record_state(std::int32_t cid, const Instance& inst) {
  if (!log_.enabled()) return;
  DurableLog::InstanceState& rec = log_.state(cid);
  rec.started = inst.started;
  rec.estimate = inst.estimate;
  rec.round = inst.round;
  rec.epoch = inst.epoch;
  Protocol::record_extra(rec, inst);
}

template <typename Protocol, typename InstanceT>
void ConsensusLayer<Protocol, InstanceT>::propose(std::int32_t cid,
                                                  std::vector<std::int64_t> values) {
  gc_.sweep(instances_);
  if (log_.enabled()) log_.compact(gc_.floor());  // log tracks the GC watermark
  if (gc_.collected(cid)) return;  // decided before we proposed, state gone
  Instance& inst = instance(cid);
  if (inst.started) {
    throw std::logic_error{std::string{Protocol::kName} + ": instance already proposed"};
  }
  inst.started = true;
  touch_epoch(inst, process().membership().epoch());
  if (inst.decided) {
    // A decision arrived before we proposed (possible with very skewed
    // starts): report it now.
    if (on_decide_) {
      const std::int64_t head = inst.decision.empty() ? 0 : inst.decision.front();
      on_decide_({cid, head, inst.decision_round, process().now(), process().id(),
                  inst.decision});
    }
    return;
  }
  if (inst.decide_pending) return;  // finish_decide reports once the record lands
  inst.estimate = std::move(values);
  if (!log_.enabled()) {
    protocol().advance_round(cid, inst);
    return;
  }
  // Write-ahead: the proposal record must be durable before any message for
  // the instance leaves this host, so round entry waits for the append.
  record_state(cid, inst);
  durable_apply([this, cid] {
    const auto it = instances_.find(cid);
    if (it == instances_.end() || gc_.collected(cid)) return;
    Instance& i = it->second;
    if (i.round == 0 && !i.decided && !i.decide_pending) protocol().advance_round(cid, i);
  });
}

template <typename Protocol, typename InstanceT>
void ConsensusLayer<Protocol, InstanceT>::decide(std::int32_t cid, Instance& inst,
                                                 const std::vector<std::int64_t>& value,
                                                 std::int32_t round) {
  if (inst.decided || inst.decide_pending) return;
  inst.decision = value;
  inst.decision_round = round;
  inst.phase = Phase::kDone;
  if (!log_.enabled()) {
    finish_decide(cid, inst);
    return;
  }
  // Write-ahead: the decision record persists before it is delivered to the
  // application or disseminated. decide_pending parks the instance while
  // the append is in flight; a crash in the window kills the deferred step
  // (epoch-guarded timer) and replay restores the decision silently.
  inst.decide_pending = true;
  record_state(cid, inst);
  DurableLog::InstanceState& rec = log_.state(cid);
  rec.decided = true;
  rec.decision = value;
  rec.decision_round = round;
  durable_apply([this, cid] {
    const auto it = instances_.find(cid);
    if (it == instances_.end() || !it->second.decide_pending) return;
    finish_decide(cid, it->second);
  });
}

template <typename Protocol, typename InstanceT>
void ConsensusLayer<Protocol, InstanceT>::finish_decide(std::int32_t cid, Instance& inst) {
#if SANPERF_AUDIT_ENABLED
  // One decision per instance per incarnation: a second pass through here
  // means a decided guard was lost somewhere upstream.
  SANPERF_AUDIT_CHECK(
      "consensus.no_double_decide",
      audit_.decided.emplace(cid, detail::LayerAudit::hash_values(inst.decision)).second,
      "instance " + std::to_string(cid) + " decided twice on host " +
          std::to_string(process().id()));
#endif
  inst.decided = true;
  inst.decide_pending = false;
  if (cid == decided_prefix_) advance_decided_prefix();
  if (on_decide_ && inst.started) {
    const std::int64_t head = inst.decision.empty() ? 0 : inst.decision.front();
    on_decide_({cid, head, inst.decision_round, process().now(), process().id(),
                inst.decision});
  }
  if (!inst.decide_broadcast) {
    inst.decide_broadcast = true;
    Message dec;
    dec.kind = MsgKind::kDecide;
    dec.cid = cid;
    dec.round = inst.decision_round;
    detail::set_payload(dec, inst.decision);
    bcast(inst, dec);
  }
  gc_.mark(cid);  // terminal: collected at the next entry-point sweep
}

template <typename Protocol, typename InstanceT>
void ConsensusLayer<Protocol, InstanceT>::on_message(const Message& m) {
  if (m.kind != MsgKind::kDecide && m.kind != MsgKind::kReplayQuery &&
      !Protocol::is_round_message(m.kind)) {
    return;  // not a consensus message
  }
  gc_.sweep(instances_);
  if (gc_.collected(m.cid)) return;  // stale traffic for a collected instance
  if (m.kind == MsgKind::kReplayQuery) {
    handle_replay_query(m);  // find, never create
    return;
  }
  Instance& inst = instance(m.cid);
  touch_epoch(inst, m.view_epoch);
#if SANPERF_AUDIT_ENABLED
  audit_check_sender(inst, m);
  if (m.kind == MsgKind::kDecide && inst.decided) {
    // Agreement: every DECIDE for an instance must carry the value this
    // host already decided.
    SANPERF_AUDIT_CHECK("consensus.decision_agreement",
                        inst.decision.empty() || detail::payload_of(m) == inst.decision,
                        "conflicting DECIDE for instance " + std::to_string(m.cid) +
                            " from host " + std::to_string(m.from));
  }
#endif
  if (inst.decided || inst.decide_pending) return;
  if (m.kind == MsgKind::kDecide) {
    inst.decide_broadcast = !relay_decide_;  // suppress re-broadcast unless relaying
    decide(m.cid, inst, detail::payload_of(m), m.round);
    return;
  }
  protocol().on_round_message(inst, m);
}

template <typename Protocol, typename InstanceT>
void ConsensusLayer<Protocol, InstanceT>::on_suspicion(HostId peer, bool suspected) {
  if (!suspected) return;
  // Only started, undecided instances react, and none lies below the prefix.
  for (auto it = instances_.lower_bound(decided_prefix_); it != instances_.end(); ++it) {
    auto& [cid, inst] = *it;
    if (inst.started && !inst.decided) protocol().on_suspected(cid, inst, peer);
  }
}

template <typename Protocol, typename InstanceT>
void ConsensusLayer<Protocol, InstanceT>::on_crash() {
#if SANPERF_AUDIT_ENABLED
  // Snapshot what a durable replay must reproduce. Only instances the log
  // can know about qualify: started ones (propose records before anything
  // leaves) and decided/pending ones (the decision record is durable before
  // the decide path defers). Passive tally-only instances have no record
  // and legitimately vanish.
  audit_.precrash.clear();
  for (const auto& [cid, inst] : instances_) {
    if (!inst.started && !inst.decided && !inst.decide_pending) continue;
    detail::LayerAudit::Snapshot snap;
    snap.round = inst.round;
    snap.decided = inst.decided || inst.decide_pending;
    snap.decision_hash = detail::LayerAudit::hash_values(inst.decision);
    audit_.precrash.emplace(cid, snap);
  }
#endif
}

template <typename Protocol, typename InstanceT>
void ConsensusLayer<Protocol, InstanceT>::on_restart() {
  instances_.clear();
  decided_prefix_ = 0;
  if (!log_.enabled()) {
    // Volatile restart: a fresh incarnation may legitimately re-learn and
    // re-report old decisions, so the audit ledgers reset with the state.
    SANPERF_AUDIT_ONLY(audit_.decided.clear(); audit_.precrash.clear();)
    return;
  }
  log_.compact(gc_.floor());
  std::uint64_t replayed = 0;
  // Iterate a snapshot: replay re-records state (in-place log writes) and a
  // decision callback could reach back into propose(), which sweeps the
  // instance map mid-walk.
  const auto entries = log_.entries();
  for (const auto& [cid, rec] : entries) {
    if (gc_.collected(cid)) continue;
    Instance& inst = instance(cid);
    inst.started = rec.started;
    inst.epoch = rec.epoch;
    inst.epoch_set = true;
    inst.estimate = rec.estimate;
    if (rec.decided) {
      // Restore silently: never re-report (the pre-crash delivery may have
      // happened) and never re-broadcast.
      inst.decided = true;
      inst.decision = rec.decision;
      inst.decision_round = rec.decision_round;
      inst.phase = Phase::kDone;
      inst.decide_broadcast = true;
      gc_.mark(cid);
      continue;
    }
    if (!rec.started) continue;
    ++replayed;
    if (rec.round < 1) {
      // Crashed inside the propose append: round 1 was never entered, so
      // enter it now (its first sends included).
      protocol().advance_round(cid, inst);
    } else {
      // Re-enter the logged round *without* re-running round entry: the
      // round's first sends left this host before the round was logged, so
      // a re-send would double-count in the peers' tallies.
      inst.round = rec.round;
      inst.replay_round = rec.round;
      protocol().reenter_round(cid, inst, rec);
    }
    if (inst.decided || inst.decide_pending) continue;  // n = 1 corner
    Message q;
    q.kind = MsgKind::kReplayQuery;
    q.cid = cid;
    q.round = inst.round;
    bcast(inst, q);
  }
  advance_decided_prefix();
  log_.note_replayed(replayed);
  SANPERF_AUDIT_ONLY(audit_check_replay();)
}

template <typename Protocol, typename InstanceT>
void ConsensusLayer<Protocol, InstanceT>::handle_replay_query(const Message& m) {
  const auto it = instances_.find(m.cid);
  if (it == instances_.end()) return;
  Instance& inst = it->second;
  if (inst.decide_pending) return;  // our own record is still landing
  if (inst.decided) {
    Message dec;
    dec.kind = MsgKind::kDecide;
    dec.cid = m.cid;
    dec.round = inst.decision_round;
    detail::set_payload(dec, inst.decision);
    ucast(inst, dec, m.from);
    return;
  }
  protocol().answer_replay_query(inst, m);
}

#if SANPERF_AUDIT_ENABLED
template <typename Protocol, typename InstanceT>
void ConsensusLayer<Protocol, InstanceT>::audit_check_sender(const Instance& inst,
                                                             const Message& m) const {
  // Quorum membership: traffic for an instance must come from the member
  // set of the epoch it runs under (Message::view_epoch pins the epoch at
  // first touch), so no quorum can be assembled across epoch boundaries.
  const runtime::MembershipView& view = process().membership();
  SANPERF_AUDIT_CHECK("consensus.quorum_in_epoch",
                      inst.epoch <= view.epoch() && view.is_member_at(inst.epoch, m.from),
                      "sender " + std::to_string(m.from) + " not a member of epoch " +
                          std::to_string(inst.epoch) + " (instance " + std::to_string(m.cid) +
                          ")");
}

template <typename Protocol, typename InstanceT>
void ConsensusLayer<Protocol, InstanceT>::audit_check_replay() {
  // Durable replay must reproduce the pre-crash trajectory: every decided
  // instance comes back with the same value, every started in-flight one
  // re-enters a round no earlier than the one it crashed in.
  for (const auto& [cid, snap] : audit_.precrash) {
    if (gc_.collected(cid)) continue;
    const auto it = instances_.find(cid);
    if (it == instances_.end()) {
      SANPERF_AUDIT_CHECK("consensus.replay_matches_precrash", false,
                          "instance " + std::to_string(cid) + " lost across replay");
      continue;
    }
    const Instance& inst = it->second;
    if (snap.decided) {
      SANPERF_AUDIT_CHECK(
          "consensus.replay_matches_precrash",
          inst.decided && detail::LayerAudit::hash_values(inst.decision) == snap.decision_hash,
          "instance " + std::to_string(cid) + " decision changed across replay");
    } else {
      SANPERF_AUDIT_CHECK("consensus.replay_matches_precrash", inst.round >= snap.round,
                          "instance " + std::to_string(cid) + " replayed into round " +
                              std::to_string(inst.round) + " behind pre-crash round " +
                              std::to_string(snap.round));
    }
  }
  audit_.precrash.clear();
}
#endif

}  // namespace sanperf::consensus
