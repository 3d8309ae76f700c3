#include "consensus/ct_consensus.hpp"

#include <utility>

#include "consensus/payload.hpp"

namespace sanperf::consensus {

template class ConsensusLayer<CtConsensus, detail::CtInstance>;

void CtConsensus::advance_round(std::int32_t cid, Instance& inst) {
  ++inst.round;
  ++stats_.rounds_entered;
  const std::int32_t r = inst.round;
  record_state(cid, inst);  // round entry is replayable state
  const HostId coord = coordinator_of(cid, inst, r);

  if (coord == process().id()) {
    // Phase 2: collect a majority of estimates (including our own).
    record_estimate(cid, inst, r, inst.estimate, inst.ts);
    inst.phase = Phase::kCoordWaitEst;
    maybe_propose(cid, inst);
    return;
  }

  // Phase 1: send the estimate to the coordinator -- unconditionally, even
  // to a suspected one. This is load-bearing for liveness: because every
  // process always contributes its estimate, every round reaches a majority
  // of estimates and produces a proposal, so no process can wait forever in
  // phase 3 on a proposal that never comes.
  Message est;
  est.kind = MsgKind::kEstimate;
  est.cid = cid;
  est.round = r;
  detail::set_payload(est, inst.estimate);
  est.ts = inst.ts;
  ucast(inst, est, coord);
  ++stats_.estimates_sent;

  if (fd_->is_suspected(coord)) {
    send_nack(cid, inst);  // phase 3, negative branch, taken immediately
    return;
  }

  // Phase 3: wait for the proposal -- unless it is already here (we were
  // slower than the coordinator).
  inst.phase = Phase::kWaitProp;
  const auto buffered = inst.buffered_props.find(r);
  if (buffered != inst.buffered_props.end()) {
    const Message prop = buffered->second;
    inst.buffered_props.erase(buffered);
    handle_proposal(cid, inst, prop);
  }
}

void CtConsensus::record_estimate(std::int32_t cid, Instance& inst, std::int32_t round,
                                  const std::vector<std::int64_t>& value, std::int32_t ts) {
  inst.ests[round].add(value, ts);
  maybe_propose(cid, inst);
}

void CtConsensus::maybe_propose(std::int32_t cid, Instance& inst) {
  if (inst.phase != Phase::kCoordWaitEst) return;
  const std::int32_t r = inst.round;
  const auto it = inst.ests.find(r);
  if (it == inst.ests.end() || it->second.count < majority(inst)) return;

  // Phase 2: adopt the estimate with the largest timestamp and propose it.
  inst.estimate = it->second.best_value;
  inst.ts = r;
  inst.phase = Phase::kCoordWaitReply;
  inst.acks[r] += 1;  // the coordinator's own (local) positive reply
  record_state(cid, inst);

  ++stats_.proposals_sent;
  Message prop;
  prop.kind = MsgKind::kPropose;
  prop.cid = cid;
  prop.round = r;
  detail::set_payload(prop, inst.estimate);
  bcast_logged(inst, std::move(prop));  // the adoption record persists first

  maybe_conclude_round(cid, inst);  // n = 1-majority corner and stray nacks
}

void CtConsensus::handle_proposal(std::int32_t cid, Instance& inst, const Message& m) {
  // Phase 3, positive branch: adopt and ack, then move on immediately
  // (the decision, if any, arrives via the DECIDE broadcast). The ts guard
  // drops duplicate deliveries (a replay re-send racing the original):
  // adopting round r sets ts = r, and no synchronous path re-enters with
  // ts already at m.round.
  if (inst.ts == m.round) return;
  inst.estimate = detail::payload_of(m);
  inst.ts = m.round;
  record_state(cid, inst);
  Message ack;
  ack.kind = MsgKind::kAck;
  ack.cid = cid;
  ack.round = m.round;
  ack.view_epoch = inst.epoch;
  const HostId coord = coordinator_of(cid, inst, m.round);
  ++stats_.acks_sent;
  // Write-ahead: the adopted estimate persists before the ack commits us.
  durable_apply(
      [this, ack = std::move(ack), coord]() mutable { process().send(std::move(ack), coord); });
  advance_round(cid, inst);
}

void CtConsensus::send_nack(std::int32_t cid, Instance& inst) {
  // Phase 3, negative branch: the coordinator is suspected.
  Message nack;
  nack.kind = MsgKind::kNack;
  nack.cid = cid;
  nack.round = inst.round;
  ucast(inst, nack, coordinator_of(cid, inst, inst.round));
  ++stats_.nacks_sent;
  advance_round(cid, inst);
}

void CtConsensus::maybe_conclude_round(std::int32_t cid, Instance& inst) {
  // Only phase 4 reacts here. The coordinator deliberately ignores nacks
  // while still collecting estimates: aborting before proposing would leave
  // the participants that did send estimates waiting for a proposal that
  // never comes (see advance_round on liveness).
  if (inst.phase != Phase::kCoordWaitReply) return;
  const std::int32_t r = inst.round;
  const auto nack_it = inst.nacks.find(r);
  if (nack_it != inst.nacks.end() && nack_it->second > 0) {
    // Phase 4, negative outcome: at least one nack -> next round.
    ++stats_.rounds_aborted;
    advance_round(cid, inst);
    return;
  }
  const auto ack_it = inst.acks.find(r);
  if (ack_it != inst.acks.end() && ack_it->second >= majority(inst)) {
    decide(cid, inst, inst.estimate, r);
  }
}

void CtConsensus::on_round_message(Instance& inst, const Message& m) {
  switch (m.kind) {
    case MsgKind::kEstimate:
      if (inst.replay_duplicate(m)) break;
      record_estimate(m.cid, inst, m.round, detail::payload_of(m), m.ts);
      break;

    case MsgKind::kPropose:
      if (inst.phase == Phase::kWaitProp && m.round == inst.round) {
        handle_proposal(m.cid, inst, m);
      } else if (m.round > inst.round) {
        inst.buffered_props.emplace(m.round, m);
      }
      // proposals for past rounds are stale: we already acked or nacked
      break;

    case MsgKind::kAck:
      inst.acks[m.round] += 1;
      if (m.round == inst.round) maybe_conclude_round(m.cid, inst);
      break;

    case MsgKind::kNack:
      inst.nacks[m.round] += 1;
      if (m.round == inst.round) maybe_conclude_round(m.cid, inst);
      break;

    default:
      break;
  }
}

void CtConsensus::on_suspected(std::int32_t cid, Instance& inst, HostId peer) {
  // Only a process waiting for the suspect's proposal reacts.
  if (inst.phase == Phase::kWaitProp && coordinator_of(cid, inst, inst.round) == peer) {
    send_nack(cid, inst);
  }
}

void CtConsensus::reenter_round(std::int32_t cid, Instance& inst,
                                const DurableLog::InstanceState& rec) {
  inst.ts = rec.ts;
  if (coordinator_of(cid, inst, inst.round) == process().id()) {
    inst.phase = Phase::kCoordWaitEst;
    // Our own contribution was volatile; peers re-send theirs on REPLAYQ.
    record_estimate(cid, inst, inst.round, inst.estimate, inst.ts);
  } else {
    inst.phase = Phase::kWaitProp;
  }
}

void CtConsensus::answer_replay_query(Instance& inst, const Message& m) {
  if (!inst.started || inst.round < 1) return;
  const std::int32_t r = inst.round;
  if (inst.phase == Phase::kWaitProp && coordinator_of(m.cid, inst, r) == m.from) {
    // The querier coordinates our current round: its estimate tally died
    // with it (replay rebuilds it holding only its own), so re-contribute
    // ours. No double count is possible -- the tally we refill is empty.
    Message est;
    est.kind = MsgKind::kEstimate;
    est.cid = m.cid;
    est.round = r;
    detail::set_payload(est, inst.estimate);
    est.ts = inst.ts;
    ucast(inst, est, m.from);
    ++stats_.estimates_sent;
  } else if (inst.phase == Phase::kCoordWaitReply && r == m.round &&
             coordinator_of(m.cid, inst, r) == process().id()) {
    // We proposed in the round the querier re-entered and it missed the
    // broadcast while down: re-send the proposal to it alone. (Its ack, if
    // it ever acked r, moved it past r in the log -- no duplicate acks.)
    Message prop;
    prop.kind = MsgKind::kPropose;
    prop.cid = m.cid;
    prop.round = r;
    detail::set_payload(prop, inst.estimate);
    ucast(inst, prop, m.from);
    ++stats_.proposals_sent;
  }
}

}  // namespace sanperf::consensus
