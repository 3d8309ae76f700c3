#include "consensus/mr_consensus.hpp"

#include <utility>

#include "consensus/payload.hpp"

namespace sanperf::consensus {

template class ConsensusLayer<MrConsensus, detail::MrInstance>;

namespace {

/// The coordinator's estimate for round `round` of instance `cid`.
Message coord_est(std::int32_t cid, std::int32_t round, const std::vector<std::int64_t>& value) {
  Message est;
  est.kind = MsgKind::kCoordEst;
  est.cid = cid;
  est.round = round;
  detail::set_payload(est, value);
  return est;
}

}  // namespace

void MrConsensus::advance_round(std::int32_t cid, Instance& inst) {
  ++inst.round;
  ++stats_.rounds_entered;
  const std::int32_t r = inst.round;
  record_state(cid, inst);  // round entry is replayable state
  const HostId coord = coordinator_of(cid, inst, r);

  if (coord == process().id()) {
    // Phase 1: broadcast the coordinator's estimate; it reaches ourselves
    // instantly (we ARE the coordinator).
    bcast(inst, coord_est(cid, r, inst.estimate));
    ++stats_.coord_broadcasts;
    send_aux(cid, inst, /*bottom=*/false, inst.estimate);
    return;
  }

  // Phase 2: wait for the coordinator's value -- unless it already arrived
  // (we lag behind) or the coordinator is suspected right away.
  const auto buffered = inst.coord_ests.find(r);
  if (buffered != inst.coord_ests.end()) {
    send_aux(cid, inst, /*bottom=*/false, buffered->second);
    return;
  }
  if (fd_->is_suspected(coord)) {
    send_aux(cid, inst, /*bottom=*/true, {});
    return;
  }
  inst.phase = Phase::kWaitCoord;
}

void MrConsensus::send_aux(std::int32_t cid, Instance& inst, bool bottom,
                           const std::vector<std::int64_t>& value) {
  const std::int32_t r = inst.round;
  Message aux;
  aux.kind = MsgKind::kAux;
  aux.cid = cid;
  aux.round = r;
  detail::set_payload(aux, value);
  aux.ts = bottom ? 1 : 0;  // ts doubles as the bottom flag
  if (log_.enabled()) {
    // Persist the vote before it leaves: replay must rebuild exactly this
    // AUX (never re-send it -- the peers' tallies are count-based), and a
    // REPLAYQ may ask for it long after we moved past round r.
    DurableLog::InstanceState& rec = log_.state(cid);
    rec.aux_sent = true;
    rec.aux_bottom = bottom;
    rec.aux_value = value;
    inst.sent_aux.emplace(r, aux);
  }
  bcast_logged(inst, std::move(aux));
  ++stats_.aux_broadcasts;
  if (bottom) ++stats_.bottom_aux;

  inst.aux[r].add(bottom, value);  // a process counts its own AUX
  inst.phase = Phase::kWaitAux;
  maybe_conclude(cid, inst);
}

void MrConsensus::maybe_conclude(std::int32_t cid, Instance& inst) {
  if (inst.phase != Phase::kWaitAux) return;
  const std::int32_t r = inst.round;
  detail::AuxSet& set = inst.aux[r];
  if (set.value_count + set.bottom_count < majority(inst)) return;

  // Phase 3 on the first majority of AUX values.
  if (set.bottom_count == 0) {
    decide(cid, inst, set.value, r);
    return;
  }
  if (set.value_count > 0) inst.estimate = set.value;
  advance_round(cid, inst);
}

void MrConsensus::on_round_message(Instance& inst, const Message& m) {
  switch (m.kind) {
    case MsgKind::kCoordEst:
      inst.coord_ests.emplace(m.round, detail::payload_of(m));
      if (inst.phase == Phase::kWaitCoord && m.round == inst.round) {
        send_aux(m.cid, inst, /*bottom=*/false, detail::payload_of(m));
      }
      break;

    case MsgKind::kAux: {
      if (inst.replay_duplicate(m)) break;
      detail::AuxSet& set = inst.aux[m.round];
      if (m.ts != 0) {
        ++set.bottom_count;
      } else {
        ++set.value_count;
        set.value = detail::payload_of(m);
      }
      if (m.round == inst.round) maybe_conclude(m.cid, inst);
      break;
    }

    default:
      break;
  }
}

void MrConsensus::on_suspected(std::int32_t cid, Instance& inst, HostId peer) {
  // Only a process still waiting for the suspect's estimate reacts.
  if (inst.phase == Phase::kWaitCoord && coordinator_of(cid, inst, inst.round) == peer) {
    send_aux(cid, inst, /*bottom=*/true, {});
  }
}

void MrConsensus::reenter_round(std::int32_t cid, Instance& inst,
                                const DurableLog::InstanceState& rec) {
  if (!rec.aux_sent) {
    inst.phase = Phase::kWaitCoord;
    return;
  }
  // Rebuild exactly our logged vote for the round: peers already counted
  // the broadcast, so only the local tally is restored; their votes come
  // back via REPLAYQ.
  inst.aux[inst.round].add(rec.aux_bottom, rec.aux_value);
  inst.phase = Phase::kWaitAux;
  if (!rec.aux_bottom && coordinator_of(cid, inst, inst.round) == process().id()) {
    // We coordinate this round, and our estimate broadcast may have died in
    // the crash (still queued on our CPU). Peers waiting for it hold no
    // suspicion and nothing to answer a REPLAYQ with, so re-send it: the
    // logged vote is that estimate, and a receiver ignores a duplicate.
    bcast(inst, coord_est(cid, inst.round, rec.aux_value));
    ++stats_.coord_broadcasts;
  }
  maybe_conclude(cid, inst);  // n = 1 corner
}

void MrConsensus::answer_replay_query(Instance& inst, const Message& m) {
  // If we coordinated the querier's round, re-send the estimate broadcast it
  // missed while down (a querier parked in kWaitCoord can only resume on a
  // COORDEST or a suspicion). coord_ests buffering dedups on its side.
  const auto sent = inst.sent_aux.find(m.round);
  if (coordinator_of(m.cid, inst, m.round) == process().id() &&
      sent != inst.sent_aux.end() && sent->second.ts == 0) {
    ucast(inst, coord_est(m.cid, m.round, detail::payload_of(sent->second)), m.from);
    ++stats_.coord_broadcasts;
  }
  // Re-send our recorded AUX for the querier's round -- valid even after we
  // moved past it. The querier's tally restarted from just its own vote, so
  // each peer is counted exactly once.
  if (sent != inst.sent_aux.end()) {
    ucast(inst, sent->second, m.from);
    ++stats_.aux_broadcasts;
  }
}

}  // namespace sanperf::consensus
