// The Chandra-Toueg consensus algorithm for the <>S failure detector
// (Chandra & Toueg, JACM 1996), as analysed by the paper.
//
// Rotating coordinator, asynchronous rounds, four phases per round:
//   1. every process sends its (estimate, ts) to the round's coordinator;
//   2. the coordinator waits for a majority of estimates, picks the one
//      with the largest timestamp and broadcasts it as the proposal;
//   3. every process waits for the proposal -- on reception it adopts the
//      value (ts := round) and acks; if instead its failure detector
//      suspects the coordinator it nacks -- and then moves to the next
//      round immediately;
//   4. the coordinator waits for replies: a single nack sends it to the
//      next round (the paper's formulation); a majority of acks lets it
//      decide and broadcast the decision.
//
// The coordinator handles its own estimate/proposal/ack locally (no
// network traffic). Requires a majority of correct processes. The instance
// lifecycle (propose, decide, GC, durable replay, membership) is
// ConsensusLayer's; this layer adds the rounds.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "consensus/consensus_layer.hpp"

namespace sanperf::consensus {

namespace detail {

struct EstimateSet {
  std::int32_t count = 0;   ///< estimates received (including the local one)
  std::vector<std::int64_t> best_value;
  std::int32_t best_ts = -1;

  void add(const std::vector<std::int64_t>& value, std::int32_t ts) {
    ++count;
    if (ts > best_ts) {
      best_ts = ts;
      best_value = value;
    }
  }
};

struct CtInstance : InstanceCore {
  enum class Phase : std::uint8_t {
    kIdle,            ///< not started
    kCoordWaitEst,    ///< phase 2 (self is coordinator)
    kWaitProp,        ///< phase 3 (participant waiting for the proposal)
    kCoordWaitReply,  ///< phase 4 (self is coordinator)
    kDone,
  };
  Phase phase = Phase::kIdle;
  std::int32_t ts = 0;  ///< round in which `estimate` was adopted
  std::map<std::int32_t, EstimateSet> ests;       // per round
  std::map<std::int32_t, std::int32_t> acks;      // per round (incl. own)
  std::map<std::int32_t, std::int32_t> nacks;     // per round
  std::map<std::int32_t, Message> buffered_props; // proposals for future rounds
};

}  // namespace detail

class CtConsensus : public ConsensusLayer<CtConsensus, detail::CtInstance> {
 public:
  /// `fd` must outlive the layer; its suspicions drive phase-3 nacks.
  explicit CtConsensus(FailureDetector& fd) : ConsensusLayer{fd} {}

  /// Aggregate protocol counters across all instances (diagnostics).
  struct Stats {
    std::uint64_t rounds_entered = 0;
    std::uint64_t estimates_sent = 0;
    std::uint64_t proposals_sent = 0;
    std::uint64_t acks_sent = 0;
    std::uint64_t nacks_sent = 0;
    std::uint64_t rounds_aborted = 0;  ///< as coordinator, on a nack
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  friend ConsensusLayer;
  using Phase = Instance::Phase;
  static constexpr const char* kName = "CtConsensus";

  // ConsensusLayer hooks.
  static bool is_round_message(MsgKind kind) {
    return kind == MsgKind::kEstimate || kind == MsgKind::kPropose || kind == MsgKind::kAck ||
           kind == MsgKind::kNack;
  }
  void advance_round(std::int32_t cid, Instance& inst);
  void on_round_message(Instance& inst, const Message& m);
  void on_suspected(std::int32_t cid, Instance& inst, HostId peer);
  static void record_extra(DurableLog::InstanceState& rec, const Instance& inst) {
    rec.ts = inst.ts;
  }
  void reenter_round(std::int32_t cid, Instance& inst, const DurableLog::InstanceState& rec);
  void answer_replay_query(Instance& inst, const Message& m);

  void record_estimate(std::int32_t cid, Instance& inst, std::int32_t round,
                       const std::vector<std::int64_t>& value, std::int32_t ts);
  void maybe_propose(std::int32_t cid, Instance& inst);
  void handle_proposal(std::int32_t cid, Instance& inst, const Message& m);
  void maybe_conclude_round(std::int32_t cid, Instance& inst);
  void send_nack(std::int32_t cid, Instance& inst);

  Stats stats_;
};

extern template class ConsensusLayer<CtConsensus, detail::CtInstance>;

}  // namespace sanperf::consensus
