// The Mostefaoui-Raynal consensus algorithm for the <>S failure detector
// (Mostefaoui & Raynal, DISC 1999) -- the "alternative protocol" the
// paper's Section 6 plans to compare against.
//
// Rotating coordinator, two communication steps per round:
//   1. the round's coordinator broadcasts its estimate;
//   2. every process waits for that estimate OR a suspicion of the
//      coordinator, then broadcasts AUX = the estimate or bottom to all;
//   3. on a majority of AUX values for the round:
//        all equal to v (no bottom)  -> decide v,
//        some v present              -> adopt v, next round,
//        all bottom                  -> next round.
//
// Compared with Chandra-Toueg: one fewer communication step on the decision
// path (coordinator bcast + all-to-all vs estimate + proposal + ack), but
// Theta(n^2) messages per round instead of Theta(n). Failure-free, the
// shorter path wins. Under a coordinator crash MR pays a full all-to-all
// round of bottoms before rotating, whereas CT processes that already
// suspect the coordinator advance after cheap nacks -- so CT recovers
// faster, increasingly so with n. The ext_algorithms bench quantifies both
// regimes. The instance lifecycle (propose, decide, GC, durable replay,
// membership) is ConsensusLayer's; this layer adds the rounds.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "consensus/consensus_layer.hpp"

namespace sanperf::consensus {

namespace detail {

struct AuxSet {
  std::int32_t value_count = 0;   ///< AUX carrying the coordinator value
  std::int32_t bottom_count = 0;  ///< AUX carrying bottom
  std::vector<std::int64_t> value;  ///< the (unique) non-bottom value seen

  void add(bool bottom, const std::vector<std::int64_t>& v) {
    if (bottom) {
      ++bottom_count;
    } else {
      ++value_count;
      value = v;
    }
  }
};

struct MrInstance : InstanceCore {
  enum class Phase : std::uint8_t {
    kIdle,
    kWaitCoord,  ///< waiting for the coordinator's estimate (or suspicion)
    kWaitAux,    ///< AUX sent, collecting a majority of AUX values
    kDone,
  };
  Phase phase = Phase::kIdle;
  std::map<std::int32_t, std::vector<std::int64_t>> coord_ests;  ///< buffered per round
  std::map<std::int32_t, AuxSet> aux;                            ///< per round
  /// Our own AUX per round, kept (durable mode only) so a REPLAYQ from a
  /// restarted peer can be answered even after we moved past its round.
  std::map<std::int32_t, Message> sent_aux;
};

}  // namespace detail

class MrConsensus : public ConsensusLayer<MrConsensus, detail::MrInstance> {
 public:
  /// `fd` must outlive the layer; suspecting a round's coordinator makes
  /// the waiting processes vote bottom.
  explicit MrConsensus(FailureDetector& fd) : ConsensusLayer{fd} {}

  struct Stats {
    std::uint64_t rounds_entered = 0;
    std::uint64_t coord_broadcasts = 0;
    std::uint64_t aux_broadcasts = 0;
    std::uint64_t bottom_aux = 0;  ///< AUX messages carrying bottom
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  friend ConsensusLayer;
  using Phase = Instance::Phase;
  static constexpr const char* kName = "MrConsensus";

  // ConsensusLayer hooks.
  static bool is_round_message(MsgKind kind) {
    return kind == MsgKind::kCoordEst || kind == MsgKind::kAux;
  }
  void advance_round(std::int32_t cid, Instance& inst);
  void on_round_message(Instance& inst, const Message& m);
  void on_suspected(std::int32_t cid, Instance& inst, HostId peer);
  static void record_extra(DurableLog::InstanceState& rec, const Instance& /*inst*/) {
    rec.aux_sent = false;  // send_aux re-records once the round's vote is cast
  }
  void reenter_round(std::int32_t cid, Instance& inst, const DurableLog::InstanceState& rec);
  void answer_replay_query(Instance& inst, const Message& m);

  void send_aux(std::int32_t cid, Instance& inst, bool bottom,
                const std::vector<std::int64_t>& value);
  void maybe_conclude(std::int32_t cid, Instance& inst);

  Stats stats_;
};

extern template class ConsensusLayer<MrConsensus, detail::MrInstance>;

}  // namespace sanperf::consensus
