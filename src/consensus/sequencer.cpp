#include "consensus/sequencer.hpp"

#include <algorithm>
#include <optional>

#include "consensus/ct_consensus.hpp"

namespace sanperf::consensus {

namespace {

/// Between the beginnings of consecutive executions.
constexpr des::Duration kSeparation = des::Duration::millis(10);
/// Give up on an execution after this long (counts as undecided).
constexpr des::Duration kGiveUp = des::Duration::millis(5000);
/// Quiet time after a late decision before the next start.
constexpr des::Duration kSettleGap = des::Duration::millis(2);

}  // namespace

std::vector<ExecutionResult> ConsensusSequencer::run() {
  // One shared first-decision slot per execution, filled by the
  // per-process decide callbacks.
  struct FirstDecision {
    std::optional<des::TimePoint> at;
    std::int32_t rounds = 0;
  };
  std::vector<FirstDecision> first(cfg_.executions);

  // Register on every process, crashed or not: a host down at arm time may
  // warm-restart mid-run (fault injection) and its decisions must count.
  for (runtime::HostId pid = 0; pid < static_cast<runtime::HostId>(cluster_->n()); ++pid) {
    cluster_->process(pid).layer<CtConsensus>().set_decide_callback(
        [&first](const DecisionEvent& ev) {
          if (ev.cid < 0 || static_cast<std::size_t>(ev.cid) >= first.size()) return;
          auto& slot = first[static_cast<std::size_t>(ev.cid)];
          if (!slot.at || ev.at < *slot.at) {
            slot.at = ev.at;
            slot.rounds = ev.round;
          }
        });
  }

  auto skew_rng = cluster_->rng_stream("ntp-skew");
  std::vector<ExecutionResult> results;
  results.reserve(cfg_.executions);
  des::TimePoint t0 = cluster_->now() + kSeparation;
  for (std::size_t k = 0; k < cfg_.executions; ++k) {
    // Every process's propose is scheduled inside the NTP window. Liveness
    // is checked when the propose fires, not here: a host that
    // warm-restarts between now and t0 must take part (it coordinates
    // round 1 of every instance, and the others trust it again by then).
    const auto cid = static_cast<std::int32_t>(k);
    for (runtime::HostId pid = 0; pid < static_cast<runtime::HostId>(cluster_->n()); ++pid) {
      auto& proc = cluster_->process(pid);
      const des::TimePoint start = t0 + draw_ntp_start_offset(skew_rng);
      cluster_->sim().schedule_at(start, [&proc, cid] {
        if (!proc.crashed()) proc.layer<CtConsensus>().propose(cid, 1000 + proc.id());
      });
    }

    cluster_->run_until([&] { return first[k].at.has_value(); }, t0 + kGiveUp);

    results.push_back(ExecutionResult::of(cid, t0, first[k].at, first[k].rounds));

    // Next start: the separation, pushed back when a slow execution would
    // otherwise overlap (footnote 2).
    t0 = std::max(t0 + kSeparation, first[k].at.value_or(cluster_->now()) + kSettleGap);
  }

  // The callbacks write into this frame's slots; a caller that keeps
  // running the cluster must not reach them.
  for (runtime::HostId pid = 0; pid < static_cast<runtime::HostId>(cluster_->n()); ++pid) {
    cluster_->process(pid).layer<CtConsensus>().set_decide_callback(nullptr);
  }
  experiment_end_ = cluster_->now();
  return results;
}

}  // namespace sanperf::consensus
