// The record every consensus harness returns per instance: the one-shot
// (core::run_one_shot), the class-3 sequencer and the workload streams
// (core::run_workload) all report an instance as its start and the
// latency of its first decision.
#pragma once

#include <cstdint>
#include <optional>

#include "des/time.hpp"

namespace sanperf::consensus {

struct ExecutionResult {
  std::int32_t cid = 0;
  std::int32_t rounds = 0;           ///< rounds used by the first decider
  double start_ms = 0;               ///< nominal common start
  std::optional<double> latency_ms;  ///< first decision - start; empty = undecided

  /// Instance `cid` started at `start` and first decided at `decided_at`
  /// in `rounds` rounds, or never.
  [[nodiscard]] static ExecutionResult of(std::int32_t cid, des::TimePoint start,
                                          std::optional<des::TimePoint> decided_at,
                                          std::int32_t rounds) {
    ExecutionResult res;
    res.cid = cid;
    res.start_ms = start.to_ms();
    if (decided_at) {
      res.latency_ms = (*decided_at - start).to_ms();
      res.rounds = rounds;
    }
    return res;
  }

  [[nodiscard]] bool decided() const { return latency_ms.has_value(); }
  [[nodiscard]] double decide_ms() const { return start_ms + *latency_ms; }
};

}  // namespace sanperf::consensus
