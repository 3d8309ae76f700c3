#include "des/simulator.hpp"

#include <string>

namespace sanperf::des {

bool Simulator::step() {
  if (queue_.empty()) return false;
  auto ev = queue_.pop();
  SANPERF_AUDIT_CHECK("des.monotonic_time", ev.at >= now_,
                      "event at " + std::to_string(ev.at.to_ms()) + " ms behind clock " +
                          std::to_string(now_.to_ms()) + " ms");
  now_ = ev.at;
  ++processed_;
  ev.action();
  return true;
}

void Simulator::run() {
  stopped_ = false;
  while (!stopped_ && step()) {
  }
}

void Simulator::run_until(TimePoint deadline) {
  stopped_ = false;
  while (!stopped_ && !queue_.empty()) {
    if (queue_.next_time() > deadline) break;
    step();
  }
  if (now_ < deadline && !stopped_) now_ = deadline;
}

void Simulator::reset() {
  queue_.clear();
  now_ = TimePoint::origin();
  processed_ = 0;
  stopped_ = false;
}

}  // namespace sanperf::des
