// sanperf_ref -- a fixed computation whose run time tracks how fast the
// host is running right now.
//
//   sanperf_ref        prints {"wall_s": ...}
//
// bench.py runs this before every repetition of a workload and scales the
// workload's times by REFERENCE_S over this kernel's time (see its
// host_factors), so a time reads as it would on a host where this kernel
// takes REFERENCE_S. On a shared VM the speed of a core drifts by a third
// and more within minutes; the ratio of two event-loop computations moves
// much less.
//
// The kernel is a small discrete-event loop: a std::priority_queue pending
// set, one type-erased action per event, and node allocations coming and
// going, on a working set that fits the private cache. It links nothing of
// the sanperf library, so no change to the library can move it.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <queue>
#include <random>
#include <utility>
#include <vector>

int main() {
  constexpr std::uint32_t kPending = 4096;
  constexpr std::uint32_t kKeys = 8192;
  constexpr std::uint32_t kSteps = 300'000;

  const auto t0 = std::chrono::steady_clock::now();
  std::mt19937_64 rng{20020612};
  std::uniform_real_distribution<double> delay{0.0, 1.0};
  using Event = std::pair<double, std::uint32_t>;
  std::priority_queue<Event, std::vector<Event>, std::greater<>> pending;
  std::map<std::uint32_t, std::unique_ptr<std::vector<double>>> live;
  double now = 0;
  double acc = 0;
  for (std::uint32_t i = 0; i < kPending; ++i) pending.push({delay(rng), i});
  for (std::uint32_t step = 0; step < kSteps; ++step) {
    const Event e = pending.top();
    pending.pop();
    now = e.first;
    const std::function<double()> action = [&now, e] { return now * 0.5 + e.second; };
    acc += action();
    pending.push({now + delay(rng), e.second});
    const auto key = static_cast<std::uint32_t>(rng() % kKeys);
    if (const auto it = live.find(key); it == live.end()) {
      live.emplace(key, std::make_unique<std::vector<double>>(8, now));
    } else {
      acc += it->second->front();
      live.erase(it);
    }
  }
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  // acc is printed so the loop cannot be optimized away.
  std::printf("{\"wall_s\": %.9f, \"checksum\": %.17g}\n", wall_s, acc);
  return 0;
}
