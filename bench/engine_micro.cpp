// Microbenchmarks of the substrates: event queue, SAN firing loop,
// contention network, consensus emulation, SAN consensus replication, and
// the parallel replication engine's thread scaling.
#include <benchmark/benchmark.h>

#include <any>
#include <deque>

#include "consensus/ct_consensus.hpp"
#include "core/measurement.hpp"
#include "core/replication.hpp"
#include "core/workload.hpp"
#include "des/event_queue.hpp"
#include "des/simulator.hpp"
#include "fd/failure_detector.hpp"
#include "net/network.hpp"
#include "runtime/cluster.hpp"
#include "san/simulator.hpp"
#include "sanmodels/consensus_model.hpp"

namespace {

using namespace sanperf;

void BM_EventQueuePushPop(benchmark::State& state) {
  des::RandomEngine rng{1};
  des::EventQueue q;
  for (auto _ : state) {
    for (int i = 0; i < 64; ++i) {
      q.push(des::TimePoint::origin() + des::Duration::nanos(rng.uniform_int(0, 1'000'000)),
             [] {});
    }
    while (!q.empty()) benchmark::DoNotOptimize(q.pop().id);
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_EventQueuePushPop);

// Cancellation under a standing backlog: the dominant failure-detector
// pattern (arm a timeout, cancel it when the heartbeat arrives). With the
// indexed heap this is a true O(log n) removal and zero allocations; the
// old lazy-deletion design left a dead entry to churn through the heap.
void BM_EventQueueCancel(benchmark::State& state) {
  des::RandomEngine rng{2};
  des::EventQueue q;
  std::vector<des::EventId> backlog;
  for (int i = 0; i < 256; ++i) {
    backlog.push_back(
        q.push(des::TimePoint::origin() + des::Duration::nanos(rng.uniform_int(0, 1'000'000)),
               [] {}));
  }
  std::size_t cursor = 0;
  for (auto _ : state) {
    for (int i = 0; i < 64; ++i) {
      const des::EventId victim = backlog[cursor];
      benchmark::DoNotOptimize(q.cancel(victim));
      backlog[cursor] =
          q.push(des::TimePoint::origin() + des::Duration::nanos(rng.uniform_int(0, 1'000'000)),
                 [] {});
      cursor = (cursor + 1) % backlog.size();
    }
  }
  state.SetItemsProcessed(state.iterations() * 64);
  state.counters["slab_slots"] = static_cast<double>(q.slot_capacity());
}
BENCHMARK(BM_EventQueueCancel);

// The classic hold model at a standing pending-set size (the Arg): pop the
// earliest event, push a replacement at a random future offset. The cost
// per op grows with log(pending): heap comparisons and cache misses down
// the sift. A single cluster run keeps a few hundred events pending; the
// larger args show how the queue behaves for much bigger simulations.
void BM_EventQueueHold(benchmark::State& state) {
  const auto pending = static_cast<std::size_t>(state.range(0));
  des::RandomEngine rng{5};
  des::EventQueue q;
  des::TimePoint now = des::TimePoint::origin();
  for (std::size_t i = 0; i < pending; ++i) {
    q.push(now + des::Duration::nanos(rng.uniform_int(0, 1'000'000)), [] {});
  }
  for (auto _ : state) {
    const auto popped = q.pop();
    now = popped.at;
    benchmark::DoNotOptimize(
        q.push(now + des::Duration::nanos(rng.uniform_int(1, 1'000'000)), [] {}));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventQueueHold)->Arg(1 << 10)->Arg(1 << 14)->Arg(1 << 17)->Arg(1 << 20);

// The hold model of a consensus stream: 16 near-term events, each replaced
// 1..1000 ns ahead as it fires, over a standing window of `deadlines`
// fixed-delay (1 ms) deadlines that replace themselves as they fire, the
// way each instance arms a give-up timer of one length. With `lane` = 0
// the deadlines are pushed with push() and every pop sifts through them;
// with `lane` = 1 they go through push_deadline() and only the lane's front
// sits in the heap.
void BM_EventQueueHoldDeadlines(benchmark::State& state) {
  const std::int64_t deadlines = state.range(0);
  const bool lane = state.range(1) != 0;
  constexpr std::int64_t kDelayNs = 1'000'000;
  des::RandomEngine rng{5};
  des::EventQueue q;
  bool deadline = false;
  const auto at = [](std::int64_t ns) {
    return des::TimePoint::origin() + des::Duration::nanos(ns);
  };
  const auto near_term = [&deadline] { deadline = false; };
  const auto give_up = [&deadline] { deadline = true; };
  const auto push_deadline = [&](std::int64_t ns) {
    return lane ? q.push_deadline(at(ns), give_up) : q.push(at(ns), give_up);
  };
  for (int i = 0; i < 16; ++i) q.push(at(rng.uniform_int(1, 1000)), near_term);
  for (std::int64_t i = 0; i < deadlines; ++i) push_deadline(kDelayNs * i / deadlines);
  for (auto _ : state) {
    auto popped = q.pop();
    popped.action();
    const std::int64_t now = popped.at.ns();
    benchmark::DoNotOptimize(deadline ? push_deadline(now + kDelayNs)
                                      : q.push(at(now + rng.uniform_int(1, 1000)), near_term));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventQueueHoldDeadlines)
    ->ArgsProduct({{0, 256, 1024, 4096}, {0, 1}})
    ->ArgNames({"deadlines", "lane"});

void BM_SimulatorEventChain(benchmark::State& state) {
  for (auto _ : state) {
    des::Simulator sim;
    int remaining = 1024;
    std::function<void()> chain = [&] {
      if (--remaining > 0) sim.schedule(des::Duration::nanos(10), chain);
    };
    sim.schedule(des::Duration::nanos(10), chain);
    sim.run();
    benchmark::DoNotOptimize(sim.events_processed());
  }
  state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_SimulatorEventChain);

void BM_NetworkUnicastThroughput(benchmark::State& state) {
  for (auto _ : state) {
    des::Simulator sim;
    net::ContentionNetwork netw{sim, des::RandomEngine{2}, net::NetworkParams::defaults(), 4};
    std::uint64_t delivered = 0;
    netw.set_deliver([&](const net::Packet&) { ++delivered; });
    for (int i = 0; i < 256; ++i) netw.send(i % 3, 3, std::any{});
    sim.run();
    benchmark::DoNotOptimize(delivered);
  }
  state.SetItemsProcessed(state.iterations() * 256);
}
BENCHMARK(BM_NetworkUnicastThroughput);

void BM_ConsensusEmulation(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::uint64_t seed = 1;
  for (auto _ : state) {
    const auto res = core::measure_latency(n, net::NetworkParams::defaults(),
                                           net::TimerModel::ideal(), -1, 1, seed++);
    benchmark::DoNotOptimize(res.latencies_ms);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ConsensusEmulation)->Arg(3)->Arg(5)->Arg(11);

void BM_SanConsensusReplication(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  sanmodels::ConsensusSanConfig cfg;
  cfg.n = n;
  cfg.transport = sanmodels::TransportParams::nominal(n);
  const auto model = sanmodels::build_consensus_san(cfg);
  san::SanSimulator sim{model.model, des::RandomEngine{3}};
  sim.set_stop_predicate(model.stop_predicate());
  const des::RandomEngine master{4};
  std::uint64_t rep = 0;
  for (auto _ : state) {
    sim.reset(master.substream("rep", rep++));
    benchmark::DoNotOptimize(sim.run(des::Duration::seconds(5)).end_time);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SanConsensusReplication)->Arg(3)->Arg(5);

// Thread scaling of a SAN replication campaign through the engine. The
// merged statistics are bit-identical across the Arg values; only the wall
// clock changes (real time is the honest metric here).
void BM_ReplicationEngineSan(benchmark::State& state) {
  const core::ReplicationRunner runner{static_cast<std::size_t>(state.range(0))};
  sanmodels::ConsensusSanConfig cfg;
  cfg.n = 5;
  cfg.transport = sanmodels::TransportParams::nominal(5);
  const auto model = sanmodels::build_consensus_san(cfg);
  san::TransientStudy study{model.model, model.stop_predicate()};
  study.set_time_limit(des::Duration::seconds(10));
  for (auto _ : state) {
    const auto res = core::run_study(runner, study, 1000, 42);
    benchmark::DoNotOptimize(res.summary.mean());
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_ReplicationEngineSan)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// Thread scaling of the emulated-cluster measurement campaign (the Fig 7a
// inner loop) through the engine.
void BM_ReplicationEngineEmulation(benchmark::State& state) {
  const core::ReplicationRunner runner{static_cast<std::size_t>(state.range(0))};
  for (auto _ : state) {
    const auto res = core::measure_latency(5, net::NetworkParams::defaults(),
                                           net::TimerModel::ideal(), -1, 64, 42, runner);
    benchmark::DoNotOptimize(res.latencies_ms);
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_ReplicationEngineEmulation)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// Thread scaling of a whole flattened campaign: a Fig 7a-shaped sweep
// (several group sizes x replications) enumerated as one ShardSpace, so the
// outer grid sweep and the inner replication loops drain from a single
// batch. Results are bit-identical across the Arg values.
void BM_FlatCampaignSan(benchmark::State& state) {
  const core::ReplicationRunner runner{static_cast<std::size_t>(state.range(0))};
  const std::vector<std::size_t> ns = {3, 5};
  std::deque<sanmodels::ConsensusSanModel> models;  // address-stable under the studies
  std::vector<san::TransientStudy> studies;
  for (const std::size_t n : ns) {
    sanmodels::ConsensusSanConfig cfg;
    cfg.n = n;
    cfg.transport = sanmodels::TransportParams::nominal(n);
    models.push_back(sanmodels::build_consensus_san(cfg));
    studies.emplace_back(models.back().model, models.back().stop_predicate());
    studies.back().set_time_limit(des::Duration::seconds(10));
  }
  core::ShardSpace space;
  for (std::size_t g = 0; g < ns.size(); ++g) space.add_group(256, 42 + g);
  for (auto _ : state) {
    const auto rewards = runner.run_flat(space, [&](const core::ShardSpace::Task& t) {
      return studies[t.group].run_one(des::RandomEngine{t.seed});
    });
    benchmark::DoNotOptimize(rewards.front().size());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(space.size()));
}
BENCHMARK(BM_FlatCampaignSan)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// The amortisation claim behind the workload engine: one persistent
// cluster streaming 256 isolated instances (10 ms separation, the
// sequencer regime) vs the legacy approach of 256 fresh clusters. Same
// instance count, same isolation; the delta is construction overhead
// (processes, network, RNG substreams, layer stacks).
void BM_WorkloadEnginePersistent(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  core::WorkloadConfig cfg;
  cfg.n = n;
  cfg.timers = net::TimerModel::ideal();
  cfg.seed = 42;
  core::WorkloadSpec spec;
  spec.arrivals = core::ArrivalProcess::kBurst;
  spec.separation_ms = 10.0;
  spec.warmup = 0;
  spec.measured = 256;
  for (auto _ : state) {
    const auto res = core::run_workload(cfg, spec);
    benchmark::DoNotOptimize(res.stats.mean_latency_ms);
  }
  state.SetItemsProcessed(state.iterations() * 256);
}
BENCHMARK(BM_WorkloadEnginePersistent)->Arg(3)->Arg(5)->Unit(benchmark::kMillisecond);

void BM_WorkloadEngineFreshClusters(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const des::SeedSplitter seeds{42, "exec"};
  for (auto _ : state) {
    double acc = 0;
    for (std::size_t k = 0; k < 256; ++k) {
      const auto out = core::run_latency_execution(n, net::NetworkParams::defaults(),
                                                   net::TimerModel::ideal(), -1, k,
                                                   seeds.stream_seed(k));
      if (out.latency_ms) acc += *out.latency_ms;
    }
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() * 256);
}
BENCHMARK(BM_WorkloadEngineFreshClusters)->Arg(3)->Arg(5)->Unit(benchmark::kMillisecond);

// The open-loop stream at a saturating offered load: the regime the
// load_latency_sweep scenario measures (overlapping instances, queueing).
void BM_WorkloadEngineOpenLoop(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  core::WorkloadConfig cfg;
  cfg.n = n;
  cfg.timers = net::TimerModel::ideal();
  cfg.seed = 42;
  core::WorkloadSpec spec;
  spec.arrivals = core::ArrivalProcess::kOpenLoop;
  spec.offered_per_s = 600;
  spec.warmup = 16;
  spec.measured = 240;
  for (auto _ : state) {
    const auto res = core::run_workload(cfg, spec);
    benchmark::DoNotOptimize(res.stats.delivered_per_s);
  }
  state.SetItemsProcessed(state.iterations() * 240);
}
BENCHMARK(BM_WorkloadEngineOpenLoop)->Arg(3)->Arg(5)->Unit(benchmark::kMillisecond);

// Batched consensus at a fixed offered *value* rate past the unbatched
// instance knee (~376 inst/s at n = 5): Arg is the batch size. Larger
// batches divide the instance rate -- and the simulated event count -- by
// the batch, so both delivered values/s and host-side bench throughput
// rise with Arg.
void BM_BatchedConsensus(benchmark::State& state) {
  const auto batch = static_cast<std::size_t>(state.range(0));
  core::WorkloadConfig cfg;
  cfg.n = 5;
  cfg.timers = net::TimerModel::ideal();
  cfg.seed = 42;
  core::WorkloadSpec spec;
  spec.arrivals = core::ArrivalProcess::kOpenLoop;
  spec.offered_per_s = 2000;  // values/s
  spec.warmup = 32;
  spec.measured = 480;
  spec.batch_size = batch;
  spec.batch_linger_ms = 10.0;
  volatile double delivered = 0;  // volatile: the counter read is after the loop
  for (auto _ : state) {
    const auto res = core::run_workload(cfg, spec);
    delivered = res.value_stats.delivered_per_s;
  }
  state.SetItemsProcessed(state.iterations() * 480);  // client values
  state.counters["values_per_s_sim"] = delivered;
}
BENCHMARK(BM_BatchedConsensus)->Arg(1)->Arg(4)->Arg(16)->Arg(32)
    ->Unit(benchmark::kMillisecond);

void BM_SanModelBuild(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    sanmodels::ConsensusSanConfig cfg;
    cfg.n = n;
    cfg.transport = sanmodels::TransportParams::nominal(n);
    const auto model = sanmodels::build_consensus_san(cfg);
    benchmark::DoNotOptimize(model.model.activity_count());
  }
}
BENCHMARK(BM_SanModelBuild)->Arg(3)->Arg(5);

}  // namespace

BENCHMARK_MAIN();
