// sanperf_bench -- the benchmark program behind bench.py.
//
//   sanperf_bench list                      workloads, one JSON object
//   sanperf_bench info                      compiler and build type
//   sanperf_bench rep <workload> --seed S --threads T --out DIR [--trace FILE]
//   sanperf_bench probe --seed S --threads T [--trace FILE]
//
// `rep` runs ONE repetition of one workload: a set-up phase (context
// calibration, grid enumeration, configs, topologies and fault plans), then
// the measured phase, which is nothing but public library calls. It writes
// the produced tables as CSV into DIR and prints one JSON line with the
// timings. `probe` runs the per-layer probes (single layers driven through
// their public APIs) and prints their numbers. With --trace, both record a
// span around every library call they make and write the spans to FILE as
// Chrome trace-event JSON; the library itself is never instrumented.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "consensus/ct_consensus.hpp"
#include "consensus/sequencer.hpp"
#include "core/campaign.hpp"
#include "core/json.hpp"
#include "core/measurement.hpp"
#include "core/replication.hpp"
#include "core/result_table.hpp"
#include "core/workload.hpp"
#include "des/random.hpp"
#include "des/simulator.hpp"
#include "faults/plan.hpp"
#include "fd/heartbeat_fd.hpp"
#include "net/network.hpp"
#include "runtime/cluster.hpp"
#include "san/study.hpp"
#include "sanmodels/consensus_model.hpp"
#include "topo/topology.hpp"

namespace {

using namespace sanperf;
using Clock = std::chrono::steady_clock;

const Clock::time_point kProcessStart = Clock::now();

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

template <typename Fn>
double time_s(Fn&& fn) {
  const auto t0 = Clock::now();
  fn();
  return seconds_between(t0, Clock::now());
}

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

/// Peak resident set of this process image in MB (VmHWM). Not getrusage's
/// ru_maxrss: that survives exec, so it would report the high-water mark of
/// the process that spawned this one when that was larger.
double peak_rss_mb() {
  std::ifstream status{"/proc/self/status"};
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  throw std::runtime_error{"no VmHWM in /proc/self/status"};
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t h = v.size() / 2;
  return v.size() % 2 == 1 ? v[h] : 0.5 * (v[h - 1] + v[h]);
}

// Results of timed loops land here so the optimizer cannot drop the work.
volatile double g_sink = 0;
void sink(double v) { g_sink = g_sink + v; }

// --- JSON output ------------------------------------------------------------

using core::detail::write_json_number;
using core::detail::write_json_string;

void write_json_object(std::ostream& os, const std::map<std::string, double>& values) {
  os << '{';
  const char* sep = "";
  for (const auto& [key, value] : values) {
    os << sep;
    write_json_string(os, key);
    os << ": ";
    write_json_number(os, value);
    sep = ", ";
  }
  os << '}';
}

// --- Spans ------------------------------------------------------------------

/// In-memory spans around the benchmark's own library calls. Recording is
/// off unless --trace is given; spans are written out once, at exit.
class Tracer {
 public:
  struct Span {
    std::string name;
    double start_s = 0;
    double end_s = 0;
    int parent = -1;
    int tid = 0;
  };

  void enable() { enabled_ = true; }
  [[nodiscard]] bool enabled() const { return enabled_; }

  /// The innermost open span on this thread (-1 for none).
  [[nodiscard]] static int current() { return tl_current; }

  int open(std::string name, int parent) {
    const double now = seconds_between(kProcessStart, Clock::now());
    std::lock_guard lock{mutex_};
    spans_.push_back(Span{std::move(name), now, now, parent, thread_id()});
    const int id = static_cast<int>(spans_.size()) - 1;
    tl_current = id;
    return id;
  }

  void close(int id, int restore) {
    const double now = seconds_between(kProcessStart, Clock::now());
    std::lock_guard lock{mutex_};
    spans_[static_cast<std::size_t>(id)].end_s = now;
    tl_current = restore;
  }

  /// Per span name: count and total duration.
  void write_summary(std::ostream& os) const {
    std::lock_guard lock{mutex_};
    std::map<std::string, std::map<std::string, double>> by_name;
    for (const Span& s : spans_) {
      auto& totals = by_name[s.name];
      totals["count"] += 1;
      totals["total_s"] += s.end_s - s.start_s;
    }
    os << '{';
    const char* sep = "";
    for (const auto& [name, totals] : by_name) {
      os << sep;
      write_json_string(os, name);
      os << ": ";
      write_json_object(os, totals);
      sep = ", ";
    }
    os << '}';
  }

  void write_chrome_trace(const std::string& path) const {
    std::lock_guard lock{mutex_};
    std::ofstream os{path};
    if (!os) throw std::runtime_error{"cannot write trace file " + path};
    os << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      os << (i == 0 ? "" : ",\n") << "{\"name\": ";
      write_json_string(os, s.name);
      os << ", \"cat\": \"bench\", \"ph\": \"X\", \"pid\": 1, \"tid\": " << s.tid << ", \"ts\": ";
      write_json_number(os, s.start_s * 1e6);
      os << ", \"dur\": ";
      write_json_number(os, (s.end_s - s.start_s) * 1e6);
      os << ", \"args\": {\"id\": " << i << ", \"parent\": " << s.parent << "}}";
    }
    os << "\n]}\n";
  }

 private:
  static int thread_id() {
    static std::atomic<int> next{0};
    thread_local const int id = next++;
    return id;
  }

  static thread_local int tl_current;
  bool enabled_ = false;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

thread_local int Tracer::tl_current = -1;

Tracer g_tracer;

/// Records one span for its lifetime when tracing is on; free otherwise.
class ScopedSpan {
 public:
  explicit ScopedSpan(std::string name, int parent = Tracer::current()) {
    if (!g_tracer.enabled()) return;
    restore_ = Tracer::current();
    id_ = g_tracer.open(std::move(name), parent);
  }
  ~ScopedSpan() {
    if (id_ >= 0) g_tracer.close(id_, restore_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  int id_ = -1;
  int restore_ = -1;
};

// --- Workloads --------------------------------------------------------------

/// One prepared repetition: set-up products, the measured calls in order,
/// and the tables those calls produce.
class Rep {
 public:
  Rep(std::uint64_t seed, const core::ReplicationRunner& runner)
      : seed_{seed}, runner_{&runner} {}
  // The queued calls hold `this`.
  Rep(const Rep&) = delete;
  Rep& operator=(const Rep&) = delete;

  [[nodiscard]] std::uint64_t seed() const { return seed_; }

  /// Queues one registered scenario, exactly as `sanperf run <scenario>
  /// --scale <scale> --seed <seed> --set ...` would run it: calibration (if
  /// the spec needs it) and grid enumeration happen here, in set-up.
  void add_scenario(const std::string& label, const std::string& scenario,
                    const core::Scale& scale,
                    const std::map<std::string, std::string>& overrides = {}) {
    const core::ScenarioSpec* spec = core::CampaignRegistry::global().find(scenario);
    if (spec == nullptr) throw std::invalid_argument{"unknown scenario " + scenario};
    core::ParamGrid grid = core::CampaignRegistry::grid(*spec, scale, overrides);
    const core::PaperContext& ctx = context(scale, spec->needs_calibration);
    calls_.push_back({"campaign." + label, [this, label, spec, grid = std::move(grid), &ctx] {
                        outputs_.emplace_back(label,
                                              spec->run(core::ScenarioRun{ctx, grid, nullptr}));
                      }});
  }

  /// Queues one run_workload stream; its statistics go to streams.csv.
  void add_stream(const std::string& label, const core::WorkloadConfig& cfg,
                  const core::WorkloadSpec& spec) {
    const std::size_t slot = streams_.size();
    streams_.push_back({label, {}});
    calls_.push_back({"workload." + label, [this, slot, cfg, spec] {
                        streams_[slot].second = core::run_workload(cfg, spec);
                      }});
  }

  /// Library calls of a given kind the measured phase makes, keyed by the
  /// per-layer probe metric that prices one of them (see bench.py's
  /// accounted_share).
  void count(const std::string& probe_metric, double calls) { counts_[probe_metric] += calls; }

  void run_measured() {
    for (auto& [label, fn] : calls_) {
      ScopedSpan span{label};
      fn();
    }
  }

  /// Simulated seconds covered by the queued streams.
  [[nodiscard]] double sim_s() const {
    double ms = 0;
    for (const auto& [label, result] : streams_) ms += result.sim_duration_ms;
    return ms / 1000.0;
  }

  /// Writes every produced table to DIR/<label>.csv; returns the file names.
  std::vector<std::string> write_outputs(const std::filesystem::path& dir) const {
    std::vector<std::pair<std::string, core::ResultTable>> tables = outputs_;
    if (!streams_.empty()) tables.emplace_back("streams", stream_table());
    std::vector<std::string> files;
    for (const auto& [label, table] : tables) {
      const std::string file = label + ".csv";
      std::ofstream os{dir / file};
      if (!os) throw std::runtime_error{"cannot write " + (dir / file).string()};
      table.write_csv(os);
      files.push_back(file);
    }
    return files;
  }

  [[nodiscard]] const std::map<std::string, double>& counts() const { return counts_; }

 private:
  const core::PaperContext& context(const core::Scale& scale, bool calibrated) {
    const std::string key = scale.name() + (calibrated ? "+calibrated" : "");
    if (const auto it = contexts_.find(key); it != contexts_.end()) return it->second;
    core::PaperContext ctx;
    if (calibrated) {
      ScopedSpan span{"calibration.make_context"};
      ctx = core::make_context(scale, seed_, *runner_);
    } else {
      ctx.scale = scale;
      ctx.seed = seed_;
    }
    ctx.runner = runner_;
    return contexts_.emplace(key, std::move(ctx)).first->second;
  }

  /// Per-stream statistics, every double at %.17g (ResultTable's CSV).
  [[nodiscard]] core::ResultTable stream_table() const {
    using C = core::ResultTable::ColumnType;
    core::ResultTable table{"streams",
                            {{"stream", C::kString},
                             {"events", C::kInt},
                             {"sim_ms", C::kReal},
                             {"delivered_per_s", C::kReal},
                             {"mean_latency_ms", C::kReal},
                             {"p95_latency_ms", C::kReal},
                             {"latency_ms", C::kMeanCI},
                             {"decided", C::kInt},
                             {"undecided", C::kInt}}};
    for (const auto& [label, r] : streams_) {
      table.add_row({label, static_cast<std::int64_t>(r.events_processed), r.sim_duration_ms,
                     r.stats.delivered_per_s, r.stats.mean_latency_ms, r.stats.p95_latency_ms,
                     r.stats.latency_ci, static_cast<std::int64_t>(r.stats.decided),
                     static_cast<std::int64_t>(r.stats.undecided)});
    }
    return table;
  }

  std::uint64_t seed_;
  const core::ReplicationRunner* runner_;
  std::map<std::string, core::PaperContext> contexts_;  // node-stable: calls hold references
  std::vector<std::pair<std::string, std::function<void()>>> calls_;
  std::vector<std::pair<std::string, core::ResultTable>> outputs_;
  std::vector<std::pair<std::string, core::WorkloadResult>> streams_;
  std::map<std::string, double> counts_;
};

/// The probe metric suffix of a (group size, initially crashed host) cell:
/// ".n5", ".n5.coordinator_crash", ".n5.participant_crash".
std::string cell_suffix(std::size_t n, int crashed = -1) {
  static const char* const kCrash[] = {"", ".coordinator_crash", ".participant_crash"};
  return ".n" + std::to_string(n) + kCrash[crashed + 1];
}

constexpr int kCrashScenarios[] = {-1, 0, 1};

/// The paper's class-1/2 artifacts: thousands of short independent jobs
/// (fresh single-instance clusters and SAN transient replications) fanned
/// out over the replication runner. 400 samples per cell, a twelfth of the
/// paper's, keeps a repetition short enough to repeat ~40 times a run.
void prepare_paper_class12(Rep& rep) {
  core::Scale scale = core::Scale::defaults();
  scale.class1_executions = 400;
  scale.sim_replications = 400;
  rep.add_scenario("table1", "table1", scale);
  rep.add_scenario("fig7a", "fig7a", scale);
  rep.add_scenario("fig7b", "fig7b", scale);

  // What those three scenarios execute, for the per-layer accounting: one
  // isolated execution per sample of every (n, crash scenario) cell
  // (table1), of every n (fig7a) and of n = 5 (fig7b); one SAN replication
  // per sample of every simulated cell (table1) and t_send candidate (fig7b).
  const auto execs = static_cast<double>(scale.class1_executions);
  const auto reps = static_cast<double>(scale.sim_replications);
  for (const std::size_t n : scale.ns) {
    for (const int crashed : kCrashScenarios) {
      rep.count("consensus.one_shot_us" + cell_suffix(n, crashed), execs);
    }
    rep.count("consensus.one_shot_us" + cell_suffix(n), execs);
  }
  for (const std::size_t n : scale.sim_ns) {
    for (const int crashed : kCrashScenarios) {
      rep.count("san.rep_us" + cell_suffix(n, crashed), reps);
    }
  }
  rep.count("consensus.one_shot_us" + cell_suffix(5), execs);
  rep.count("san.rep_us" + cell_suffix(5),
            static_cast<double>(core::tsend_candidates().size()) * reps);
}

/// The paper's class-3 runs: long simulations with live heartbeat failure
/// detectors, where wrong suspicions force extra consensus rounds. fig9a
/// recomputes fig8's measurements, exactly as `sanperf run --all` does.
/// T <= 4 ms at n >= 10 is left out: the cost of five runs there swings by
/// +-10% with the seed (T = 3 ms at n = 11), and at T = 2 ms a single run
/// takes ~35 s of CPU.
void prepare_paper_class3(Rep& rep) {
  const core::Scale def = core::Scale::defaults();
  const std::map<std::string, std::string> grid = {{"n", "7,11"}, {"timeout_ms", "5,20"}};
  rep.add_scenario("fig8", "fig8", def, grid);
  rep.add_scenario("fig9a", "fig9a", def, grid);
  rep.add_scenario("fig9b", "fig9b", def, {{"timeout_ms", "20"}});
}

/// Long steady-state streams on the paper's hub at small n: instance
/// multiplexing, garbage collection, the batcher and durable-log appends.
void prepare_stream_hub(Rep& rep) {
  const core::Scale full = core::Scale::full();
  rep.add_scenario("load_latency_200", "load_latency_sweep", full,
                   {{"n", "5"}, {"offered_per_s", "200"}, {"instances", "5000"}});
  // Near CT's ~376/s knee: ~190 instances in flight.
  rep.add_scenario("load_latency_ct350", "load_latency_sweep", full,
                   {{"n", "5"}, {"algorithm", "ct"}, {"offered_per_s", "350"},
                    {"instances", "5000"}});
  rep.add_scenario("batch_throughput", "batch_throughput_sweep", full,
                   {{"batch_size", "16"}, {"instances", "25000"}});
  rep.add_scenario("recovery_under_load", "recovery_under_load", full, {{"instances", "1250"}});
}

/// Large clusters, where per-host costs of the hub show: one open-loop MR
/// stream at n = 65 and one at n = 129, shaped like scale_n_sweep.
void prepare_big_n(Rep& rep) {
  for (const std::size_t n : {65, 129}) {
    core::WorkloadConfig cfg;
    cfg.n = n;
    cfg.timers = net::TimerModel::ideal();
    cfg.algorithm = core::Algorithm::kMostefaouiRaynal;
    cfg.seed = des::derive_seed(rep.seed(), "big_n", n);
    core::WorkloadSpec spec;
    spec.arrivals = core::ArrivalProcess::kOpenLoop;
    // Theta(n^2) frames per MR instance: load ~1/n^2 keeps the medium at
    // comparable utilisation; the stream shrinks with n to bound the cost.
    const auto nd = static_cast<double>(n);
    spec.offered_per_s = 2000.0 / (nd * nd);
    spec.measured = std::max<std::size_t>(6, 2000 / n);
    spec.warmup = std::max<std::size_t>(2, spec.measured / 8);
    spec.instance_timeout_ms = 60'000.0;
    rep.add_stream("mr" + std::to_string(n), cfg, spec);
  }
}

/// Routed per-link delivery on a two-rack topology under a correlated
/// fault (the minority rack dies for 60 ms), with heartbeat detection.
void prepare_routed_faults(Rep& rep) {
  rep.add_scenario("rack_loss", "rack_loss_consensus", core::Scale::full(),
                   {{"instances", "3000"}});
}

struct WorkloadDef {
  const char* name;
  bool campaign;  ///< fans out over min(4, nproc) threads; streams use 1
  void (*prepare)(Rep&);
};

const std::vector<WorkloadDef>& workloads() {
  static const std::vector<WorkloadDef> defs = {
      {"paper_class12", true, prepare_paper_class12},
      {"paper_class3", true, prepare_paper_class3},
      {"stream_hub", false, prepare_stream_hub},
      {"big_n", false, prepare_big_n},
      {"routed_faults", false, prepare_routed_faults},
  };
  return defs;
}

// --- Per-layer probes -------------------------------------------------------

using Metrics = std::map<std::string, double>;

core::PaperContext probe_calibration(Metrics& m, std::uint64_t seed,
                                     const core::ReplicationRunner& runner) {
  core::PaperContext ctx;
  std::vector<double> t;
  for (int i = 0; i < 3; ++i) {
    t.push_back(time_s([&] { ctx = core::make_context(core::Scale::full(), seed, runner); }));
  }
  m["calibration.make_context_s"] = median(t);
  return ctx;
}

/// Mean TransientStudy::run_one on the Table 1 consensus SAN of every
/// simulated (n, crash scenario) cell, at the calibrated transport.
void probe_san(Metrics& m, const core::PaperContext& ctx, std::uint64_t seed) {
  constexpr std::size_t kReps = 1000;
  const des::SeedSplitter seeds{seed, "rep"};
  for (const std::size_t n : {3, 5}) {
    for (const int crashed : kCrashScenarios) {
      sanmodels::ConsensusSanConfig cfg;
      cfg.n = n;
      cfg.transport = ctx.transport(n);
      cfg.initially_crashed = crashed;
      const auto model = sanmodels::build_consensus_san(cfg);
      san::TransientStudy study{model.model, model.stop_predicate()};
      study.set_time_limit(des::Duration::seconds(10));
      double acc = 0;
      const double s = time_s([&] {
        for (std::size_t i = 0; i < kReps; ++i) {
          if (const auto r = study.run_one(des::RandomEngine{seeds.stream_seed(i)})) acc += *r;
        }
      });
      sink(acc);
      m["san.rep_us" + cell_suffix(n, crashed)] = s / kReps * 1e6;
    }
  }

  constexpr int kBuilds = 20;
  const double s = time_s([&] {
    for (int k = 0; k < kBuilds; ++k) {
      for (const std::size_t n : {3, 5}) {
        sanmodels::ConsensusSanConfig cfg;
        cfg.n = n;
        cfg.transport = ctx.transport(n);
        sink(static_cast<double>(sanmodels::build_consensus_san(cfg).model.activity_count()));
      }
    }
  });
  m["sanmodels.build_ms"] = s / kBuilds * 1e3;
}

void probe_random(Metrics& m, std::uint64_t seed) {
  constexpr std::size_t kDraws = 200'000;
  const des::RandomEngine master{seed};
  double acc = 0;
  const double s = time_s([&] {
    for (std::size_t i = 0; i < kDraws; ++i) {
      des::RandomEngine child = master.substream("rep", i);
      acc += child.uniform01();
    }
  });
  sink(acc);
  m["random.substream_ns"] = s / kDraws * 1e9;
}

/// The hold model on the simulator's default pending set: 256 events
/// pending, each step runs the earliest (a no-op) and schedules another.
void probe_des(Metrics& m, std::uint64_t seed) {
  constexpr std::size_t kPending = 256;
  constexpr std::size_t kSteps = 2'000'000;
  des::Simulator sim;
  des::RandomEngine rng{seed};
  const auto offset = [&] { return des::Duration::nanos(rng.uniform_int(1, 1'000'000)); };
  for (std::size_t i = 0; i < kPending; ++i) sim.schedule(offset(), [] {});
  const double s = time_s([&] {
    for (std::size_t i = 0; i < kSteps; ++i) {
      sim.step();
      sim.schedule(offset(), [] {});
    }
  });
  m["des.hold_ns"] = s / kSteps * 1e9;
}

/// Every host broadcasts once per round (no-op delivery), then the network
/// drains; ns per delivered frame.
double broadcast_ns_per_frame(std::size_t n, std::size_t rounds, std::uint64_t seed,
                              const topo::Topology* topology) {
  des::Simulator sim;
  net::ContentionNetwork network{sim, des::RandomEngine{seed}, net::NetworkParams::defaults(), n,
                                 topology};
  std::uint64_t delivered = 0;
  network.set_deliver([&](const net::Packet&) { ++delivered; });
  const double s = time_s([&] {
    for (std::size_t r = 0; r < rounds; ++r) {
      for (std::size_t src = 0; src < n; ++src) {
        network.broadcast(static_cast<net::HostId>(src), net::FrameBody{});
      }
      sim.run();
    }
  });
  if (delivered != rounds * n * (n - 1)) throw std::runtime_error{"broadcast probe lost frames"};
  return s / static_cast<double>(delivered) * 1e9;
}

void probe_net(Metrics& m, std::uint64_t seed) {
  m["net.hub_bcast_ns.n5"] = broadcast_ns_per_frame(5, 4000, seed, nullptr);
  m["net.hub_bcast_ns.n129"] = broadcast_ns_per_frame(129, 5, seed, nullptr);
  const topo::Topology two_racks = topo::Topology::uniform(5, 2);
  m["net.routed_bcast_ns.n5"] = broadcast_ns_per_frame(5, 4000, seed, &two_racks);

  constexpr int kBuilds = 20'000;
  const double s = time_s([&] {
    for (int k = 0; k < kBuilds; ++k) {
      const topo::RouteTable routes{two_racks};
      sink(static_cast<double>(routes.link_count()));
    }
  });
  m["topo.route_build_us"] = s / kBuilds * 1e6;
}

void probe_runtime(Metrics& m, std::uint64_t seed) {
  constexpr int kClusters = 2000;
  for (const std::size_t n : {3, 5}) {
    const double s = time_s([&] {
      for (int k = 0; k < kClusters; ++k) {
        runtime::ClusterConfig cfg;
        cfg.n = n;
        cfg.seed = seed + static_cast<std::uint64_t>(k);
        const runtime::Cluster cluster{cfg};
        sink(static_cast<double>(cluster.n()));
      }
    });
    m["runtime.cluster_build_us" + cell_suffix(n)] = s / kClusters * 1e6;
  }
}

/// Mean core::run_latency_execution of every Table 1 (n, crash scenario)
/// cell.
void probe_one_shot(Metrics& m, std::uint64_t seed) {
  constexpr std::size_t kExecutions = 600;
  const des::SeedSplitter seeds{seed, "exec"};
  for (const std::size_t n : {3, 5, 7, 9, 11}) {
    for (const int crashed : kCrashScenarios) {
      double acc = 0;
      const double s = time_s([&] {
        for (std::size_t k = 0; k < kExecutions; ++k) {
          const auto out = core::run_latency_execution(n, net::NetworkParams::defaults(),
                                                       net::TimerModel::defaults(), crashed, k,
                                                       seeds.stream_seed(k));
          if (out.latency_ms) acc += *out.latency_ms;
        }
      });
      sink(acc);
      m["consensus.one_shot_us" + cell_suffix(n, crashed)] = s / kExecutions * 1e6;
    }
  }
}

/// A class-3 replica (n = 11, T = 3 ms, 200 executions): the public calls
/// core::measure_class3_run makes, run once with heartbeat FD + CT layers
/// and once with the FD layers alone up to the same simulated horizon.
void probe_class3_replica(Metrics& m, std::uint64_t seed) {
  runtime::ClusterConfig cfg;
  cfg.n = 11;
  cfg.seed = des::derive_seed(seed, "class3_replica");
  const auto fd_params = fd::HeartbeatFdParams::from_timeout_ms(3.0);

  des::TimePoint horizon;
  double full_s = 0;
  {
    runtime::Cluster cluster{cfg};
    for (runtime::HostId pid = 0; pid < cfg.n; ++pid) {
      auto& proc = cluster.process(pid);
      auto& hb = proc.add_layer<fd::HeartbeatFd>(fd_params);
      proc.add_layer<consensus::CtConsensus>(hb);
    }
    consensus::SequencerConfig seq_cfg;
    seq_cfg.executions = 200;
    consensus::ConsensusSequencer seq{cluster, seq_cfg};
    std::vector<consensus::ExecutionResult> results;
    full_s = time_s([&] { results = seq.run(); });
    horizon = seq.experiment_end();

    double suspicions = 0;
    for (runtime::HostId pid = 0; pid < cfg.n; ++pid) {
      for (const auto& h : cluster.process(pid).layer<fd::HeartbeatFd>().histories()) {
        suspicions += static_cast<double>(h.trust_to_suspect_count());
      }
    }
    double rounds = 0;
    double decided = 0;
    for (const auto& r : results) {
      if (!r.decided()) continue;
      rounds += r.rounds;
      decided += 1;
    }
    m["fd.suspicions"] = suspicions;
    m["net.frames.class3"] = static_cast<double>(cluster.network().frames_sent());
    m["consensus.rounds_mean.class3"] = decided > 0 ? rounds / decided : 0.0;
  }
  {
    runtime::Cluster cluster{cfg};
    for (runtime::HostId pid = 0; pid < cfg.n; ++pid) {
      cluster.process(pid).add_layer<fd::HeartbeatFd>(fd_params);
    }
    const double fd_s = time_s([&] { cluster.run_until(horizon); });
    m["fd.stack_s"] = fd_s;
    m["consensus.stack_s"] = full_s - fd_s;
  }
}

/// Class-3 runs fanned out over a bench-owned runner, one span per task:
/// the task-time spread that sets a campaign's wall time.
void probe_replication(Metrics& m, std::uint64_t seed, const core::ReplicationRunner& runner) {
  struct Task {
    double timeout_ms;
    std::uint64_t seed;
  };
  std::vector<Task> tasks;
  for (const double timeout_ms : {3.0, 10.0}) {
    for (int r = 0; r < 4; ++r) {
      tasks.push_back({timeout_ms, des::derive_seed(seed, "class3_task", tasks.size())});
    }
  }
  const int parent = Tracer::current();
  const auto durations = runner.map(tasks.size(), [&](std::size_t i) {
    ScopedSpan span{"replication.task", parent};
    return time_s([&] {
      const auto run = core::measure_class3_run(11, net::NetworkParams::defaults(),
                                                net::TimerModel::defaults(),
                                                tasks[i].timeout_ms, 100, tasks[i].seed);
      sink(run.experiment_ms);
    });
  });
  m["replication.task_p50_s"] = median(durations);
  m["replication.task_max_s"] = *std::max_element(durations.begin(), durations.end());
}

/// Representative streams of the three stream workloads, run directly.
void probe_streams(Metrics& m, std::uint64_t seed) {
  struct Stream {
    std::string name;
    core::WorkloadConfig cfg;
    core::WorkloadSpec spec;
  };
  // The fault strikes 40% into the measured window, as in the scenarios.
  const auto strike_ms = [](const core::WorkloadSpec& s) {
    const double arrivals = static_cast<double>(s.warmup) + 0.4 * static_cast<double>(s.measured);
    return s.start_ms + 1000.0 * arrivals / s.offered_per_s;
  };
  std::vector<Stream> streams(4);

  Stream& ct350 = streams[0];
  ct350.name = "ct350";
  ct350.cfg.n = 5;
  ct350.cfg.timers = net::TimerModel::ideal();
  ct350.spec.arrivals = core::ArrivalProcess::kOpenLoop;
  ct350.spec.offered_per_s = 350;
  ct350.spec.warmup = 200;
  ct350.spec.measured = 8000;

  Stream& durable5 = streams[1];
  durable5.name = "durable5";
  durable5.cfg.n = 5;
  durable5.cfg.durable_log = true;
  durable5.cfg.durable_append_ms = 0.1;
  durable5.spec.arrivals = core::ArrivalProcess::kOpenLoop;
  durable5.spec.offered_per_s = 2000;
  durable5.spec.warmup = 200;
  durable5.spec.measured = 5000;
  durable5.spec.instance_timeout_ms = 1000;
  durable5.spec.pipeline_window = 16;
  const faults::FaultPlan crash_coordinator = faults::FaultPlan{}.add(
      faults::FaultPlan::crash_recover(0, strike_ms(durable5.spec), 60));
  durable5.cfg.fault_plan = &crash_coordinator;

  Stream& mr129 = streams[2];
  mr129.name = "mr129";
  mr129.cfg.n = 129;
  mr129.cfg.timers = net::TimerModel::ideal();
  mr129.cfg.algorithm = core::Algorithm::kMostefaouiRaynal;
  mr129.spec.arrivals = core::ArrivalProcess::kOpenLoop;
  mr129.spec.offered_per_s = 2000.0 / (129.0 * 129.0);
  mr129.spec.measured = 16;
  mr129.spec.warmup = 2;
  mr129.spec.instance_timeout_ms = 60'000.0;

  Stream& ct_rack5 = streams[3];
  ct_rack5.name = "ct_rack5";
  ct_rack5.cfg.n = 5;
  topo::LinkParams uplink;
  uplink.latency_ms = 0.05;
  ct_rack5.cfg.topology =
      std::make_shared<const topo::Topology>(topo::Topology::uniform(5, 2, {}, uplink));
  ct_rack5.cfg.heartbeat_timeout_ms = 10.0;
  ct_rack5.spec.arrivals = core::ArrivalProcess::kOpenLoop;
  ct_rack5.spec.offered_per_s = 200;
  ct_rack5.spec.warmup = 200;
  ct_rack5.spec.measured = 4000;
  const faults::FaultPlan kill_minority_rack =
      faults::FaultPlan{}.add(faults::FaultPlan::kill_rack(1, strike_ms(ct_rack5.spec), 60));
  ct_rack5.cfg.fault_plan = &kill_minority_rack;

  for (Stream& s : streams) {
    s.cfg.seed = des::derive_seed(seed, s.name);
    core::WorkloadResult result;
    const double run_s = [&] {
      ScopedSpan span{"workload." + s.name};
      return time_s([&] { result = core::run_workload(s.cfg, s.spec); });
    }();
    const auto events = static_cast<double>(result.events_processed);
    m["des.events." + s.name] = events;
    m["des.ns_per_event." + s.name] = run_s / events * 1e9;
    m["consensus.peak_active." + s.name] = static_cast<double>(result.peak_active_instances);
    constexpr int kFolds = 5;
    const double fold_s = time_s([&] {
      for (int k = 0; k < kFolds; ++k) {
        sink(core::fold_workload_stats(result.instances, result.warmup, s.spec.batches)
                 .mean_latency_ms);
        sink(core::fold_value_stats(result.values, result.warmup_values, s.spec.batches)
                 .mean_latency_ms);
      }
    });
    m["workload.fold_ms." + s.name] = fold_s / kFolds * 1e3;
    if (s.cfg.durable_log) {
      m["consensus.durable_appends"] = static_cast<double>(result.durable_appends);
    }
  }
}

// --- Commands ---------------------------------------------------------------

struct Options {
  std::uint64_t seed = core::kDefaultSeed;
  std::size_t threads = 1;
  std::string out_dir;
  std::string trace_file;
};

std::uint64_t parse_count(const std::string& flag, const std::string& text) {
  std::size_t used = 0;
  unsigned long long v = 0;
  try {
    v = std::stoull(text, &used);
  } catch (const std::exception&) {
    used = 0;
  }
  if (used == 0 || used != text.size() || text.front() == '-') {
    throw std::invalid_argument{flag + " expects a non-negative integer, got '" + text + "'"};
  }
  return v;
}

Options parse_options(const std::vector<std::string>& args) {
  Options o;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& flag = args[i];
    if (i + 1 >= args.size()) throw std::invalid_argument{"missing value for " + flag};
    const std::string& value = args[++i];
    if (flag == "--seed") {
      o.seed = parse_count(flag, value);
    } else if (flag == "--threads") {
      o.threads = parse_count(flag, value);
      if (o.threads == 0) throw std::invalid_argument{"--threads must be at least 1"};
    } else if (flag == "--out") {
      o.out_dir = value;
    } else if (flag == "--trace") {
      o.trace_file = value;
    } else {
      throw std::invalid_argument{"unknown option " + flag};
    }
  }
  if (!o.trace_file.empty()) g_tracer.enable();
  return o;
}

int cmd_list() {
  std::cout << "{\"workloads\": [";
  const char* sep = "";
  for (const auto& w : workloads()) {
    std::cout << sep << "{\"name\": ";
    write_json_string(std::cout, w.name);
    std::cout << ", \"campaign\": " << (w.campaign ? "true" : "false") << "}";
    sep = ", ";
  }
  std::cout << "]}\n";
  return 0;
}

int cmd_info() {
  std::cout << "{\"compiler\": ";
  write_json_string(std::cout, BENCH_COMPILER);
  std::cout << ", \"build_type\": ";
  write_json_string(std::cout, BENCH_BUILD_TYPE);
  std::cout << "}\n";
  return 0;
}

int cmd_rep(const std::string& name, const Options& o) {
  const WorkloadDef* def = nullptr;
  for (const auto& w : workloads()) {
    if (name == w.name) def = &w;
  }
  if (def == nullptr) throw std::invalid_argument{"unknown workload '" + name + "'"};
  if (o.out_dir.empty()) throw std::invalid_argument{"rep needs --out DIR"};
  std::filesystem::create_directories(o.out_dir);

  const core::ReplicationRunner runner{o.threads};
  Rep rep{o.seed, runner};
  {
    ScopedSpan span{"setup"};
    def->prepare(rep);
  }

  const auto first_call = Clock::now();
  const double cpu0 = process_cpu_s();
  {
    ScopedSpan span{"measured"};
    rep.run_measured();
  }
  const Metrics timings = {
      {"first_call_monotonic_s",
       std::chrono::duration<double>(first_call.time_since_epoch()).count()},
      {"wall_s", seconds_between(first_call, Clock::now())},
      {"cpu_s", process_cpu_s() - cpu0},
      {"peak_rss_mb", peak_rss_mb()},
      {"sim_s", rep.sim_s()}};

  const std::vector<std::string> files = rep.write_outputs(o.out_dir);
  if (!o.trace_file.empty()) g_tracer.write_chrome_trace(o.trace_file);

  std::cout << "{\"timings\": ";
  write_json_object(std::cout, timings);
  std::cout << ", \"outputs\": [";
  for (std::size_t i = 0; i < files.size(); ++i) {
    if (i > 0) std::cout << ", ";
    write_json_string(std::cout, files[i]);
  }
  std::cout << "], \"counts\": ";
  write_json_object(std::cout, rep.counts());
  std::cout << ", \"spans\": ";
  g_tracer.write_summary(std::cout);
  std::cout << "}\n";
  return 0;
}

int cmd_probe(const Options& o) {
  const core::ReplicationRunner runner{o.threads};
  Metrics m;
  const auto probe = [](const char* layer, auto&& fn) {
    ScopedSpan span{std::string{"probe."} + layer};
    fn();
  };
  core::PaperContext ctx;
  probe("calibration", [&] { ctx = probe_calibration(m, o.seed, runner); });
  probe("san", [&] { probe_san(m, ctx, o.seed); });
  probe("random", [&] { probe_random(m, o.seed); });
  probe("des", [&] { probe_des(m, o.seed); });
  probe("net", [&] { probe_net(m, o.seed); });
  probe("runtime", [&] { probe_runtime(m, o.seed); });
  probe("consensus", [&] { probe_one_shot(m, o.seed); });
  probe("class3_replica", [&] { probe_class3_replica(m, o.seed); });
  probe("replication", [&] { probe_replication(m, o.seed, runner); });
  probe("streams", [&] { probe_streams(m, o.seed); });
  if (!o.trace_file.empty()) g_tracer.write_chrome_trace(o.trace_file);
  std::cout << "{\"metrics\": ";
  write_json_object(std::cout, m);
  std::cout << "}\n";
  return 0;
}

int usage() {
  std::cerr << "usage: sanperf_bench list | info\n"
               "       sanperf_bench rep <workload> --seed S --threads T --out DIR [--trace FILE]\n"
               "       sanperf_bench probe --seed S --threads T [--trace FILE]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::string> args(argv + 1, argv + argc);
  if (args.empty()) return usage();
  try {
    const std::string& cmd = args[0];
    if (cmd == "list" && args.size() == 1) return cmd_list();
    if (cmd == "info" && args.size() == 1) return cmd_info();
    if (cmd == "rep" && args.size() >= 2) {
      return cmd_rep(args[1], parse_options({args.begin() + 2, args.end()}));
    }
    if (cmd == "probe") return cmd_probe(parse_options({args.begin() + 1, args.end()}));
    return usage();
  } catch (const std::exception& e) {
    std::cerr << "sanperf_bench: " << e.what() << "\n";
    return 1;
  }
}
