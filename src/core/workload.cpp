#include "core/workload.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

#include "consensus/batcher.hpp"
#include "consensus/ct_consensus.hpp"
#include "consensus/mr_consensus.hpp"
#include "consensus/sequencer.hpp"  // draw_ntp_start_offset, kNtpHalfWidthMs
#include "core/workload_cluster.hpp"
#include "fd/heartbeat_fd.hpp"
#include "runtime/cluster.hpp"
#include "stats/batch_means.hpp"
#include "stats/ecdf.hpp"

namespace sanperf::core {

const char* to_string(ArrivalProcess arrivals) {
  switch (arrivals) {
    case ArrivalProcess::kBurst: return "burst";
    case ArrivalProcess::kOpenLoop: return "open-loop";
    case ArrivalProcess::kClosedLoop: return "closed-loop";
  }
  return "?";
}

const char* to_string(ThinkTimeDist dist) {
  switch (dist) {
    case ThinkTimeDist::kFixed: return "fixed";
    case ThinkTimeDist::kExp: return "exp";
  }
  return "?";
}

WorkloadStats fold_workload_stats(const std::vector<consensus::ExecutionResult>& instances,
                                  std::size_t warmup, std::size_t batches) {
  WorkloadStats out;
  if (instances.size() <= warmup) return out;
  const std::size_t measured = instances.size() - warmup;
  const std::size_t batch_size =
      std::max<std::size_t>(1, measured / std::max<std::size_t>(1, batches));

  stats::BatchMeans lat_batches{batch_size};
  stats::BatchMeans rate_batches{1};  // per-batch rates are the observations
  std::vector<double> lats;
  lats.reserve(measured);

  const double first_start = instances[warmup].start_ms;  // streams launch in cid order
  double last_start = first_start;
  double last_decide = 0;
  bool any_decided = false;
  // Throughput batches close at the latest decision they contain; the
  // window boundaries are monotone, so a batch that falls entirely inside
  // a straggler's shadow (zero marginal window) rolls its count into the
  // next rate sample instead of being dropped -- every delivery is
  // attributed to exactly one sample and the samples tile the span.
  double window_start = first_start;
  double batch_max_decide = first_start;
  std::size_t in_batch = 0;
  std::size_t window_count = 0;

  for (std::size_t k = warmup; k < instances.size(); ++k) {
    const consensus::ExecutionResult& rec = instances[k];
    last_start = std::max(last_start, rec.start_ms);
    if (!rec.decided()) {
      ++out.undecided;
      continue;
    }
    const double lat = *rec.latency_ms;
    lats.push_back(lat);
    lat_batches.add(lat);
    const double decide = rec.decide_ms();
    last_decide = std::max(last_decide, decide);
    any_decided = true;
    batch_max_decide = std::max(batch_max_decide, decide);
    if (++in_batch == batch_size) {
      window_count += batch_size;
      const double window = batch_max_decide - window_start;
      if (window > 0) {
        rate_batches.add(1000.0 * static_cast<double>(window_count) / window);
        window_start = batch_max_decide;
        window_count = 0;
      }
      in_batch = 0;
    }
  }

  out.decided = lats.size();
  out.latency_ci = lat_batches.batches() > 0 ? lat_batches.mean_ci(0.90)
                                             : stats::summarize(lats).mean_ci(0.90);
  out.throughput_ci = rate_batches.mean_ci(0.90);
  if (!lats.empty()) {
    out.mean_latency_ms = stats::summarize(lats).mean();
    out.p95_latency_ms = stats::Ecdf{lats}.quantile(0.95);
  }
  if (any_decided) {
    out.duration_ms = last_decide - first_start;
    if (out.duration_ms > 0) {
      out.delivered_per_s = 1000.0 * static_cast<double>(out.decided) / out.duration_ms;
    }
  }
  if (measured > 1 && last_start > first_start) {
    out.offered_per_s = 1000.0 * static_cast<double>(measured - 1) / (last_start - first_start);
  }
  return out;
}

ValueStats fold_value_stats(const std::vector<ValueRecord>& values, std::size_t warmup,
                            std::size_t batches) {
  ValueStats out;
  if (values.size() <= warmup) return out;
  const std::size_t measured = values.size() - warmup;
  const std::size_t batch_size =
      std::max<std::size_t>(1, measured / std::max<std::size_t>(1, batches));

  stats::BatchMeans lat_batches{batch_size};
  std::vector<double> lats;
  lats.reserve(measured);
  double queue_sum = 0;

  const double first_arrival = values[warmup].arrival_ms;  // arrival order
  double last_arrival = first_arrival;
  double last_decide = 0;
  bool any_decided = false;

  for (std::size_t k = warmup; k < values.size(); ++k) {
    const ValueRecord& rec = values[k];
    last_arrival = std::max(last_arrival, rec.arrival_ms);
    if (!rec.decided()) {
      ++out.undecided;
      continue;
    }
    const double lat = rec.total_ms();
    lats.push_back(lat);
    lat_batches.add(lat);
    queue_sum += rec.queue_ms;
    last_decide = std::max(last_decide, rec.decide_ms());
    any_decided = true;
  }

  out.decided = lats.size();
  out.latency_ci = lat_batches.batches() > 0 ? lat_batches.mean_ci(0.90)
                                             : stats::summarize(lats).mean_ci(0.90);
  if (!lats.empty()) {
    out.mean_latency_ms = stats::summarize(lats).mean();
    out.p95_latency_ms = stats::Ecdf{lats}.quantile(0.95);
    out.mean_queue_ms = queue_sum / static_cast<double>(lats.size());
  }
  if (any_decided) {
    out.duration_ms = last_decide - first_arrival;
    if (out.duration_ms > 0) {
      out.delivered_per_s = 1000.0 * static_cast<double>(out.decided) / out.duration_ms;
    }
  }
  if (measured > 1 && last_arrival > first_arrival) {
    out.offered_per_s =
        1000.0 * static_cast<double>(measured - 1) / (last_arrival - first_arrival);
  }
  return out;
}

double stream_horizon_ms(const WorkloadSpec& spec) {
  const double mean_arrival_ms =
      spec.arrivals == ArrivalProcess::kOpenLoop ? 1000.0 / spec.offered_per_s : 0;
  const double per_instance_ms = spec.instance_timeout_ms + spec.separation_ms + spec.think_ms +
                                 spec.batch_linger_ms + mean_arrival_ms + 1.0;
  return 4.0 * static_cast<double>(spec.warmup + spec.measured) * per_instance_ms + 10'000.0;
}

namespace {

/// Rejects a spec or config the engine would otherwise clamp silently or
/// fail on deep inside the simulator. Zero timings stay valid (a
/// simultaneous burst, no think time, no linger, a free log).
void validate(const WorkloadConfig& cfg, const WorkloadSpec& spec) {
  if (spec.measured == 0) throw std::invalid_argument{"run_workload: measured == 0"};
  if (spec.arrivals == ArrivalProcess::kOpenLoop && !(spec.offered_per_s > 0)) {
    throw std::invalid_argument{"run_workload: open loop needs offered_per_s > 0"};
  }
  if (spec.arrivals == ArrivalProcess::kClosedLoop && spec.clients == 0) {
    throw std::invalid_argument{"run_workload: closed loop needs clients >= 1"};
  }
  if (spec.batch_size == 0) throw std::invalid_argument{"run_workload: batch_size must be >= 1"};
  for (const auto& [value, field] : {std::pair{spec.start_ms, "start_ms"},
                                     std::pair{spec.separation_ms, "separation_ms"},
                                     std::pair{spec.think_ms, "think_ms"},
                                     std::pair{spec.batch_linger_ms, "batch_linger_ms"},
                                     std::pair{cfg.durable_append_ms, "durable_append_ms"}}) {
    if (!(std::isfinite(value) && value >= 0)) {
      throw std::invalid_argument{std::string{"run_workload: "} + field +
                                  " must be finite and >= 0"};
    }
  }
  if (!(std::isfinite(spec.instance_timeout_ms) && spec.instance_timeout_ms > 0)) {
    throw std::invalid_argument{"run_workload: instance_timeout_ms must be finite and > 0"};
  }
}

template <typename ConsensusLayer>
WorkloadResult run_stream(const WorkloadConfig& cfg, const WorkloadSpec& spec) {
  validate(cfg, spec);
  const std::size_t total = spec.warmup + spec.measured;

  // First decision or give-up for instance `cid`; assigned below (the
  // launch path and the decide callbacks both need it).
  std::function<void(std::int32_t, std::optional<des::TimePoint>, std::int32_t)> close_instance;

  // The persistent cluster: built once, serving the whole stream. The
  // stream-only settings go on each host's layers here.
  detail::WorkloadCluster<ConsensusLayer> assembly{
      cfg, cfg.seed, cfg.heartbeat_timeout_ms,
      [&](runtime::Process&, ConsensusLayer& cons) {
        cons.set_gc_decided(true);  // memory bounded by the in-flight window
        cons.set_rotate_coordinators(cfg.rotate_coordinators);
        if (cfg.durable_log) {
          consensus::DurableLogConfig dcfg;
          dcfg.enabled = true;
          dcfg.append_latency_ms = cfg.durable_append_ms;
          cons.set_durable_log(dcfg);
        }
        cons.set_decide_callback([&close_instance](const consensus::DecisionEvent& ev) {
          // Simulated time is monotone, so the first callback carries the
          // globally first decision of the instance.
          close_instance(ev.cid, ev.at, ev.round);
        });
      }};
  runtime::Cluster& cluster = assembly.cluster();
  const faults::FaultPlan* plan = assembly.plan();

  struct Slot {
    des::TimePoint start;
    std::optional<des::TimePoint> decided_at;
    std::int32_t rounds = 0;
    bool closed = false;  ///< first decision or give-up already handled
    std::size_t first_vid = 0;   ///< values carried: [first_vid, first_vid + count)
    std::size_t value_count = 0;
  };
  std::vector<Slot> slots;  // one per launched instance, in launch order
  slots.reserve(total);
  std::vector<ValueRecord> values(total);
  std::size_t closed_values = 0;
  std::size_t launched_instances = 0;
  std::size_t closed_instances = 0;
  std::size_t next_vid = 0;
  // Closed-loop continuation, installed below; null for the other modes.
  std::function<void(std::size_t)> on_value_closed;

  auto skew_rng = cluster.rng_stream("ntp-skew");
  auto arrival_rng = cluster.rng_stream("arrivals");
  auto think_rng = cluster.rng_stream("think");  // label-hashed: free when unused
  des::Simulator& sim = cluster.sim();

  // Closed batches waiting for a free pipeline slot, in close order.
  std::deque<std::vector<consensus::BatchedValue>> ready;
  auto window_free = [&] {
    return spec.pipeline_window == 0 ||
           launched_instances - closed_instances < spec.pipeline_window;
  };

  // Opens the next instance, carrying `payload`, at the current simulated
  // time and returns its cid: every current member draws its NTP skew now,
  // and liveness is checked when the propose fires (exactly like the
  // class-3 sequencer, so a host recovering in between takes part); the
  // give-up deadline closes it undecided.
  auto launch = [&](const std::vector<std::int64_t>& payload) {
    const auto cid = static_cast<std::int32_t>(slots.size());
    ++launched_instances;
    const des::TimePoint start = sim.now();
    slots.emplace_back().start = start;
    const auto schedule_propose = [&](runtime::HostId pid) {
      auto& proc = cluster.process(pid);
      const des::TimePoint at = start + consensus::draw_ntp_start_offset(skew_rng);
      sim.schedule_at(at, [&proc, cid, payload = std::vector<std::int64_t>{payload}] {
        if (!proc.crashed()) {
          proc.layer<ConsensusLayer>().propose(cid, payload);
        }
      });
    };
    // Only current members propose; the instance pins this epoch's member
    // set at first touch and keeps it for life.
    for (const runtime::HostId pid : cluster.membership().members()) schedule_propose(pid);
    // Every instance gives up after the same span, so the deadlines fall
    // due in launch order and wait in the queue's deadline lane.
    sim.schedule_deadline(start + des::Duration::from_ms(spec.instance_timeout_ms),
                          [&close_instance, cid] {
                            close_instance(cid, std::nullopt, 0);  // give up: undecided
                          });
    return cid;
  };

  // Launches the instance carrying a closed client batch.
  auto launch_batch = [&](std::vector<consensus::BatchedValue> batch) {
    std::vector<std::int64_t> payload;
    payload.reserve(batch.size());
    for (const consensus::BatchedValue& v : batch) payload.push_back(v.value);
    const std::int32_t cid = launch(payload);
    Slot& slot = slots.back();
    slot.first_vid = static_cast<std::size_t>(batch.front().value);
    slot.value_count = batch.size();
    for (const consensus::BatchedValue& v : batch) {
      auto& rec = values[static_cast<std::size_t>(v.value)];
      rec.cid = cid;
      rec.queue_ms = (slot.start - v.enqueued_at).to_ms();
    }
  };

  auto maybe_launch_ready = [&] {
    while (!ready.empty() && window_free()) {
      auto batch = std::move(ready.front());
      ready.pop_front();
      launch_batch(std::move(batch));
    }
  };

  consensus::BatcherConfig bcfg;
  bcfg.max_batch = spec.batch_size;
  bcfg.linger_ms = spec.batch_linger_ms;
  consensus::Batcher batcher{
      sim, bcfg,
      [&](std::vector<consensus::BatchedValue> batch, consensus::Batcher::CloseReason) {
        if (ready.empty() && window_free()) {
          launch_batch(std::move(batch));
        } else {
          ready.push_back(std::move(batch));  // FIFO behind the window
        }
      }};

  // Membership-change control instances: agreed in-stream like any other
  // instance but carrying no client values; the engine applies the change
  // keyed on the instance id at the first decision (the negative payload is
  // inert, it only has to be agreed on).
  struct PendingChange {
    bool add = false;
    runtime::HostId host = 0;
  };
  std::map<std::int32_t, PendingChange> pending_changes;
  std::vector<WorkloadResult::MembershipChange> membership_changes;

  close_instance = [&](std::int32_t cid, std::optional<des::TimePoint> at,
                       std::int32_t rounds) {
    if (cid < 0 || static_cast<std::size_t>(cid) >= slots.size()) return;
    Slot& slot = slots[static_cast<std::size_t>(cid)];
    if (slot.closed) return;
    slot.closed = true;
    slot.decided_at = at;
    slot.rounds = rounds;
    ++closed_instances;
    const std::size_t first_vid = slot.first_vid;
    const std::size_t value_count = slot.value_count;
    // A gave-up value can be resubmitted: it stays open (the termination
    // predicate waits for its next carrier) and re-enters the batcher after
    // every other side effect of this close.
    const bool resubmit = !at && spec.resubmit_undecided && value_count > 0;
    if (!resubmit) closed_values += value_count;
    if (at) {
      const double consensus_ms = (*at - slot.start).to_ms();
      for (std::size_t vid = first_vid; vid < first_vid + value_count; ++vid) {
        values[vid].consensus_ms = consensus_ms;
      }
    }
    // `slot` may dangle past this point: resubmission and the pipeline
    // refill below can grow `slots`.
    if (const auto change = pending_changes.find(cid); change != pending_changes.end()) {
      const PendingChange pc = change->second;
      pending_changes.erase(change);
      if (at && pc.add != cluster.membership().is_member(pc.host)) {
        // View-synchronous switch at the decision instant: restart-then-add
        // so the joiner is alive when the detectors reset their reception
        // clocks; remove-then-crash so nobody suspects a still-member host.
        std::uint32_t epoch = 0;
        if (pc.add) {
          if (cluster.process(pc.host).crashed()) cluster.process(pc.host).restart();
          epoch = cluster.add_member(pc.host);
        } else {
          epoch = cluster.remove_member(pc.host);
          if (!cluster.process(pc.host).crashed()) cluster.process(pc.host).crash();
        }
        membership_changes.push_back({at->to_ms(), pc.add, static_cast<int>(pc.host), epoch});
      }
    }
    if (resubmit) {
      for (std::size_t vid = first_vid; vid < first_vid + value_count; ++vid) {
        batcher.submit(static_cast<std::int64_t>(vid));
      }
    } else if (on_value_closed) {
      // Fan the close back out to the clients, in value order.
      for (std::size_t vid = first_vid; vid < first_vid + value_count; ++vid) {
        on_value_closed(vid);
      }
    }
    maybe_launch_ready();
  };

  // Launches the control instance deciding `host` in or out of the group.
  // Bypasses the batcher and the pipeline window: a membership change must
  // not queue behind the very backlog it is meant to relieve.
  auto launch_control = [&](bool add, runtime::HostId host) {
    if (add == cluster.membership().is_member(host)) return;
    const std::int32_t cid = launch({add ? -(static_cast<std::int64_t>(host) + 1)
                                         : -(static_cast<std::int64_t>(host) + 1001)});
    pending_changes.emplace(cid, PendingChange{add, host});
  };

  // Submits the next client value of the stream at the current time.
  auto submit_value = [&] {
    const std::size_t vid = next_vid++;
    auto& rec = values[vid];
    rec.vid = static_cast<std::int64_t>(vid);
    rec.arrival_ms = sim.now().to_ms();
    batcher.submit(static_cast<std::int64_t>(vid));
  };

  const des::TimePoint stream_start =
      des::TimePoint::origin() + des::Duration::from_ms(spec.start_ms);

  // Arrivals are scheduled rolling (each one chains the next), so the event
  // queue holds O(in-flight) entries, never the whole stream.
  std::function<void()> fire;
  switch (spec.arrivals) {
    case ArrivalProcess::kBurst:
      fire = [&] {
        submit_value();
        if (next_vid < total) {
          sim.schedule(des::Duration::from_ms(spec.separation_ms), [&fire] { fire(); });
        }
      };
      sim.schedule_at(stream_start, [&fire] { fire(); });
      break;

    case ArrivalProcess::kOpenLoop: {
      const double mean_ms = 1000.0 / spec.offered_per_s;
      fire = [&, mean_ms] {
        submit_value();
        if (next_vid < total) {
          sim.schedule(des::Duration::from_ms(arrival_rng.exponential_mean(mean_ms)),
                       [&fire] { fire(); });
        }
      };
      sim.schedule_at(stream_start + des::Duration::from_ms(arrival_rng.exponential_mean(mean_ms)),
                      [&fire] { fire(); });
      break;
    }

    case ArrivalProcess::kClosedLoop: {
      const std::size_t clients = spec.clients;
      std::size_t admitted = 0;  // values issued or promised to clients
      on_value_closed = [&, clients, admitted](std::size_t) mutable {
        // The client whose value just closed thinks, then submits the next
        // value of the stream. Fixed think preserves the historic
        // deterministic constant; exp draws from the dedicated substream.
        if (clients + admitted >= total) return;
        ++admitted;
        const double think = (spec.think_dist == ThinkTimeDist::kExp && spec.think_ms > 0)
                                 ? think_rng.exponential_mean(spec.think_ms)
                                 : spec.think_ms;
        sim.schedule(des::Duration::from_ms(think), [&] {
          if (next_vid < total) submit_value();
        });
      };
      sim.schedule_at(stream_start, [&, clients] {
        for (std::size_t c = 0; c < clients && next_vid < total; ++c) {
          submit_value();
        }
      });
      break;
    }
  }

  // Membership changes ride the plan's schedule: at each event's time the
  // engine launches a control instance among the then-current members.
  if (plan != nullptr) {
    for (const faults::FaultEvent& e : plan->events()) {
      if (e.kind != faults::FaultKind::kAddHost && e.kind != faults::FaultKind::kRemoveHost) {
        continue;
      }
      const bool add = e.kind == faults::FaultKind::kAddHost;
      const auto host = static_cast<runtime::HostId>(e.host);
      sim.schedule_at(des::TimePoint::origin() + des::Duration::from_ms(std::max(e.at_ms, 0.0)),
                      [&launch_control, add, host] { launch_control(add, host); });
    }
  }

  // Safety net only: every launched instance closes by its give-up
  // deadline and every arrival process keeps submitting, so the predicate
  // fires long before this.
  cluster.run_until([&] { return closed_values >= total; },
                    stream_start + des::Duration::from_ms(stream_horizon_ms(spec)));

  WorkloadResult out;
  out.instances.reserve(slots.size());
  for (std::size_t k = 0; k < slots.size(); ++k) {
    out.instances.push_back(consensus::ExecutionResult::of(
        static_cast<std::int32_t>(k), slots[k].start, slots[k].decided_at, slots[k].rounds));
  }
  // An instance is warm-up iff every value it carries is a warm-up value;
  // batches take consecutive vids, so warm-up instances are a prefix.
  out.warmup = 0;
  for (const Slot& slot : slots) {
    if (slot.first_vid + slot.value_count > spec.warmup) break;
    ++out.warmup;
  }
  out.stats = fold_workload_stats(out.instances, out.warmup, spec.batches);
  out.values = std::move(values);
  out.warmup_values = spec.warmup;
  out.value_stats = fold_value_stats(out.values, spec.warmup, spec.batches);
  if (!slots.empty()) {
    out.mean_batch_size =
        static_cast<double>(out.values.size()) / static_cast<double>(slots.size());
  }
  out.batches_closed_on_size = batcher.stats().closed_on_size;
  out.batches_closed_on_linger = batcher.stats().closed_on_linger;
  for (runtime::HostId pid = 0; pid < static_cast<runtime::HostId>(cfg.n); ++pid) {
    const auto& cons = cluster.process(pid).layer<ConsensusLayer>();
    out.peak_active_instances = std::max(out.peak_active_instances,
                                         cons.peak_active_instances());
    out.instances_collected += cons.instances_collected();
    out.instances_replayed += cons.durable_log().stats().replayed;
    out.durable_appends += cons.durable_log().stats().appends;
  }
  out.membership_changes = std::move(membership_changes);
  if (cfg.heartbeat_timeout_ms) {
    for (runtime::HostId pid = 0; pid < static_cast<runtime::HostId>(cfg.n); ++pid) {
      const auto& histories = cluster.process(pid).layer<fd::HeartbeatFd>().histories();
      for (runtime::HostId peer = 0; peer < histories.size(); ++peer) {
        if (peer != pid) out.detector_histories.emplace(std::pair{pid, peer}, histories[peer]);
      }
    }
  }
  out.events_processed = cluster.sim().events_processed();
  out.sim_duration_ms = cluster.now().to_ms();
  return out;
}

/// One instance `k` on a fresh cluster: the class-1/2 harness behind every
/// isolated-execution campaign, with the static detector and the
/// one-shot's own NTP draw (live hosts only, uniform in [0, w) of the
/// shared half-width consensus::kNtpHalfWidthMs).
template <typename ConsensusLayer>
consensus::ExecutionResult run_one_shot_as(const WorkloadConfig& cfg, std::size_t k,
                                           std::uint64_t exec_seed) {
  // Independent executions: a fresh cluster per run keeps them perfectly
  // isolated (the cluster equivalent of the paper's 10 ms separation).
  std::optional<des::TimePoint> first_decide;
  std::int32_t first_rounds = 0;
  detail::WorkloadCluster<ConsensusLayer> assembly{
      cfg, exec_seed, /*heartbeat_timeout_ms=*/std::nullopt,
      [&](runtime::Process&, ConsensusLayer& cons) {
        cons.set_decide_callback([&](const consensus::DecisionEvent& ev) {
          if (!first_decide || ev.at < *first_decide) {
            first_decide = ev.at;
            first_rounds = ev.round;
          }
        });
      }};
  runtime::Cluster& cluster = assembly.cluster();

  // All correct processes propose at t0 (up to the emulated NTP skew).
  const des::TimePoint t0 = des::TimePoint::origin() + des::Duration::from_ms(1.0);
  auto skew_rng = cluster.rng_stream("ntp-skew");
  for (runtime::HostId pid = 0; pid < static_cast<runtime::HostId>(cfg.n); ++pid) {
    auto& proc = cluster.process(pid);
    if (proc.crashed()) continue;
    const des::TimePoint start =
        t0 + des::Duration::from_ms(skew_rng.uniform(0.0, consensus::kNtpHalfWidthMs));
    cluster.sim().schedule_at(start, [&proc, k] {
      proc.template layer<ConsensusLayer>().propose(static_cast<std::int32_t>(k),
                                                    1 + proc.id());
    });
  }

  const des::TimePoint deadline = t0 + des::Duration::from_ms(1000.0);
  cluster.run_until([&] { return first_decide.has_value(); }, deadline);
  return consensus::ExecutionResult::of(static_cast<std::int32_t>(k), t0, first_decide,
                                        first_rounds);
}

}  // namespace

WorkloadResult run_workload(const WorkloadConfig& cfg, const WorkloadSpec& spec) {
  switch (cfg.algorithm) {
    case Algorithm::kChandraToueg:
      return run_stream<consensus::CtConsensus>(cfg, spec);
    case Algorithm::kMostefaouiRaynal:
      return run_stream<consensus::MrConsensus>(cfg, spec);
  }
  throw std::invalid_argument{"run_workload: unknown algorithm"};
}

consensus::ExecutionResult run_one_shot(const WorkloadConfig& cfg, std::size_t k,
                                       std::uint64_t exec_seed) {
  switch (cfg.algorithm) {
    case Algorithm::kChandraToueg:
      return run_one_shot_as<consensus::CtConsensus>(cfg, k, exec_seed);
    case Algorithm::kMostefaouiRaynal:
      return run_one_shot_as<consensus::MrConsensus>(cfg, k, exec_seed);
  }
  throw std::invalid_argument{"run_one_shot: unknown algorithm"};
}

}  // namespace sanperf::core
