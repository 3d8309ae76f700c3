// The contention network: per-host CPU resources plus the links of a
// topo::RouteTable -- on the paper's testbed, one shared hub.
//
// A unicast transmission walks the seven steps of the paper's Fig 3:
//   1. enqueue at the sender's CPU          4. occupy each route link (t_net)
//   2. occupy the sender's CPU (t_send)     5. enqueue at the receiver's CPU
//   3. enqueue on the first route link      6. occupy it (t_receive)
//                                           7. deliver to the process
// Each resource is an exclusive server. Between steps 4 and 5 a frame
// additionally experiences a non-exclusive pipeline latency (protocol-stack
// traversal) during which it occupies nothing -- this is where most of the
// end-to-end delay lives on the emulated testbed. Frames addressed to a
// crashed host still occupy their route (the wire does not know) but are
// dropped before consuming the destination CPU.
//
// No topology, or a single rack, routes every pair over one shared-medium
// hub link (a HubMedium); more racks route over access edges and rack
// uplinks, each a FIFO server. A link occupies a frame for the calibrated
// wire sample times its service_scale, then delays it by its
// non-exclusive latency_ms.
//
// Frame bookkeeping is pooled (see frame_pool.hpp): a frame in flight is a
// slot index into columnar storage, every closure carries its 24-byte
// FrameRef inside EventAction's inline buffer (a closure that would not fit
// does not compile), and a broadcast shares one pooled body across all n-1
// receivers. The send path still allocates in one place: the std::deque job
// queues of the CPUs and the links take and free a chunk whenever they grow
// or drain across a chunk boundary.
//
// Job storage: FifoServer::submit and HubMedium::submit are templates over
// the completion callable and build it once, in the EventAction where it
// waits: a FIFO server's current_done_ when the server is idle, else the
// queued Job; always the host's queued Frame on the hub. Starting a job
// moves only that action into current_done_, and completion moves it out
// once more before it runs (a completion may submit to the same server).
// So a completion moves twice on an idle FIFO server and three times
// through a FIFO queue or the hub.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "core/audit.hpp"
#include "des/random.hpp"
#include "des/simulator.hpp"
#include "net/frame_pool.hpp"
#include "net/params.hpp"
#include "topo/topology.hpp"

namespace sanperf::net {

/// An exclusive FIFO server over the discrete-event simulator: jobs queue,
/// one runs at a time for its service duration, then its completion action
/// fires.
class FifoServer {
 public:
  explicit FifoServer(des::Simulator& sim) : sim_{&sim} {}

  /// Enqueues a job with the given service time and completion action (a
  /// callable EventAction holds, built in place, or an EventAction).
  /// `weight` is the number of frames the job stands for in conservation
  /// accounting (a batched broadcast submits one job for n-1 frames).
  template <typename F>
  void submit(des::Duration service, F&& on_done, std::size_t weight = 1) {
    if (busy_) {
      waiting_.emplace_back(service, std::forward<F>(on_done), weight);
    } else {
      current_done_.emplace(std::forward<F>(on_done));
      start(service, weight);
    }
  }

  [[nodiscard]] bool busy() const { return busy_; }
  [[nodiscard]] std::size_t queue_length() const { return waiting_.size(); }
  /// Cumulative time the server has spent serving jobs.
  [[nodiscard]] des::Duration busy_time() const { return busy_time_; }
  [[nodiscard]] std::uint64_t jobs_served() const { return served_; }

  /// Discards queued jobs and suppresses the in-service job's completion
  /// (used when a host crashes); the job in service still occupies the
  /// server until its service time ends. Returns how many frames will never
  /// see their completion run (the summed weights of the queued jobs and the
  /// in-service one), so callers can keep conservation accounting over the
  /// submitted work.
  std::size_t drain();

 private:
  struct Job {
    template <typename F>
    Job(des::Duration s, F&& f, std::size_t w) : service{s}, weight{w} {
      on_done.emplace(std::forward<F>(f));
    }
    des::Duration service;
    des::EventAction on_done;
    std::size_t weight;
  };

  /// Serves the job whose completion action is already in current_done_.
  void start(des::Duration service, std::size_t weight);
  void complete();

  des::Simulator* sim_;
  std::deque<Job> waiting_;
  bool busy_ = false;
  bool drop_current_ = false;
  des::EventAction current_done_;
  std::size_t current_weight_ = 0;
  des::Duration busy_time_ = des::Duration::zero();
  des::TimePoint service_start_;
  std::uint64_t served_ = 0;
};

/// The shared half-duplex hub. Each host's NIC queues its frames in FIFO
/// order, but when the medium frees up the next transmitting host is chosen
/// uniformly among the backlogged ones -- the fairness CSMA/CD arbitration
/// provides, and deliberately NOT a global arrival-order FIFO. The
/// backlogged hosts are kept as an ascending list, updated only when a
/// host's queue turns non-empty or empty, so picking the next host costs
/// one draw whatever n is.
class HubMedium {
 public:
  HubMedium(des::Simulator& sim, des::RandomEngine rng, std::size_t hosts);

  /// Enqueues a frame from `src`; `on_done` (built in the queued frame, like
  /// FifoServer::submit's action) fires when its transmission (with the
  /// given occupancy) completes.
  template <typename F>
  void submit(HostId src, des::Duration service, F&& on_done) {
    std::deque<Frame>& queue = queues_.at(src);
    queue.emplace_back(service, std::forward<F>(on_done));
    if (queue.size() == 1) mark_ready(src);
    ++backlog_;
    if (!busy_) start_next();
  }

  [[nodiscard]] bool busy() const { return busy_; }
  [[nodiscard]] std::size_t backlog() const { return backlog_; }
  [[nodiscard]] des::Duration busy_time() const { return busy_time_; }
  [[nodiscard]] std::uint64_t frames_served() const { return served_; }

 private:
  struct Frame {
    template <typename F>
    Frame(des::Duration s, F&& f) : service{s} {
      on_done.emplace(std::forward<F>(f));
    }
    des::Duration service;
    des::EventAction on_done;
  };

  /// Inserts `src` into ready_ at its ascending position.
  void mark_ready(HostId src);
  void start_next();
  void complete();

  des::Simulator* sim_;
  des::RandomEngine rng_;
  std::vector<std::deque<Frame>> queues_;  // per source host
  /// Hosts with a non-empty queue, ascending: the draw in start_next()
  /// indexes this list, so its order is part of the bit-exact contract.
  std::vector<HostId> ready_;
  std::size_t backlog_ = 0;
  bool busy_ = false;
  des::EventAction current_done_;
  des::Duration busy_time_ = des::Duration::zero();
  des::TimePoint service_start_;
  std::uint64_t served_ = 0;
};

class ContentionNetwork {
 public:
  /// Both `sim` and the callback outlive the network. The topology (null
  /// for the paper's hub) is compiled into a RouteTable at construction and
  /// not referenced after. Throws std::invalid_argument for a topology that
  /// covers another host count, or a multi-rack one combined with
  /// NetworkParams::batched_broadcast, which coalesces on the hub link.
  ContentionNetwork(des::Simulator& sim, des::RandomEngine rng, NetworkParams params,
                    std::size_t hosts, const topo::Topology* topology = nullptr);

  /// Called at step 7 with the destination and the packet.
  void set_deliver(std::function<void(const Packet&)> deliver) { deliver_ = std::move(deliver); }

  /// Frame cost classes: protocol messages pay the calibrated bimodal
  /// occupancy; small datagrams (heartbeats) pay raw wire time only.
  enum class FrameClass { kProtocol, kSmall };

  /// What the frame filter decides for a frame that survived its route:
  /// deliver it, drop it silently (partition / probabilistic loss), or
  /// deliver it twice (datagram duplication).
  enum class FrameFate { kDeliver, kDrop, kDuplicate };
  /// Fault-injection hook, consulted once per frame at the receiver edge
  /// (after the route and pipeline, before the receiver CPU). The frame
  /// has already paid its wire occupancy -- the links do not know about
  /// switch-level filtering or corrupted checksums.
  using FrameFilter = std::function<FrameFate(const Packet&)>;
  void set_frame_filter(FrameFilter filter) { filter_ = std::move(filter); }

  /// Starts a unicast transmission (step 1). `body` is delivered unchanged.
  void send(HostId src, HostId dst, FrameBody body, FrameClass cls = FrameClass::kProtocol);

  /// Starts a broadcast: one frame per receiver (ascending host id,
  /// skipping the sender) sharing a single pooled body. With
  /// NetworkParams::batched_broadcast off, the per-receiver resource
  /// occupancy, RNG draw order and event sequence are identical to n-1
  /// send() calls, so results are bit-identical; on, the fan-out coalesces
  /// into one sender-CPU job and one burst on the hub link (total
  /// occupancy unchanged), cutting the scheduled events per broadcast
  /// from ~4(n-1) to ~n+1.
  void broadcast(HostId src, FrameBody body, FrameClass cls = FrameClass::kProtocol);

  /// Marks a host as crashed: queued CPU work is discarded and future frames
  /// addressed to it vanish after their route occupancy.
  void host_down(HostId h);
  /// Warm restart of a crashed host: frames flow again and the per-pair
  /// TCP dead-peer absorption state is reset in both directions (the
  /// restarted host re-establishes its connections).
  void host_restart(HostId h);
  [[nodiscard]] bool host_up(HostId h) const { return !down_.at(h); }

  /// Service-time scaling hooks (fault injection). `scale` multiplies the
  /// CPU occupancy of frames submitted at `h` from now on (in-service and
  /// queued jobs keep the service time fixed at enqueue); 1.0 restores the
  /// nominal cost bit-exactly.
  void set_cpu_scale(HostId h, double scale);
  [[nodiscard]] double cpu_scale(HostId h) const { return cpu_scale_.at(h); }
  /// Multiplies the non-exclusive pipeline latency of every frame.
  void set_pipeline_scale(double scale);
  [[nodiscard]] double pipeline_scale() const { return pipeline_scale_; }

  [[nodiscard]] std::size_t hosts() const { return cpus_.size(); }
  [[nodiscard]] const NetworkParams& params() const { return params_; }

  // Introspection for tests / ablation benches.
  [[nodiscard]] std::uint64_t frames_sent() const { return frames_sent_; }
  [[nodiscard]] std::uint64_t frames_dropped() const { return frames_dropped_; }
  [[nodiscard]] std::uint64_t frames_filtered() const { return frames_filtered_; }
  [[nodiscard]] std::uint64_t frames_duplicated() const { return frames_duplicated_; }
  [[nodiscard]] const FifoServer& cpu(HostId h) const { return cpus_.at(h); }
  [[nodiscard]] const FramePool& frame_pool() const { return *pool_; }

  /// The links step 4 walks, numbered as in the route table; the hub is
  /// link 0. Counts are of frames (a batched burst enters as n-1).
  [[nodiscard]] const topo::RouteTable& route_table() const { return routes_; }
  [[nodiscard]] std::uint64_t link_entered(std::size_t link) const {
    return links_.at(link).entered;
  }
  [[nodiscard]] std::uint64_t link_exited(std::size_t link) const {
    return links_.at(link).exited;
  }
  [[nodiscard]] std::uint64_t link_overflow_dropped(std::size_t link) const {
    return links_.at(link).overflow_dropped;
  }

#if SANPERF_AUDIT_ENABLED
  /// Frame conservation: every frame submitted (plus duplicated copies) is
  /// eventually delivered, dropped with accounting, or lost to a crash
  /// drain -- and nothing materialises out of thin air. The identity is
  /// checked continuously; `at_drain` additionally requires that no frame
  /// remains in flight (call when the event queue has emptied).
  void audit_check_frame_conservation(bool at_drain) const {
    SANPERF_AUDIT_CHECK("net.frame_conservation",
                        frames_sent_ + frames_duplicated_ ==
                            audit_delivered_ + frames_dropped_ + audit_crash_lost_ +
                                audit_in_flight_,
                        "sent " + std::to_string(frames_sent_) + " + dup " +
                            std::to_string(frames_duplicated_) + " != delivered " +
                            std::to_string(audit_delivered_) + " + dropped " +
                            std::to_string(frames_dropped_) + " + crash-lost " +
                            std::to_string(audit_crash_lost_) + " + in-flight " +
                            std::to_string(audit_in_flight_));
    if (at_drain) {
      SANPERF_AUDIT_CHECK("net.frame_conservation", audit_in_flight_ == 0,
                          std::to_string(audit_in_flight_) +
                              " frames still in flight after the event queue drained");
    }
    // Per-link conservation: every frame that entered a link's queue exits
    // its server exactly once. Between the two counts a frame legitimately
    // occupies the link, so the exact identity holds only once the event
    // queue has drained.
    for (std::size_t li = 0; li < links_.size(); ++li) {
      const Link& l = links_[li];
      SANPERF_AUDIT_CHECK("net.link_conservation", l.entered >= l.exited,
                          "link " + routes_.link_name(li) + " exited " +
                              std::to_string(l.exited) + " frames but only " +
                              std::to_string(l.entered) + " entered");
      if (at_drain) {
        SANPERF_AUDIT_CHECK("net.link_conservation", l.entered == l.exited,
                            "link " + routes_.link_name(li) + ": entered " +
                                std::to_string(l.entered) + " != exited " +
                                std::to_string(l.exited) + " after the event queue drained");
      }
    }
  }
  [[nodiscard]] std::uint64_t audit_frames_delivered() const { return audit_delivered_; }

  /// Ground-truth reachability oracle, audit builds only: when set, every
  /// frame the receiver-edge filter lets through is cross-checked against
  /// it -- a delivery (or duplication) across a pair the oracle says is
  /// partitioned trips `net.no_delivery_across_partition`. The injector
  /// installs the plan's partitioned_at as the oracle, so the filter path
  /// and the declarative plan are verified against each other.
  using PartitionOracle = std::function<bool(HostId src, HostId dst)>;
  void set_partition_oracle(PartitionOracle oracle) { partition_oracle_ = std::move(oracle); }

  /// Test-only corruption backdoor: fabricates a link entry with no
  /// matching exit, so the per-link conservation audit can be made to trip
  /// deliberately at drain.
  void audit_corrupt_link_entry(std::size_t link) { ++links_.at(link).entered; }

  /// Test-only corruption backdoor: runs the step-7 delivery tail without
  /// the crashed-host guard (and without a matching send), so both the
  /// no-delivery-to-crashed audit and the conservation audit can be made
  /// to trip deliberately.
  void audit_force_deliver(const Packet& pkt) {
    SANPERF_AUDIT_CHECK("net.no_delivery_to_crashed", !down_[pkt.dst],
                        "forced delivery to crashed host " + std::to_string(pkt.dst));
    ++audit_delivered_;
    if (deliver_) deliver_(pkt);
  }
#endif

 private:
  /// One route-table link: its params, its conservation counters and its
  /// server, fixed by the link's kind (the hub or a FIFO edge). What a hop
  /// reads comes first, next to a FIFO server's state, not past the hub's
  /// RNG in the variant.
  struct Link {
    template <typename Server, typename... Args>
    Link(const topo::LinkParams& p, std::in_place_type_t<Server> kind, Args&&... args)
        : params{p}, server{kind, std::forward<Args>(args)...} {}
    topo::LinkParams params;
    std::uint64_t entered = 0;
    std::uint64_t exited = 0;
    std::uint64_t overflow_dropped = 0;
    std::variant<FifoServer, HubMedium> server;
  };

  [[nodiscard]] des::Duration sample(const stats::BimodalUniform& dist);
  /// Steps 2-4 of one (shared-body) unicast frame: sender CPU, then the
  /// route. The dead-pair decision (`wire`) was already taken at submit.
  void submit_unicast(FrameRef frame, HostId dst, bool wire, FrameClass cls);
  /// Step 4: occupy route link `step` (< the route's hops), pay its
  /// latency, recurse; the last hop's completion hands the frame to the
  /// receiver edge.
  void route_hop(FrameRef frame, HostId dst, FrameClass cls, std::uint32_t step);
  /// Step 5 on the legacy per-frame path: always schedules the pipeline
  /// event, even at zero latency -- the event order is part of the
  /// bit-exact contract with the pre-pool goldens.
  void receiver_edge(FrameRef frame, HostId dst);
  /// Step 5 on the batched path: a zero pipeline latency short-circuits
  /// straight into the receiver edge with no scheduled event.
  void receiver_edge_batched(const FrameRef& frame, HostId dst);
  /// Steps 5b-7 (receiver-edge filter, receiver CPU, delivery), shared by
  /// every path.
  void edge_arrive(const FrameRef& frame, HostId dst);

  /// Sets the (src, dst) bit in the dead-pair table, returning its prior
  /// value. The table is a packed bitset materialised only when the first
  /// dead pair appears (n^2 bits instead of n^2 bytes; nothing at all for
  /// runs without crashes).
  bool test_and_set_dead_pair(HostId src, HostId dst);
  void clear_dead_pairs(HostId h);

  des::Simulator* sim_;
  des::RandomEngine rng_;
  NetworkParams params_;
  std::shared_ptr<FramePool> pool_;
  std::vector<FifoServer> cpus_;
  topo::RouteTable routes_;
  std::vector<Link> links_;  ///< one per route-table link, in its numbering
  std::vector<char> down_;
  std::vector<std::uint64_t> dead_pair_bits_;  // lazily sized ceil(n*n/64)
  std::vector<double> cpu_scale_;              // per-host CPU service-time multiplier
  double pipeline_scale_ = 1.0;
  FrameFilter filter_;
  std::function<void(const Packet&)> deliver_;
  std::uint64_t frames_sent_ = 0;
  std::uint64_t frames_dropped_ = 0;
  std::uint64_t frames_filtered_ = 0;
  std::uint64_t frames_duplicated_ = 0;
#if SANPERF_AUDIT_ENABLED
  std::uint64_t audit_delivered_ = 0;   ///< frames handed to deliver_ (step 7)
  std::uint64_t audit_in_flight_ = 0;   ///< submitted, not yet at a terminal
  std::uint64_t audit_crash_lost_ = 0;  ///< jobs vaporised by a crash drain
  PartitionOracle partition_oracle_;    ///< ground truth for the receiver edge
#endif
};

}  // namespace sanperf::net
