// Cycle-accurate wormhole simulator.
//
// Timing model (paper §4.1: routing, crossbar and channel each take one
// cycle):
//   * a header arriving at a router input becomes routable after
//     `routing_delay` cycles (default 1);
//   * a granted flit reaches the next router's buffer `link_delay`
//     cycles after leaving (default 2 = crossbar + channel);
//   * each physical link carries at most one flit per cycle; virtual
//     channels multiplex it demand-slotted with round-robin arbitration;
//   * ejection ports consume one flit per cycle.
// Per-hop header latency is therefore routing_delay + link_delay = 3
// cycles, with data flits pipelined at one flit/cycle.
//
// Phase order within a cycle: generate → arrivals → eject → route →
// transmit → inject → detect. A flit can arrive and be forwarded in the
// same cycle (pipelining); a header routed in `route` sends its first
// flit in the same cycle's `transmit`.
//
// Per-cycle cost is proportional to the *active* components: each
// phase iterates an incrementally maintained active set (util::ActiveSet
// bitmaps, ascending index order — the order a full scan would visit).
// Components enqueue themselves on state transitions (tenancy, queue
// push, recovery enqueue, eject bind) and lazily retire when drained.
// Arrivals is not a scan: the Network's wire hands over exactly the
// flits due this cycle, in link order. Message generation is scheduled
// by each injection process's next_poll_hint, so idle sources are not
// polled at all. Blocked headers keep their route code in their
// route-pending entry and are parked until a candidate VC frees or a
// detection bound comes due (DESIGN.md §5, "Blocked-header memo").
// tests/reference/ holds a naive model of the same cycle that full-
// scans everything; the lock-step test checks this core against it.
#pragma once

#include <array>
#include <bit>
#include <memory>
#include <optional>
#include <queue>
#include <string>
#include <vector>

#include "core/limiter.hpp"
#include "deadlock/detection.hpp"
#include "deadlock/recovery.hpp"
#include "fault/manager.hpp"
#include "fault/schedule.hpp"
#include "metrics/collector.hpp"
#include "metrics/online/online_stats.hpp"
#include "metrics/spatial.hpp"
#include "obs/tracer.hpp"
#include "routing/routing.hpp"
#include "routing/routing_lut.hpp"
#include "routing/selection.hpp"
#include "sim/flow_control.hpp"
#include "sim/message.hpp"
#include "sim/network.hpp"
#include "traffic/workload.hpp"
#include "util/fifo_arena.hpp"

namespace wormsim::sim {

struct SimulatorConfig {
  NetworkParams net{};
  routing::Algorithm algorithm = routing::Algorithm::TFAR;
  routing::SelectionPolicy selection = routing::SelectionPolicy::MaxFreeVcs;
  unsigned routing_delay = 1;
  core::LimiterConfig limiter{};
  deadlock::DetectionConfig detection{};
  deadlock::RecoveryConfig recovery{};
  /// Deterministic fault schedule (empty = no fault subsystem at all:
  /// the cycle loop's only cost is one branch on a null manager).
  /// Non-empty schedules require TFAR routing and a tabulable network —
  /// reconfiguration routes around failures by rebuilding a routing
  /// LUT, which only these runs build.
  fault::FaultSchedule faults{};
  /// Flow-control scheme gating flit advance and VC admission
  /// (default: the paper's wormhole model).
  FlowControlConfig flow{};
  /// Threads per simulation: always 1 (parallelism lives in the sweep
  /// harness's --jobs). A read-only constant, not a setting: perfbench's
  /// self-test reads it outside its requires-guard, so it goes only
  /// together with that line.
  static constexpr unsigned shards = 1;
  std::uint64_t seed = 1;
};

/// The simulator's one cumulative ledger, counted since construction:
/// scan accounting (how many elements the phases visited) and every
/// simulation event a result reports. Each event bumps its field once,
/// unconditionally, where it happens; a count over any span of cycles
/// (a run's measurement window, an online recording window) is the
/// difference of two snapshots taken at its ends (since()).
/// The active-link count is exact simulation state; active nodes and
/// the visit count describe the active-set machinery.
struct CoreScanStats {
  std::uint64_t cycles = 0;
  std::uint64_t scan_visited = 0;      // loop entries executed
  std::uint64_t active_links_sum = 0;  // tenant links, summed per cycle
  std::uint64_t active_nodes_sum = 0;  // injection-active nodes, per cycle
  std::uint64_t route_evals = 0;       // route-code computations
  std::uint64_t route_memo_hits = 0;   // visits to known-blocked headers

  std::uint64_t generated = 0;        // messages generated (queued or lost)
  std::uint64_t generated_flits = 0;  // their flits
  std::uint64_t injected = 0;         // source-queue heads that entered
  std::uint64_t ejected_flits = 0;    // flits taken by ejection ports
  std::uint64_t delivered = 0;        // messages fully ejected
  std::uint64_t delivered_measured = 0;  // of those, measured messages
  std::uint64_t deadlocks = 0;        // FC3D detections (absorptions)
  std::uint64_t lost = 0;             // dropped by fault reconfiguration
  std::uint64_t lost_measured = 0;    // of those, measured messages
  // The Figure-2 probe, taken at a header's first routing per tenancy.
  std::uint64_t probes = 0;
  std::uint64_t probe_rule_a = 0;
  std::uint64_t probe_rule_b = 0;
  std::uint64_t probe_either = 0;

  /// Fraction of a full scan's visits skipped, given a full scan's
  /// visits per cycle (Simulator::full_scan_visits).
  double skipped_scan_ratio(std::uint64_t full_scan_per_cycle) const noexcept {
    const auto full = static_cast<double>(cycles * full_scan_per_cycle);
    return full > 0 ? 1.0 - static_cast<double>(scan_visited) / full : 0.0;
  }
  double avg_active_links() const noexcept {
    return cycles ? static_cast<double>(active_links_sum) /
                        static_cast<double>(cycles)
                  : 0.0;
  }
  double avg_active_nodes() const noexcept {
    return cycles ? static_cast<double>(active_nodes_sum) /
                        static_cast<double>(cycles)
                  : 0.0;
  }
  /// Fraction of route queries answered by the blocked-header memo:
  /// visits to headers already known blocked this tenancy, parked or
  /// not (0 when nothing ever blocked).
  double route_memo_hit_rate() const noexcept {
    const std::uint64_t asked = route_evals + route_memo_hits;
    return asked ? static_cast<double>(route_memo_hits) /
                       static_cast<double>(asked)
                 : 0.0;
  }
  /// Counter deltas since `earlier`: the counts of the cycles between
  /// the two snapshots. Every field is a std::uint64_t counter, so the
  /// struct is differenced as an array of them.
  CoreScanStats since(const CoreScanStats& earlier) const noexcept {
    using Words = std::array<std::uint64_t, sizeof(CoreScanStats) / 8>;
    auto d = std::bit_cast<Words>(*this);
    const auto e = std::bit_cast<Words>(earlier);
    for (std::size_t i = 0; i < d.size(); ++i) d[i] -= e[i];
    return std::bit_cast<CoreScanStats>(d);
  }
};

/// Warm-up / measurement / drain protocol for one run.
struct RunProtocol {
  Cycle warmup = 5000;
  Cycle measure = 20000;
  /// Extra cycles (with traffic still flowing) allowed for measured
  /// messages to drain before the run is cut off.
  Cycle drain_max = 30000;
};

class Simulator {
 public:
  /// `workload` may be null: no autonomous traffic (tests drive the
  /// network through push_message()).
  Simulator(const topo::KAryNCube& topo, const SimulatorConfig& cfg,
            std::unique_ptr<traffic::Workload> workload);
  // Network and the routing functions hold pointers into topo_.
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  // --- Driving ----------------------------------------------------------
  void step();
  void step_cycles(Cycle n) {
    for (Cycle i = 0; i < n; ++i) step();
  }
  Cycle cycle() const noexcept { return cycle_; }

  /// Enqueue one message directly at `src`'s source queue (test hook and
  /// trace-driven workloads). Returns false for src == dst; throws
  /// std::invalid_argument for a node id outside the network or a
  /// length over traffic::kMaxMessageFlits.
  bool push_message(NodeId src, NodeId dst, std::uint32_t length);

  /// Run the full warm-up / measure / drain protocol and summarize.
  metrics::SimResult run(const RunProtocol& protocol);
  /// For a simulator driven by step(): the summary of every cycle so
  /// far (counts since construction, measurement window [0, cycle())).
  metrics::SimResult totals() const { return summarize(scan_, scan_, cycle_); }

  // --- Introspection ----------------------------------------------------
  const topo::KAryNCube& topology() const noexcept { return topo_; }
  Network& network() noexcept { return net_; }
  const Network& network() const noexcept { return net_; }
  /// The virtual routing function the fault LUT tabulates (perfbench
  /// also routes its timed limiter requests through it).
  const routing::RoutingFunction& routing_function() const noexcept {
    return *routing_;
  }
  core::InjectionLimiter& limiter() noexcept { return *limiter_; }
  /// Replace the injection-limitation mechanism with a user-supplied
  /// one (the extension seam for out-of-tree mechanisms); null is
  /// ignored. Takes effect from the next cycle.
  void set_limiter(std::unique_ptr<core::InjectionLimiter> limiter) {
    if (!limiter) return;
    limiter_ = std::move(limiter);
  }
  traffic::Workload* workload() noexcept { return workload_.get(); }
  const metrics::Collector& collector() const noexcept { return collector_; }

  /// Attach an event tracer (nullptr detaches). Observation only: every
  /// hook is a branch-on-null, results are bit-identical with or
  /// without it, and the instrumented-off hot path stays unchanged
  /// (bench/micro_mechanism --obs-overhead-json gates this).
  void set_tracer(obs::Tracer* tracer) noexcept { tracer_ = tracer; }
  obs::Tracer* tracer() const noexcept { return tracer_; }

  /// Attach per-channel/per-node spatial metrics (nullptr detaches).
  /// Counters, per-link flit counts included, are fed incrementally
  /// while attached, plus a periodic link-occupancy sweep.
  void set_spatial(metrics::SpatialMetrics* spatial) noexcept {
    spatial_ = spatial;
  }
  metrics::SpatialMetrics* spatial() const noexcept { return spatial_; }

  /// Attach streaming online statistics (nullptr detaches): latency
  /// histogram, windowed time series, saturation-onset detector and the
  /// optional phase profiler. Same contract as the tracer: every hook
  /// branches on null and attaching never changes simulation results.
  /// The recorder's current window starts at the attach cycle.
  void set_online(metrics::OnlineStats* online) noexcept {
    online_ = online;
    if (online_) online_->start_window(cycle_, online_sample());
  }
  metrics::OnlineStats* online() const noexcept { return online_; }
  /// Flush the final (possibly partial) recording window into the
  /// attached OnlineStats (no-op when none is attached).
  void finish_online();

  const SimulatorConfig& config() const noexcept { return cfg_; }

  /// The cumulative ledger: scan accounting and event counts since
  /// construction.
  const CoreScanStats& scan_stats() const noexcept { return scan_; }
  /// Element visits per cycle of a full scan: every network link
  /// (transmit) and every node three times (generate, eject, inject).
  std::uint64_t full_scan_visits() const noexcept {
    return net_.num_net_links() + 3 * std::uint64_t{topo_.num_nodes()};
  }

  /// Active-set coherence: the Network link sets exactly mirror link
  /// state, the node sets cover every active node, and the incremental
  /// counters match a recount. Returns false and fills `why` (if
  /// non-null) on the first violation. Cheap enough for test loops; the
  /// debug build runs it periodically via an assert.
  bool check_active_sets(std::string* why = nullptr) const;
  /// Message conservation: generated == delivered + in network/queues +
  /// lost-to-faults, and an empty network holds zero flits. Same
  /// reporting convention.
  bool check_conservation(std::string* why = nullptr) const;
  /// Fault coherence (trivially true without a fault schedule): the
  /// network's dead-link fields mirror the fault mask, dead links carry
  /// no tenants/flits and advertise no free VCs, dead nodes hold no
  /// queued, recovering or ejecting traffic, and no live in-network
  /// message targets a dead destination. Same reporting convention.
  bool check_fault_invariants(std::string* why = nullptr) const;
  /// Flow-control invariants: no buffer over/underflow in any scheme;
  /// under Credit additionally per-slot credit conservation (credits
  /// consumed == occupancy + returns on the wire). Same convention.
  bool check_flow_control(std::string* why = nullptr) const {
    return check_buffers(net_, why) && (!credit_ || credit_->check(why));
  }

  /// Buffer-management messages (credit returns) sent so far; 0 unless
  /// the scheme is Credit.
  std::uint64_t credit_messages() const noexcept {
    return credit_ ? credit_->credit_messages() : 0;
  }

  std::size_t messages_in_flight() const noexcept { return active_.size(); }
  std::size_t source_queue_len(NodeId node) const noexcept {
    return queues_.size(node);
  }
  std::size_t source_queue_total() const noexcept { return queues_.total(); }
  std::size_t recovery_pending() const noexcept {
    return recovery_.pending_total();
  }
  std::uint64_t total_deadlock_detections() const noexcept {
    return scan_.deadlocks;
  }
  std::uint64_t total_delivered() const noexcept { return scan_.delivered; }
  /// Messages dropped by fault reconfiguration (destination dead or
  /// unreachable); part of the conservation identity.
  std::uint64_t total_lost() const noexcept { return scan_.lost; }
  /// Schedule events applied so far (kills + restores).
  std::uint64_t fault_events_applied() const noexcept { return fault_events_; }
  /// Routing-table reconfigurations triggered by fault events.
  std::uint64_t lut_rebuilds() const noexcept { return lut_rebuilds_; }
  /// Null when the fault schedule is empty.
  const fault::FaultManager* fault_manager() const noexcept {
    return faults_.get();
  }

  const Message& message(MsgId id) const noexcept { return pool_[id]; }
  /// Cycle the route-pending header at `ref` entered its buffer, or
  /// nullopt (tests; scans the pending list).
  std::optional<Cycle> header_arrival(VcRef ref) const;

 private:
  /// A source-queue entry: 16 bytes, so an arena slot (entry plus its
  /// link) is 24. Lengths fit 16 bits: traffic::kMaxMessageFlits.
  struct PendingMessage {
    Cycle gen_time = 0;
    NodeId dst = 0;
    std::uint16_t length = 0;
    bool measured = false;
  };
  static_assert(sizeof(PendingMessage) == 16);

  void phase_generate(Cycle t);
  void phase_arrivals(Cycle t);
  void phase_eject(Cycle t);
  void phase_route(Cycle t);
  void phase_transmit(Cycle t);
  void phase_inject(Cycle t);
  /// The cycle's phases in order; a Profiled cycle times each phase
  /// into the attached OnlineStats' profiler.
  template <bool Profiled>
  void run_phases(Cycle t);
  /// Snapshot what the online window recorder wants: the instantaneous
  /// state (in-flight flits, blocked headers, free-VC occupancy from the
  /// limiter-visible status registers, queue depth) and the cumulative
  /// event counts its windows are differences of.
  metrics::WindowSample online_sample() const;
  /// A SimResult from two ledger deltas: `run` for the whole-run
  /// counts, `window` (spanning `window_cycles`) for the measurement
  /// window's. Latency and queue statistics come from the collector.
  metrics::SimResult summarize(const CoreScanStats& run,
                               const CoreScanStats& window,
                               Cycle window_cycles) const;

  // Per-element phase bodies.
  void eject_node(NodeId node, Cycle t);
  void inject_node(NodeId node, Cycle t);
  /// One pending_route_ entry of the sequential route phase, start to
  /// finish (parked check through allocation). Returns true when the
  /// entry was resolved and swap-removed from pending_route_ (the
  /// caller must then re-examine index i), false when it stays pending.
  bool route_entry(std::size_t i, Cycle t, Cycle routing_delay,
                   bool detect_on, Cycle threshold);

  /// Source-queue push shared by push_message and phase_generate:
  /// maintains the queue total, conservation counter and the
  /// injection-active node set.
  void enqueue_source(NodeId node, NodeId dst, std::uint32_t length,
                      Cycle t);
  /// Poll the workload for `node` at cycle `t`, then re-subscribe the
  /// node according to its process's next_poll_hint (every-cycle set,
  /// timed heap, or nothing for rate-0 sources until a workload
  /// mutation bumps the epoch).
  void poll_node(NodeId node, Cycle t);
  void poll_and_reschedule(NodeId node, Cycle t);

  /// FC3D condition: every VC the routing function offered has shown no
  /// flow-control activity for the detection threshold. On failure,
  /// `*earliest` is set to the first future cycle at which the witness
  /// VC's inactivity could reach the threshold — a lower bound on when
  /// detection could fire (last_activity is monotone), which a blocked
  /// entry caches to skip re-evaluation until then.
  bool requested_channels_frozen(NodeId node, Cycle t,
                                 const routing::RouteResult& route,
                                 Cycle* earliest) const;

  /// Route code: the fault LUT when present, the closed-form coder
  /// otherwise. Counts into scan_.route_evals.
  routing::RouteCode route_code(NodeId node, NodeId dst) {
    ++scan_.route_evals;
    return lookup_code(node, dst);
  }
  routing::RouteCode lookup_code(NodeId node, NodeId dst) const {
    return lut_ ? lut_->code(node, dst) : coder_.code(node, dst);
  }
  void expand_route(routing::RouteCode code,
                    routing::RouteResult& out) const {
    routing::expand(code, cfg_.algorithm, net_.params().num_vcs, out);
  }

  /// Route of `node`'s queue head (bound for `dst`) into route_buf_,
  /// for the limiter's request. The node's last (dst, code) pair
  /// answers a repeat destination: routing is a pure function of
  /// (node, dst), so a matching dst is an exact hit and only a
  /// routing-table rebuild clears the cache.
  void head_route(NodeId node, NodeId dst) {
    HeadRoute& h = head_route_[node];
    if (h.dst != dst) h = {dst, route_code(node, dst)};
    expand_route(h.code, route_buf_);
  }

  /// Append `ref`'s new header to the route-pending list; `node` is the
  /// router it waits at (the link's dst, known to both callers).
  void enroll_for_routing(VcRef ref, NodeId node, Cycle t);
  void start_injection(NodeId node, unsigned inj_channel, MsgId id, Cycle t);
  /// Free every VC the worm occupies (head-to-tail upstream walk),
  /// including an ejection-port binding, and reset the message record
  /// to its pre-injection state. Shared by deadlock absorption and
  /// fault surgery.
  void teardown_worm(MsgId id, Cycle t);
  void absorb_deadlocked(MsgId id, Cycle t);
  void deliver(MsgId id, Cycle t);
  void activate(MsgId id);
  void deactivate(MsgId id);

  // --- Fault injection & dynamic reconfiguration -----------------------
  /// Apply due schedule events, tear traffic off dying components,
  /// rebuild the routing table and purge undeliverable messages.
  void apply_faults(Cycle t);
  /// Tear down a live worm and hand it to deadlock recovery at the node
  /// its header had reached (the DBR-style reuse of the recovery path).
  void fault_absorb(MsgId id, Cycle t);
  /// Mirror the fault mask into the network's dead-link fields, tearing
  /// down every worm crossing a newly dead link first.
  void sync_dead_links(Cycle t);
  /// Drop every active, recovery-queued or source-queued message whose
  /// destination died or became unreachable.
  void purge_undeliverable(Cycle t);
  /// Clear a dying node's source queue and tear down worms occupying
  /// its injection channels.
  void kill_node_state(NodeId node, Cycle t);
  /// Both endpoints alive and a route exists on the alive graph.
  bool deliverable(NodeId from, NodeId dst) const;
  void count_lost(bool measured);
  /// Deactivate + release an in-network/recovery message as lost.
  void drop_active_message(MsgId id);

  topo::KAryNCube topo_;
  SimulatorConfig cfg_;
  Network net_;
  std::unique_ptr<routing::RoutingFunction> routing_;
  routing::Selector selector_;
  std::unique_ptr<core::InjectionLimiter> limiter_;
  routing::RouteCoder coder_;
  /// Tabulated routing, built only when a fault schedule is present:
  /// reconfiguration works by rebuilding this table. Null on healthy
  /// networks. It holds a pointer to routing_, declared before it.
  std::unique_ptr<routing::RoutingLut> lut_;
  std::unique_ptr<traffic::Workload> workload_;
  /// Null when cfg.faults is empty — the provably-no-op fast path, like
  /// the branch-on-null tracer.
  std::unique_ptr<fault::FaultManager> faults_;
  deadlock::RecoveryManager recovery_;
  metrics::Collector collector_;
  obs::Tracer* tracer_ = nullptr;            // non-owning; null = off
  metrics::SpatialMetrics* spatial_ = nullptr;  // non-owning; null = off
  metrics::OnlineStats* online_ = nullptr;      // non-owning; null = off

  MessagePool pool_;
  std::vector<MsgId> active_;

  /// Per-node source queues in one shared slot arena.
  util::FifoArena<PendingMessage> queues_;
  std::vector<Cycle> head_since_;     // cycle the current queue head became head
  std::vector<std::uint32_t> alloc_rr_;  // per-node selector rotation

  /// Route-pending work item, one per header tenancy. `msg` and `node`
  /// (the router the header waits at) are enrollment-time snapshots.
  /// A header whose selection failed is `blocked`: its route code
  /// stays here, and the header remains
  /// blocked exactly while VCT admission refused it (constant per
  /// tenancy) or no candidate of `code` has a free bit in the live
  /// free-mask row. Before `no_detect_before` FC3D detection cannot
  /// fire either, so such a visit reads only the entry and one row.
  /// Fault surgery clears `blocked` on every entry (see apply_faults).
  /// `header_arrival` (routable from it + routing_delay on) is exact:
  /// see DESIGN.md, "Flit-path state layout".
  struct PendingRoute {
    VcRef ref;
    MsgId msg = kNoMsg;
    NodeId node = 0;
    routing::RouteCode code;
    Cycle header_arrival = 0;
    /// Earliest cycle FC3D detection could fire for this tenancy: the
    /// last failed guard (worm progress or witness-VC activity plus
    /// threshold). Both sources are monotone, so skipping evaluation
    /// until then is exact, not heuristic.
    Cycle no_detect_before = 0;
    bool blocked = false;
    bool refused = false;  // VCT admission refused this tenancy
  };
  std::vector<PendingRoute> pending_route_;
  routing::RouteResult route_buf_;
  util::SmallVector<traffic::GeneratedMessage, 8> gen_buf_;

  /// Per-node queue-head route cache (see head_route), reset by fault
  /// reconfiguration.
  struct HeadRoute {
    NodeId dst = topo::kInvalidNode;
    routing::RouteCode code;
  };
  std::vector<HeadRoute> head_route_;

  // --- Flow control (see flow_control.hpp) -----------------------------
  /// The credit loop; null unless the scheme is Credit. Wormhole's gate
  /// is the transmit loop's occupancy < cap test itself.
  std::unique_ptr<CreditFlowControl> credit_;
  bool vct_ = false;  // VCT's whole-packet admission gates VC claims
  /// The VC status register the limiters and the Figure-2 probe read:
  /// the Network itself, or under Credit the credit loop, in which VCs
  /// with outstanding credits read as busy (a channel is only completely
  /// free once its credits came home). Selection reads the raw row —
  /// claimability is a tenancy property in every scheme, so the raw row
  /// is also the one the blocked-header test reads.
  const core::ChannelStatus* status_ = &net_;

  // --- Active sets (O(1) per transition) ------------------------------
  util::ActiveSet eject_nodes_;   // nodes with >= 1 busy ejection port
  util::ActiveSet inject_nodes_;  // occupied inj VC, queued msg or
                                  // pending recovery (lazily pruned)

  // Generation scheduling: a node is subscribed in
  // exactly one place — gen_dense_ (poll every cycle), the timed heap
  // (poll at the hinted cycle) or nowhere (rate-0 source). gen_where_
  // tracks which, for O(1) transitions and coherence checks.
  enum class GenSub : std::uint8_t { None, EveryCycle, Timed };
  using GenHeap =
      std::priority_queue<std::pair<Cycle, NodeId>,
                          std::vector<std::pair<Cycle, NodeId>>,
                          std::greater<>>;
  util::ActiveSet gen_dense_;
  GenHeap gen_heap_;
  std::vector<GenSub> gen_where_;
  std::uint64_t gen_epoch_ = ~std::uint64_t{0};  // forces initial refill

  CoreScanStats scan_;

  Cycle cycle_ = 0;
  std::uint64_t fault_events_ = 0;  // schedule events applied
  std::uint64_t lut_rebuilds_ = 0;  // fault-triggered retabulations
  std::vector<fault::FaultEvent> fault_buf_;
  std::vector<std::pair<deadlock::NodeId, deadlock::MsgId>> purge_buf_;
};

}  // namespace wormsim::sim
