#include "sim/simulator.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <chrono>
#include <limits>
#include <stdexcept>
#include <string>

#include "core/alo.hpp"

namespace wormsim::sim {

namespace {
constexpr Cycle kForever = std::numeric_limits<Cycle>::max();
constexpr Cycle kQueueSamplePeriod = 64;
}  // namespace

Simulator::Simulator(const topo::KAryNCube& topo, const SimulatorConfig& cfg,
                     std::unique_ptr<traffic::Workload> workload)
    : topo_(topo),
      cfg_(cfg),
      net_(topo_, cfg.net),
      routing_(routing::make_routing(cfg.algorithm, topo_, cfg.net.num_vcs)),
      selector_(cfg.selection),
      limiter_(core::make_limiter(cfg.limiter, topo_.num_nodes())),
      coder_(topo_),
      workload_(std::move(workload)),
      recovery_(topo_.num_nodes()),
      collector_(topo_.num_nodes(), 0, kForever),
      queues_(topo_.num_nodes()),
      head_since_(topo_.num_nodes(), 0),
      alloc_rr_(topo_.num_nodes(), 0),
      eject_nodes_(topo_.num_nodes()),
      inject_nodes_(topo_.num_nodes()),
      gen_dense_(topo_.num_nodes()),
      gen_where_(topo_.num_nodes(), GenSub::None) {
  if (cfg.routing_delay < 1 || cfg.routing_delay > 8) {
    throw std::invalid_argument("routing_delay must be in [1, 8]");
  }
  if (!cfg_.faults.empty()) {
    fault::validate(cfg_.faults, topo_);
    if (cfg_.algorithm != routing::Algorithm::TFAR) {
      throw std::invalid_argument(
          "fault schedules require TFAR routing (reconfiguration has no "
          "alternative paths under a deterministic algorithm)");
    }
    // Reconfiguration routes around failures by rebuilding the LUT.
    // The LUT is bit-identical to the closed-form codes, so building it
    // here cannot perturb pre-fault behavior.
    lut_ = std::make_unique<routing::RoutingLut>(*routing_, topo_);
    if (!lut_->tabulated()) {
      throw std::invalid_argument(
          "fault schedules need a tabulable network (too many nodes for "
          "the routing-LUT budget)");
    }
    faults_ = std::make_unique<fault::FaultManager>(topo_, cfg_.faults);
  }
  head_route_.resize(topo_.num_nodes());
  if (cfg_.flow.scheme == FlowControl::Credit) {
    credit_ = std::make_unique<CreditFlowControl>(
        net_, cfg_.flow.credit_return_delay);
    status_ = credit_.get();
  }
  vct_ = cfg_.flow.scheme == FlowControl::Vct;
}

void Simulator::enqueue_source(NodeId node, NodeId dst, std::uint32_t length,
                               Cycle t) {
  ++scan_.generated;
  scan_.generated_flits += length;
  if (faults_ && !deliverable(node, dst)) {
    // The source cannot know the destination died, but queueing the
    // message would wedge the FIFO head forever: it is lost at once.
    // (Generation at a dead node itself is suppressed in poll_node.)
    count_lost(collector_.in_window(t));
    return;
  }
  static_assert(traffic::kMaxMessageFlits <= 0xFFFF, "PendingMessage length");
  assert(length <= traffic::kMaxMessageFlits);
  queues_.push_back(node, {t, dst, static_cast<std::uint16_t>(length),
                           collector_.in_window(t)});
  if (queues_.size(node) == 1) head_since_[node] = t;
  inject_nodes_.insert(node);
  if (tracer_) {
    tracer_->record(t, obs::EventKind::QueueEnqueue, node,
                    /*aux8=*/0, static_cast<std::uint16_t>(length),
                    static_cast<std::uint32_t>(queues_.size(node)));
  }
}

bool Simulator::push_message(NodeId src, NodeId dst, std::uint32_t length) {
  const NodeId nodes = topo_.num_nodes();
  if (src >= nodes || dst >= nodes) {
    throw std::invalid_argument(
        "push_message: node id out of range (src " + std::to_string(src) +
        ", dst " + std::to_string(dst) + "; the network has " +
        std::to_string(nodes) + " nodes)");
  }
  traffic::check_message_length(length);
  if (src == dst || length == 0) return false;
  enqueue_source(src, dst, length, cycle_);
  return true;
}

void Simulator::step() {
  const Cycle t = cycle_;
  scan_.cycles += 1;
  if (credit_) credit_->begin_cycle(t);
  if (online_ && online_->profile_due(t)) {
    run_phases<true>(t);
  } else {
    run_phases<false>(t);
  }
  scan_.active_links_sum += net_.tenant_links().size();
  scan_.active_nodes_sum += inject_nodes_.size();
  if (t % kQueueSamplePeriod == 0) {
    collector_.on_queue_sample(queues_.total());
    if (spatial_) {
      for (NodeId node = 0; node < topo_.num_nodes(); ++node) {
        spatial_->on_queue_sample(node, queues_.size(node));
      }
      for (LinkId l = 0; l < net_.num_net_links(); ++l) {
        spatial_->on_link_occupancy_sample(
            l,
            static_cast<unsigned>(std::popcount(net_.link(l).active_vc_mask)));
      }
    }
#ifndef NDEBUG
    std::string why;
    assert(check_active_sets(&why) && why.c_str());
    assert(check_conservation(&why) && why.c_str());
    assert(check_fault_invariants(&why) && why.c_str());
    assert(check_flow_control(&why) && why.c_str());
#endif
  }
  if (online_ && online_->window_closes(t)) {
    online_->close_window(t, online_sample());
  }
  ++cycle_;
}

template <bool Profiled>
void Simulator::run_phases(Cycle t) {
  const auto phase = [&]([[maybe_unused]] metrics::Phase p, auto&& body) {
    if constexpr (Profiled) {
      online_->profiler().time(p, body);
    } else {
      body();
    }
  };
  phase(metrics::Phase::Fault, [&] {
    if (faults_ && faults_->due(t)) apply_faults(t);
  });
  phase(metrics::Phase::Generate, [&] { phase_generate(t); });
  phase(metrics::Phase::Arrivals, [&] { phase_arrivals(t); });
  phase(metrics::Phase::Eject, [&] { phase_eject(t); });
  phase(metrics::Phase::Route, [&] { phase_route(t); });
  phase(metrics::Phase::Transmit, [&] { phase_transmit(t); });
  phase(metrics::Phase::Inject, [&] { phase_inject(t); });
  if constexpr (Profiled) online_->profiler().count_sample();
}

metrics::WindowSample Simulator::online_sample() const {
  metrics::WindowSample s;
  s.in_flight_flits = net_.flits_in_network();
  s.blocked_headers = pending_route_.size();
  const unsigned chans = topo_.num_channels();
  const unsigned vcs = net_.params().num_vcs;
  const std::uint8_t vc_mask =
      static_cast<std::uint8_t>((1u << vcs) - 1u);
  std::uint64_t free_vcs = 0;
  for (NodeId node = 0; node < topo_.num_nodes(); ++node) {
    const std::uint8_t* row = status_->free_row(node);
    for (unsigned c = 0; c < chans; ++c) {
      free_vcs += static_cast<unsigned>(std::popcount(
          static_cast<std::uint8_t>(row[c] & vc_mask)));
    }
  }
  s.free_vcs = free_vcs;
  s.total_vcs = static_cast<std::uint64_t>(topo_.num_nodes()) * chans * vcs;
  s.queue_total = queues_.total();
  s.offered_flits = scan_.generated_flits;
  s.accepted_flits = scan_.ejected_flits;
  s.injected = scan_.injected;
  s.delivered = scan_.delivered;
  s.deadlocks = scan_.deadlocks;
  s.credit_messages = credit_messages();
  return s;
}

void Simulator::finish_online() {
  if (!online_) return;
  online_->finish(cycle_, online_sample());
}

// --- Generation -------------------------------------------------------

void Simulator::poll_node(NodeId node, Cycle t) {
  // Dead sources are silent; skipping the poll leaves the per-node
  // generator state untouched, so it resumes cleanly on restore.
  if (faults_ && faults_->mask().node_dead(node)) return;
  gen_buf_.clear();
  workload_->poll(node, t, gen_buf_);
  for (const auto& g : gen_buf_) {
    enqueue_source(node, g.dst, g.length_flits, t);
  }
}

void Simulator::poll_and_reschedule(NodeId node, Cycle t) {
  scan_.scan_visited += 1;
  poll_node(node, t);
  const std::uint64_t hint = workload_->next_poll(node, t);
  if (hint == traffic::kNeverPoll) {
    gen_dense_.erase(node);
    gen_where_[node] = GenSub::None;
  } else if (hint <= t + 1) {
    gen_dense_.insert(node);
    gen_where_[node] = GenSub::EveryCycle;
  } else {
    gen_dense_.erase(node);
    gen_heap_.push({hint, node});
    gen_where_[node] = GenSub::Timed;
  }
}

void Simulator::phase_generate(Cycle t) {
  if (!workload_) return;
  const NodeId nodes = topo_.num_nodes();
  // A workload mutation (set_offered_load) invalidates every
  // outstanding hint: drop the timed subscriptions and re-poll every
  // node from the next cycle on.
  if (workload_->mutation_epoch() != gen_epoch_) {
    gen_epoch_ = workload_->mutation_epoch();
    gen_heap_ = {};
    for (NodeId node = 0; node < nodes; ++node) {
      gen_dense_.insert(node);
      gen_where_[node] = GenSub::EveryCycle;
    }
  }
  // Every-cycle processes first, then due timed ones. Order matters for
  // subscription exclusivity, not results: a heap pop may re-subscribe
  // its node into gen_dense_, which must not be re-visited this cycle —
  // per-node generator state is independent, so cross-node poll order
  // itself is free.
  gen_dense_.for_each(
      [&](std::size_t node) { poll_and_reschedule(static_cast<NodeId>(node), t); });
  while (!gen_heap_.empty() && gen_heap_.top().first <= t) {
    const NodeId node = gen_heap_.top().second;
    gen_heap_.pop();
    assert(gen_where_[node] == GenSub::Timed);
    poll_and_reschedule(node, t);
  }
}

// --- Arrivals ---------------------------------------------------------

// Not a scan: the wire hands over exactly the flits due this cycle, so
// the phase counts no visits.
void Simulator::phase_arrivals(Cycle t) {
  net_.process_arrivals(t, [this, t](VcRef ref) {
    enroll_for_routing(ref, net_.link(ref.link).dst, t);
  });
}

void Simulator::enroll_for_routing(VcRef ref, NodeId node, Cycle t) {
  VcState& v = net_.vc(ref);
  if (!v.pending_route) {
    v.pending_route = true;
    PendingRoute e;
    e.ref = ref;
    e.msg = v.msg;
    e.node = node;
    e.header_arrival = t;
    pending_route_.push_back(e);
  }
}

// --- Ejection ---------------------------------------------------------

void Simulator::eject_node(NodeId node, Cycle t) {
  const unsigned ports = net_.params().eje_channels;
  for (unsigned p = 0; p < ports; ++p) {
    EjectPort& port = net_.eject_port(node, p);
    if (!port.busy()) continue;
    VcState& u = net_.vc(port.src);
    if (u.buffered() == 0) continue;
    ++u.out_count;
    --u.occupancy;
    u.last_activity = t;
    net_.mark_progress(port.src, t);
    // Ejected flits return credits like forwarded ones — except from an
    // injection VC, which sits outside the credit loop (a recovery
    // re-injection at the absorb node can eject straight from one when
    // that node happens to be the destination).
    if (credit_ && !net_.is_injection(port.src.link)) {
      credit_->on_flit_drained(net_.vc_flat_index(port.src), t);
    }
    ++scan_.ejected_flits;
    if (spatial_) spatial_->on_ejected_flit(node);
    if (u.out_count == u.msg_length) {
      net_.set_active(port.src, false);
      if (tracer_) {
        tracer_->record(t, obs::EventKind::VcRelease, port.src.link,
                        port.src.vc, 0, port.msg);
      }
      u.clear();
      const MsgId id = port.msg;
      port.msg = kNoMsg;
      port.src = VcRef{};
      deliver(id, t);
    }
  }
}

void Simulator::phase_eject(Cycle t) {
  const unsigned ports = net_.params().eje_channels;
  scan_.scan_visited += eject_nodes_.size();
  eject_nodes_.for_each([&](std::size_t node) {
    eject_node(static_cast<NodeId>(node), t);
    bool any_busy = false;
    for (unsigned p = 0; p < ports; ++p) {
      any_busy |= net_.eject_port(static_cast<NodeId>(node), p).busy();
    }
    if (!any_busy) eject_nodes_.erase(node);
  });
}

// --- Routing ----------------------------------------------------------

bool Simulator::route_entry(std::size_t i, Cycle t, Cycle routing_delay,
                            bool detect_on, Cycle threshold) {
  PendingRoute& e = pending_route_[i];
  // Known-blocked header: it is still blocked exactly while admission
  // refused it or no candidate of its route has a free bit in the live
  // row selection reads (routing::any_free). With a detection bound in
  // the future as well, the whole visit is a no-op, decided without
  // touching the VcState or Message record.
  bool still_blocked = false;
  if (e.blocked) {
    ++scan_.route_memo_hits;
    still_blocked = e.refused ||
                    !routing::any_free(e.code, cfg_.algorithm,
                                       net_.params().num_vcs,
                                       net_.free_mask_row(e.node));
    if (still_blocked && t < e.no_detect_before) return false;
  }
  const VcRef ref = e.ref;
  VcState& v = net_.vc(ref);
  if (!v.pending_route) {
    // Stale entry (the worm was torn down by fault surgery).
    pending_route_[i] = pending_route_.back();
    pending_route_.pop_back();
    return true;
  }
  if (t < e.header_arrival + routing_delay) return false;
  const NodeId node = e.node;

  // First sight this tenancy (or since a fault): settle the destination
  // check and route. A known-blocked header already did both; its
  // retries touch neither the Message record nor the routing function.
  if (!e.blocked) {
    Message& m = pool_[v.msg];
    if (node == m.dst) {
      m.at_destination = true;
      const int port = net_.find_free_eject_port(node);
      if (port < 0) return false;  // wait for an ejection channel
      net_.bind_eject(ref, node, static_cast<unsigned>(port), v.msg);
      eject_nodes_.insert(node);
      net_.mark_progress(ref, t);
      v.pending_route = false;
      pending_route_[i] = pending_route_.back();
      pending_route_.pop_back();
      return true;
    }
    e.code = route_code(node, m.dst);
  }
  // The entry holds only the route code: expand it into route_buf_ the
  // first time this visit reads candidates.
  bool expanded = false;
  const auto route = [&]() -> const routing::RouteResult& {
    if (!expanded) {
      expand_route(e.code, route_buf_);
      expanded = true;
    }
    return route_buf_;
  };
  if (!v.probed) {
    v.probed = true;
    const auto cond = core::evaluate_alo(status_->free_row(node),
                                         net_.params().num_vcs, e.code.useful);
    ++scan_.probes;
    scan_.probe_rule_a += cond.all_useful_partially_free;
    scan_.probe_rule_b += cond.any_useful_completely_free;
    scan_.probe_either +=
        cond.all_useful_partially_free || cond.any_useful_completely_free;
    if (tracer_) {
      const std::uint8_t rules = static_cast<std::uint8_t>(
          (cond.all_useful_partially_free ? 1u : 0u) |
          (cond.any_useful_completely_free ? 2u : 0u));
      tracer_->record(t, obs::EventKind::AloProbe, node, rules);
    }
  }
  std::optional<routing::Pick> pick;
  // VCT's whole-packet admission gates the claim itself; a failed
  // admission leaves the header blocked exactly like a failed
  // selection. The verdict is a constant of the tenancy, so the entry
  // records it and stays blocked on it.
  if (!still_blocked) {
    e.refused = vct_ && v.msg_length > net_.params().buf_flits;
    if (!e.refused) {
      pick = selector_.select(route(), net_.free_mask_row(node),
                              alloc_rr_[node]);
    }
  }
  if (!pick) {
    e.blocked = true;
    // Blocked. FC3D-style deadlock presumption: the header has waited
    // at least `threshold` cycles, no flit of the message has moved,
    // and every virtual channel the routing function offers has shown
    // no flow-control activity for `threshold` cycles either — i.e.
    // the messages holding them are frozen too. Headers still inside
    // an injection channel hold no network resources and are exempt.
    // Every failed guard yields a monotone lower bound on the first
    // cycle detection could succeed (kForever for exempt headers);
    // re-evaluation — and, while still blocked, the whole visit — is
    // skipped until that bound.
    if (!detect_on || net_.is_injection(ref.link)) {
      e.no_detect_before = kForever;
    } else if (t - e.header_arrival < threshold) {
      e.no_detect_before = e.header_arrival + threshold;
    } else if (t >= e.no_detect_before) {
      const Cycle last_progress = net_.worm_progress(ref);
      Cycle earliest = 0;
      if (t - last_progress < threshold) {
        e.no_detect_before = last_progress + threshold;
      } else if (requested_channels_frozen(node, t, route(), &earliest)) {
        absorb_deadlocked(v.msg, t);
        pending_route_[i] = pending_route_.back();
        pending_route_.pop_back();
        return true;
      } else {
        e.no_detect_before = earliest;
      }
    }
    return false;  // retry next cycle
  }
  ++alloc_rr_[node];
  const VcRef out{net_.net_link(node, pick->channel), pick->vc};
  net_.allocate_out_vc(ref, out, v.msg, t);
  if (tracer_) {
    tracer_->record(t, obs::EventKind::VcAlloc, out.link, out.vc, 0, v.msg);
  }
  Message& m = pool_[v.msg];
  m.head = out;
  m.entered_network = true;
  v.pending_route = false;
  pending_route_[i] = pending_route_.back();
  pending_route_.pop_back();
  return true;
}

void Simulator::phase_route(Cycle t) {
  const Cycle routing_delay = cfg_.routing_delay;
  const bool detect_on = cfg_.detection.enabled;
  const Cycle threshold = cfg_.detection.threshold;
  for (std::size_t i = 0; i < pending_route_.size();) {
    // Entries index VC records scattered over an array far larger than
    // the private caches: start loading two entries ahead, for entries
    // that will take the full path (a parked one reads only its row).
    if (i + 2 < pending_route_.size()) {
      const PendingRoute& ahead = pending_route_[i + 2];
      if (!ahead.blocked || t >= ahead.no_detect_before) {
        __builtin_prefetch(&net_.vc(ahead.ref));
      }
    }
    if (!route_entry(i, t, routing_delay, detect_on, threshold)) ++i;
  }
}

// --- Transmission -----------------------------------------------------

void Simulator::phase_transmit(Cycle t) {
  scan_.scan_visited += net_.tenant_links().size();
  const auto after_send = [this, t](VcRef to, VcRef up, bool freed) {
    if (spatial_) spatial_->on_link_flit(to.link);
    if (credit_) {
      credit_->on_flit_sent(net_.vc_flat_index(to));
      if (!net_.is_injection(up.link)) {
        credit_->on_flit_drained(net_.vc_flat_index(up), t);
      }
    }
    if (freed && tracer_) {
      tracer_->record(t, obs::EventKind::VcRelease, up.link, up.vc, 0,
                      net_.vc(to).msg);
    }
  };
  const bool hooked = spatial_ || credit_ || tracer_;
  net_.transmit(t, credit_.get(), hooked ? &after_send : nullptr);
}

// --- Injection --------------------------------------------------------

void Simulator::start_injection(NodeId node, unsigned inj_channel, MsgId id,
                                Cycle t) {
  const VcRef ref{net_.inj_link(node, inj_channel), 0};
  VcState& v = net_.vc(ref);
  assert(v.free());
  v.clear();
  v.msg = id;
  static_assert(traffic::kMaxMessageFlits <= 0xFFFF, "VcState counters");
  v.msg_length = static_cast<std::uint16_t>(pool_[id].length);
  v.in_count = 1;  // the header flit is written immediately
  v.occupancy = 1;
  net_.mark_progress(ref, t);
  net_.set_active(ref, true);
  if (tracer_) {
    tracer_->record(t, obs::EventKind::VcAlloc, ref.link, ref.vc, 0, id);
  }

  Message& m = pool_[id];
  m.head = ref;
  m.in_network = true;
  m.at_destination = false;
  m.entered_network = false;
  m.inject_time = t;
  enroll_for_routing(ref, node, t);
}

void Simulator::inject_node(NodeId node, Cycle t) {
  const unsigned inj = net_.params().inj_channels;
  const unsigned cap = net_.params().buf_flits;

  // 1. Stream body flits of messages already owning an injection
  //    channel (one flit per channel per cycle, space permitting).
  VcState* const inj_row = net_.inj_vc_row(node);
  for (unsigned i = 0; i < inj; ++i) {
    VcState& v = inj_row[i];
    if (v.free()) continue;
    if (v.in_count < v.msg_length && v.occupancy < cap) {
      ++v.in_count;
      ++v.occupancy;
      net_.mark_progress({net_.inj_link(node, i), 0}, t);
    }
  }

  // 2. Start new tenancies on free injection channels: absorbed
  //    (deadlock-recovered) messages first — they were already in the
  //    network and bypass the injection limiter — then the source
  //    queue in FIFO order (the paper: queued messages have priority
  //    over newer ones).
  while (true) {
    const int ch = net_.find_free_inj_channel(node);
    if (ch < 0) break;

    if (recovery_.has_ready(node, t)) {
      const MsgId id = recovery_.pop(node);
      if (tracer_) {
        tracer_->record(t, obs::EventKind::RecoveryReinject, node, 0, 0, id);
      }
      start_injection(node, static_cast<unsigned>(ch), id, t);
      continue;
    }

    if (queues_.empty(node)) break;
    const PendingMessage& pm = queues_.front(node);

    core::InjectionRequest req;
    req.node = node;
    req.dst = pm.dst;
    req.length_flits = pm.length;
    req.route = &route_buf_;
    req.cycle = t;
    req.head_wait = t - head_since_[node];
    req.queue_len = queues_.size(node);
    head_route(node, pm.dst);
    const bool allowed = limiter_->allow(req, *status_);
    if (!allowed) {
      if (tracer_) {
        tracer_->record(t, obs::EventKind::GateBlock, node,
                        static_cast<std::uint8_t>(cfg_.limiter.kind),
                        static_cast<std::uint16_t>(pm.length),
                        static_cast<std::uint32_t>(std::min<Cycle>(
                            req.head_wait,
                            std::numeric_limits<std::uint32_t>::max())));
      }
      break;  // FIFO: head blocks the rest
    }
    if (tracer_) {
      tracer_->record(t, obs::EventKind::GateAllow, node,
                      static_cast<std::uint8_t>(cfg_.limiter.kind),
                      static_cast<std::uint16_t>(pm.length),
                      static_cast<std::uint32_t>(std::min<Cycle>(
                          req.head_wait,
                          std::numeric_limits<std::uint32_t>::max())));
    }

    const MsgId id = pool_.allocate();
    Message& m = pool_[id];
    m.src = node;
    m.dst = pm.dst;
    m.length = pm.length;
    m.gen_time = pm.gen_time;
    m.measured = pm.measured;
    queues_.pop_front(node);
    head_since_[node] = t;
    if (tracer_) {
      tracer_->record(t, obs::EventKind::QueueDequeue, node, 0,
                      static_cast<std::uint16_t>(m.length),
                      static_cast<std::uint32_t>(queues_.size(node)));
    }
    if (spatial_) spatial_->on_injected(node);

    activate(id);
    start_injection(node, static_cast<unsigned>(ch), id, t);
    ++scan_.injected;
    collector_.on_injected(node, t);
    limiter_->on_injected(node, t);
  }
}

void Simulator::phase_inject(Cycle t) {
  const unsigned inj = net_.params().inj_channels;
  scan_.scan_visited += inject_nodes_.size();
  const NodeId nodes = topo_.num_nodes();
  inject_nodes_.for_each_with_next([&](std::size_t n, std::size_t next) {
    if (next < nodes) {  // cache hint: start loading the next node's row
      const VcState* row = net_.inj_vc_row(static_cast<NodeId>(next));
      for (unsigned i = 0; i < inj; ++i) __builtin_prefetch(row + i);
      queues_.prefetch_front(next);
    }
    const auto node = static_cast<NodeId>(n);
    inject_node(node, t);
    // Retire once fully idle: no injection tenancy to stream, nothing
    // queued, nothing awaiting recovery re-injection. Any future event
    // (queue push, recovery enqueue) re-inserts the node.
    if (queues_.empty(node) && recovery_.pending(node) == 0) {
      const VcState* const inj_row = net_.inj_vc_row(node);
      bool any_occupied = false;
      for (unsigned i = 0; i < inj; ++i) {
        any_occupied |= !inj_row[i].free();
      }
      if (!any_occupied) inject_nodes_.erase(node);
    }
  });
}

// --- Deadlock handling ------------------------------------------------

bool Simulator::requested_channels_frozen(
    NodeId node, Cycle t, const routing::RouteResult& route,
    Cycle* earliest) const {
  const Cycle threshold = cfg_.detection.threshold;
  for (const auto& cand : route.candidates) {
    const LinkId out_link = net_.net_link(node, cand.channel);
    std::uint32_t vcs = cand.vc_mask;
    while (vcs) {
      const auto v = static_cast<std::uint8_t>(std::countr_zero(vcs));
      vcs &= vcs - 1;
      const VcState& w = net_.vc({out_link, v});
      // A free VC here would have made allocation succeed; a busy one
      // with recent flit movement means the holder is alive.
      if (t - w.last_activity < threshold) {
        *earliest = w.last_activity + threshold;
        return false;
      }
    }
  }
  return true;
}

void Simulator::teardown_worm(MsgId id, Cycle t) {
  Message& m = pool_[id];
  // Deadlocked worms are never eject-bound (at-destination headers are
  // exempt from detection), but fault surgery can hit one mid-delivery:
  // release the ejection port too.
  VcState& head_vc = net_.vc(m.head);
  if (head_vc.out_kind == VcState::OutKind::Eject) {
    EjectPort& port =
        net_.eject_port(net_.link(m.head.link).dst, head_vc.eject_port);
    assert(port.msg == id);
    port.msg = kNoMsg;
    port.src = VcRef{};
  }
  VcRef cur = m.head;
  while (cur.valid()) {
    const VcRef up = net_.vc(cur).upstream;
    net_.absorb_drop(cur);
    net_.vc(cur).pending_route = false;  // lazily dropped from the list
    net_.force_free(cur);
    // The slot's buffered and in-flight flits just vanished: restore
    // its full credit stock and invalidate returns still on the wire.
    if (credit_) credit_->on_slot_reset(net_.vc_flat_index(cur));
    if (tracer_) {
      tracer_->record(t, obs::EventKind::VcRelease, cur.link, cur.vc, 0, id);
    }
    cur = up;
  }
  m.head = VcRef{};
  m.in_network = false;
  m.at_destination = false;
  m.entered_network = false;
}

void Simulator::absorb_deadlocked(MsgId id, Cycle t) {
  Message& m = pool_[id];
  ++m.deadlock_detections;
  ++scan_.deadlocks;

  const NodeId absorb_node = net_.link(m.head.link).dst;
  if (tracer_) {
    tracer_->record(t, obs::EventKind::DeadlockDetect, absorb_node, 0,
                    static_cast<std::uint16_t>(m.length), id);
  }
  teardown_worm(id, t);
  recovery_.enqueue(absorb_node, id,
                    t + cfg_.recovery.base_delay + m.length);
  inject_nodes_.insert(absorb_node);
}

// --- Fault injection & dynamic reconfiguration ------------------------

void Simulator::count_lost(bool measured) {
  ++scan_.lost;
  scan_.lost_measured += measured;
}

void Simulator::drop_active_message(MsgId id) {
  count_lost(pool_[id].measured);
  deactivate(id);
  pool_.release(id);
}

bool Simulator::deliverable(NodeId from, NodeId dst) const {
  const topo::FaultMask& mask = faults_->mask();
  if (mask.node_dead(from) || mask.node_dead(dst)) return false;
  return from == dst || lut_->reachable(from, dst);
}

void Simulator::fault_absorb(MsgId id, Cycle t) {
  // Same software-recovery path as a deadlocked worm (the DBR reuse):
  // tear the worm down and re-enqueue it at the node its header had
  // reached, minus the deadlock accounting — this message is a fault
  // casualty, not a presumed deadlock. If the absorb node itself died
  // (its header was entering it), purge_undeliverable drops the entry.
  const NodeId absorb_node = net_.link(pool_[id].head.link).dst;
  teardown_worm(id, t);
  recovery_.enqueue(absorb_node, id,
                    t + cfg_.recovery.base_delay + pool_[id].length);
  inject_nodes_.insert(absorb_node);
}

void Simulator::kill_node_state(NodeId node, Cycle t) {
  // Source-queued messages die with their node.
  queues_.erase_if(node, [this](const PendingMessage& pm) {
    count_lost(pm.measured);
    return true;
  });
  // Worms still inside the node's injection channels are torn down like
  // any displaced worm; their absorb node is the dead node itself, so
  // purge_undeliverable drops them right after.
  VcState* const inj_row = net_.inj_vc_row(node);
  const unsigned inj = net_.params().inj_channels;
  for (unsigned i = 0; i < inj; ++i) {
    if (!inj_row[i].free()) fault_absorb(inj_row[i].msg, t);
  }
}

void Simulator::sync_dead_links(Cycle t) {
  const topo::FaultMask& mask = faults_->mask();
  for (LinkId l = 0; l < net_.num_net_links(); ++l) {
    const Link& lk = net_.link(l);
    const bool dead = mask.link_dead(lk.src, lk.src_channel);
    if (dead == net_.link_dead(l)) continue;
    if (dead) {
      // Every worm crossing the dying link is displaced into recovery.
      // teardown clears the link's tenant bits (and drops their flits
      // from the wire) as it walks, so this loop terminates.
      while (lk.active_vc_mask != 0) {
        const auto vcn = static_cast<std::uint8_t>(
            std::countr_zero(static_cast<unsigned>(lk.active_vc_mask)));
        fault_absorb(net_.vc(VcRef{l, vcn}).msg, t);
      }
    }
    net_.set_link_dead(l, dead);
  }
}

void Simulator::purge_undeliverable(Cycle t) {
  // In-network worms whose destination died or became unreachable from
  // the node their header has reached. Swap-remove iteration: stay on
  // index i after a drop.
  for (std::size_t i = 0; i < active_.size();) {
    const MsgId id = active_[i];
    const Message& m = pool_[id];
    if (m.in_network) {
      const NodeId here = net_.link(m.head.link).dst;
      if (!deliverable(here, m.dst)) {
        teardown_worm(id, t);
        drop_active_message(id);
        continue;
      }
    }
    ++i;
  }
  // Recovery-queued messages whose re-injection node died or whose
  // destination is no longer reachable from it.
  purge_buf_.clear();
  recovery_.purge(
      [this](deadlock::NodeId node, deadlock::MsgId id) {
        return !deliverable(node, pool_[id].dst);
      },
      purge_buf_);
  for (const auto& [node, id] : purge_buf_) drop_active_message(id);
  // Source-queued messages to dead or unreachable destinations (a dead
  // node's own queue was already cleared by kill_node_state).
  for (NodeId node = 0; node < topo_.num_nodes(); ++node) {
    if (queues_.empty(node)) continue;
    const bool head_changed =
        queues_.erase_if(node, [&](const PendingMessage& pm) {
          if (deliverable(node, pm.dst)) return false;
          count_lost(pm.measured);
          return true;
        });
    if (head_changed && !queues_.empty(node)) head_since_[node] = t;
  }
}

void Simulator::apply_faults(Cycle t) {
  fault_buf_.clear();
  faults_->take_due(t, fault_buf_);
  assert(!fault_buf_.empty());
  for (const fault::FaultEvent& e : fault_buf_) {
    ++fault_events_;
    if (tracer_) {
      obs::EventKind kind = obs::EventKind::FaultLinkKill;
      switch (e.kind) {
        case fault::FaultKind::LinkKill:
          kind = obs::EventKind::FaultLinkKill;
          break;
        case fault::FaultKind::LinkRestore:
          kind = obs::EventKind::FaultLinkRestore;
          break;
        case fault::FaultKind::NodeKill:
          kind = obs::EventKind::FaultNodeKill;
          break;
        case fault::FaultKind::NodeRestore:
          kind = obs::EventKind::FaultNodeRestore;
          break;
      }
      tracer_->record(t, kind, e.node, e.channel);
    }
    if (e.kind == fault::FaultKind::NodeKill) kill_node_state(e.node, t);
  }
  sync_dead_links(t);
  // O(table) reconfiguration: retabulate the LUT on the alive graph
  // and forget every memoized route. Unblocking every pending entry
  // serves two ends: each header re-routes against the new table (with
  // a fresh detection bound, as its witness VCs may change), and each
  // entry whose worm this fault handling tears down takes the full
  // path this cycle, which finds it stale and drops it before any new
  // tenancy of its VC can enroll.
  lut_->rebuild(&faults_->mask());
  ++lut_rebuilds_;
  for (PendingRoute& e : pending_route_) {
    e.blocked = false;
    e.no_detect_before = 0;
  }
  std::fill(head_route_.begin(), head_route_.end(), HeadRoute{});
  if (tracer_) {
    tracer_->record(
        t, obs::EventKind::FaultLutRebuild, 0, 0,
        static_cast<std::uint16_t>(faults_->mask().dead_nodes()),
        static_cast<std::uint32_t>(faults_->mask().killed_links()));
  }
  purge_undeliverable(t);
}

// --- Delivery / bookkeeping -------------------------------------------

void Simulator::deliver(MsgId id, Cycle t) {
  const Message& m = pool_[id];
  ++scan_.delivered;
  scan_.delivered_measured += m.measured;
  collector_.on_delivered(m.gen_time, t, m.measured);
  if (online_) online_->on_delivered(t - m.gen_time, m.measured);
  deactivate(id);
  pool_.release(id);
}

void Simulator::activate(MsgId id) {
  pool_[id].active_pos = static_cast<std::uint32_t>(active_.size());
  active_.push_back(id);
}

void Simulator::deactivate(MsgId id) {
  const std::uint32_t pos = pool_[id].active_pos;
  const MsgId last = active_.back();
  active_[pos] = last;
  pool_[last].active_pos = pos;
  active_.pop_back();
}

// --- Coherence / conservation checks ----------------------------------

std::optional<Cycle> Simulator::header_arrival(VcRef ref) const {
  if (!net_.vc(ref).pending_route) return std::nullopt;
  for (const PendingRoute& e : pending_route_) {
    if (e.ref == ref) return e.header_arrival;
  }
  return std::nullopt;
}

bool Simulator::check_active_sets(std::string* why) const {
  const auto fail = [why](const std::string& msg) {
    if (why) *why = msg;
    return false;
  };
  const Network& net = net_;

  // Link sets are exact mirrors of link state.
  for (LinkId l = 0; l < net.num_net_links(); ++l) {
    const bool tenant = net.link(l).active_vc_mask != 0;
    if (tenant != net.tenant_links().contains(l)) {
      return fail("tenant_links incoherent at link " + std::to_string(l));
    }
  }
  // The wire: buckets strictly ascending by link, and each VC slot's
  // entries exactly its occupancy not yet buffered.
  std::vector<std::uint32_t> on_wire(net.num_vc_slots(), 0);
  std::uint64_t wire_total = 0;
  for (unsigned b = 0; b < net.wire_buckets(); ++b) {
    const std::span<const VcRef> bucket = net.wire_bucket(b);
    for (std::size_t i = 0; i < bucket.size(); ++i) {
      if (i > 0 && bucket[i - 1].link >= bucket[i].link) {
        return fail("wire bucket " + std::to_string(b) +
                    " not strictly ascending by link");
      }
      ++on_wire[net.vc_flat_index(bucket[i])];
    }
    wire_total += bucket.size();
  }
  if (wire_total != net.wire_flits()) {
    return fail("wire counter drifted from bucket entries");
  }
  for (LinkId l = 0; l < net.num_links(); ++l) {
    for (unsigned v = 0; v < net.vcs_on(l); ++v) {
      const VcRef ref{l, v};
      const VcState& s = net.vc(ref);
      if (on_wire[net.vc_flat_index(ref)] != s.occupancy - s.buffered()) {
        return fail("wire entries differ from unbuffered occupancy at vc " +
                    std::to_string(l) + "/" + std::to_string(v));
      }
    }
  }
  // Between steps each route-pending VC has exactly one entry, made for
  // its current tenancy (what makes PendingRoute::header_arrival exact).
  std::size_t pending_vcs = 0, live = 0;
  for (LinkId l = 0; l < net.num_links(); ++l) {
    for (unsigned v = 0; v < net.vcs_on(l); ++v) {
      pending_vcs += net.vc({l, v}).pending_route;
    }
  }
  for (const PendingRoute& e : pending_route_) {
    live += net.vc(e.ref).pending_route && net.vc(e.ref).msg == e.msg;
  }
  if (live != pending_route_.size() || pending_vcs != live) {
    return fail("route-pending list holds stale or duplicate entries");
  }
  // What a parked visit reads instead of the VcState, Link and Message
  // records must agree with them: the router the header waits at and,
  // for a blocked header, its tenancy's route from there.
  for (const PendingRoute& e : pending_route_) {
    if (e.node != net.link(e.ref.link).dst) {
      return fail("route-pending entry names the wrong router");
    }
    if (e.blocked && e.code != lookup_code(e.node, pool_[e.msg].dst)) {
      return fail("blocked entry holds a stale route code");
    }
  }
  if (net.tenant_links().size() != net.tenant_links().recount()) {
    return fail("link set count drifted from bitmap population");
  }

  // Node sets cover every active node (they prune lazily, so they may
  // temporarily hold extra members).
  const unsigned ports = net.params().eje_channels;
  const unsigned inj = net.params().inj_channels;
  std::size_t queue_sum = 0;
  for (NodeId node = 0; node < topo_.num_nodes(); ++node) {
    queue_sum += queues_.size(node);
    bool busy = false;
    for (unsigned p = 0; p < ports; ++p) busy |= net.eject_port(node, p).busy();
    if (busy && !eject_nodes_.contains(node)) {
      return fail("busy ejection port not in eject set, node " +
                  std::to_string(node));
    }
    bool inject_active = !queues_.empty(node) || recovery_.pending(node) > 0;
    for (unsigned i = 0; i < inj; ++i) {
      inject_active |= !net.vc({net.inj_link(node, i), 0}).free();
    }
    if (inject_active && !inject_nodes_.contains(node)) {
      return fail("active node not in inject set, node " +
                  std::to_string(node));
    }
  }
  if (queue_sum != queues_.total()) {
    return fail("incremental queue total drifted from recount");
  }
  if (eject_nodes_.size() != eject_nodes_.recount() ||
      inject_nodes_.size() != inject_nodes_.recount()) {
    return fail("node set count drifted from bitmap population");
  }

  // Generation subscriptions: each node sits in exactly the place
  // gen_where_ says, and nowhere twice.
  if (workload_) {
    std::size_t dense_n = 0, timed_n = 0;
    for (NodeId node = 0; node < topo_.num_nodes(); ++node) {
      const bool in_dense = gen_dense_.contains(node);
      if (in_dense != (gen_where_[node] == GenSub::EveryCycle)) {
        return fail("gen_dense_ disagrees with gen_where_ at node " +
                    std::to_string(node));
      }
      dense_n += in_dense;
      timed_n += gen_where_[node] == GenSub::Timed;
    }
    if (timed_n != gen_heap_.size()) {
      return fail("gen heap holds duplicate or orphan subscriptions");
    }
    if (dense_n + timed_n > topo_.num_nodes()) {
      return fail("duplicate generation subscription");
    }
  }
  return true;
}

bool Simulator::check_conservation(std::string* why) const {
  const auto fail = [why](const std::string& msg) {
    if (why) *why = msg;
    return false;
  };
  const std::uint64_t accounted =
      scan_.delivered + active_.size() + queues_.total() + scan_.lost;
  if (scan_.generated != accounted) {
    return fail("message conservation violated: generated=" +
                std::to_string(scan_.generated) + " delivered=" +
                std::to_string(scan_.delivered) + " in-flight=" +
                std::to_string(active_.size()) + " queued=" +
                std::to_string(queues_.total()) + " lost=" +
                std::to_string(scan_.lost));
  }
  if (active_.empty() && net_.flits_in_network() != 0) {
    return fail("no active messages but " +
                std::to_string(net_.flits_in_network()) +
                " flits still in the network");
  }
  return true;
}

bool Simulator::check_fault_invariants(std::string* why) const {
  const auto fail = [why](const std::string& msg) {
    if (why) *why = msg;
    return false;
  };
  if (!faults_) return true;
  const topo::FaultMask& mask = faults_->mask();

  for (LinkId l = 0; l < net_.num_net_links(); ++l) {
    const Link& lk = net_.link(l);
    const bool dead = mask.link_dead(lk.src, lk.src_channel);
    if (dead != net_.link_dead(l)) {
      return fail("dead-link field out of sync with fault mask at link " +
                  std::to_string(l));
    }
    if (!dead) continue;
    if (lk.active_vc_mask != 0) {
      return fail("dead link " + std::to_string(l) + " has tenant VCs");
    }
    if (net_.wire_carries(l)) {
      return fail("dead link " + std::to_string(l) +
                  " still carries in-flight flits");
    }
    if (net_.free_vc_mask(lk.src, lk.src_channel) != 0) {
      return fail("dead link " + std::to_string(l) + " advertises free VCs");
    }
  }

  const unsigned ports = net_.params().eje_channels;
  const unsigned inj = net_.params().inj_channels;
  for (NodeId node = 0; node < topo_.num_nodes(); ++node) {
    if (!mask.node_dead(node)) continue;
    for (unsigned p = 0; p < ports; ++p) {
      if (net_.eject_port(node, p).busy()) {
        return fail("dead node " + std::to_string(node) +
                    " has a busy ejection port");
      }
    }
    const VcState* const inj_row = net_.inj_vc_row(node);
    for (unsigned i = 0; i < inj; ++i) {
      if (!inj_row[i].free()) {
        return fail("dead node " + std::to_string(node) +
                    " has an occupied injection channel");
      }
    }
    if (!queues_.empty(node)) {
      return fail("dead node " + std::to_string(node) +
                  " has a non-empty source queue");
    }
    if (recovery_.pending(node) != 0) {
      return fail("dead node " + std::to_string(node) +
                  " has pending recovery re-injections");
    }
  }

  // No live message is headed for a dead destination: it could never
  // drain and would wedge a resource forever.
  for (const MsgId id : active_) {
    const Message& m = pool_[id];
    if (mask.node_dead(m.dst)) {
      return fail("message " + std::to_string(id) +
                  " still live but targets dead node " +
                  std::to_string(m.dst));
    }
  }
  return true;
}

// --- Run protocol -----------------------------------------------------

metrics::SimResult Simulator::run(const RunProtocol& protocol) {
  const auto wall_start = std::chrono::steady_clock::now();
  const Cycle measure_start = cycle_ + protocol.warmup;
  const Cycle measure_end = measure_start + protocol.measure;
  collector_ =
      metrics::Collector(topo_.num_nodes(), measure_start, measure_end);
  // Events are counted in the cycle they happen and run() steps whole
  // cycles, so the ledger deltas between these snapshots count exactly
  // the events of [measure_start, measure_end).
  const CoreScanStats at_start = scan_;
  const std::size_t queue_at_start = source_queue_total();
  while (cycle_ < measure_start) step();
  const CoreScanStats at_measure_start = scan_;
  while (cycle_ < measure_end) step();
  const CoreScanStats window = scan_.since(at_measure_start);
  const std::size_t queue_at_measure_end = source_queue_total();

  // Lost messages can never drain; the identity accounts for them so a
  // run with mid-measurement faults still terminates promptly.
  const auto drained = [&] {
    const CoreScanStats run = scan_.since(at_start);
    return run.delivered_measured + run.lost_measured >= window.generated;
  };
  const Cycle drain_end = measure_end + protocol.drain_max;
  while (cycle_ < drain_end && !drained()) step();

  const CoreScanStats run = scan_.since(at_start);
  metrics::SimResult r = summarize(run, window, protocol.measure);
  r.warmup_cycles = protocol.warmup;
  r.measure_cycles = protocol.measure;
  r.total_cycles = cycle_;
  r.fully_drained = drained();
  // Heuristic saturation flag: source queues grew substantially during
  // the measurement window.
  r.saturated = queue_at_measure_end >
                queue_at_start + topo_.num_nodes() / 2 + 8;
  r.limiter = std::string(core::limiter_name(cfg_.limiter.kind));
  if (workload_) {
    r.pattern = std::string(
        traffic::pattern_name(workload_->config().pattern));
    r.offered_flits_per_node_cycle =
        workload_->config().offered_flits_per_node_cycle;
    r.message_length = workload_->config().length.fixed;
  }
  r.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();
  r.cycles_per_second =
      r.wall_seconds > 0.0
          ? static_cast<double>(run.cycles) / r.wall_seconds
          : 0.0;
  r.scan_skip_ratio = run.skipped_scan_ratio(full_scan_visits());
  r.avg_active_links = run.avg_active_links();
  r.avg_active_nodes = run.avg_active_nodes();
  r.route_memo_hit_rate = run.route_memo_hit_rate();
  return r;
}

metrics::SimResult Simulator::summarize(const CoreScanStats& run,
                                        const CoreScanStats& window,
                                        Cycle window_cycles) const {
  metrics::SimResult r = collector_.finish();
  const double cycles = static_cast<double>(window_cycles);
  const NodeId nodes = topo_.num_nodes();
  if (cycles > 0 && nodes > 0) {
    r.accepted_flits_per_node_cycle =
        static_cast<double>(window.ejected_flits) /
        (cycles * static_cast<double>(nodes));
  }
  r.deadlock_detections = window.deadlocks;
  r.messages_injected_window = window.injected;
  r.deadlock_pct = window.injected
                       ? 100.0 * static_cast<double>(window.deadlocks) /
                             static_cast<double>(window.injected)
                       : 0.0;
  r.messages_generated = run.generated;
  r.messages_injected = run.injected;
  r.messages_delivered = run.delivered;
  r.measured_delivered = run.delivered_measured;
  r.measured_generated = window.generated;
  r.messages_lost = run.lost;
  r.probe = {window.probes, window.probe_rule_a, window.probe_rule_b,
             window.probe_either};
  r.fault_events = fault_events_;
  r.lut_rebuilds = lut_rebuilds_;
  return r;
}

}  // namespace wormsim::sim
