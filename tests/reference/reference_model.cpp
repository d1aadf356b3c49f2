#include "reference_model.hpp"

#include <algorithm>
#include <cassert>

#include "core/alo.hpp"

namespace wormsim::reference {

ReferenceModel::ReferenceModel(const topo::KAryNCube& topo,
                               const sim::SimulatorConfig& cfg,
                               std::unique_ptr<traffic::Workload> workload)
    : topo_(topo),
      cfg_(cfg),
      chans_(topo_.num_channels()),
      vcs_per_link_(cfg.net.num_vcs),
      net_links_(topo_.num_nodes() * chans_),
      net_vcs_(net_links_ * vcs_per_link_),
      credit_(cfg.flow.scheme == sim::FlowControl::Credit),
      vct_(cfg.flow.scheme == sim::FlowControl::Vct),
      routing_(routing::make_routing(cfg.algorithm, topo_, cfg.net.num_vcs)),
      selector_(cfg.selection),
      limiter_(core::make_limiter(cfg.limiter, topo_.num_nodes())),
      workload_(std::move(workload)),
      recovery_(topo_.num_nodes()),
      vcs_(net_vcs_ + topo_.num_nodes() * cfg.net.inj_channels),
      wire_(net_links_),
      rr_next_(net_links_, 0),
      link_dead_(net_links_, false),
      eject_port_(topo_.num_nodes() * cfg.net.eje_channels, kNone),
      queues_(topo_.num_nodes()),
      head_since_(topo_.num_nodes(), 0),
      alloc_rr_(topo_.num_nodes(), 0) {
  if (!cfg_.faults.empty()) {
    lut_ = std::make_unique<routing::RoutingLut>(*routing_, topo_);
    faults_ = std::make_unique<fault::FaultManager>(topo_, cfg_.faults);
  }
}

std::uint32_t ReferenceModel::vc_index(LinkId link, unsigned vc) const {
  if (link < net_links_) return link * vcs_per_link_ + vc;
  return net_vcs_ + (link - net_links_);
}

NodeId ReferenceModel::vc_node(std::uint32_t vc) const {
  if (is_injection(vc)) return (vc - net_vcs_) / cfg_.net.inj_channels;
  const LinkId link = vc / vcs_per_link_;
  return topo_.neighbor(link / chans_,
                        static_cast<topo::ChannelId>(link % chans_));
}

std::optional<ReferenceModel::Tenant> ReferenceModel::tenant(
    LinkId link, unsigned vc) const {
  const std::uint32_t id = vcs_[vc_index(link, vc)].tenant;
  if (id == kNone) return std::nullopt;
  const Msg& m = msgs_[id];
  return Tenant{m.src, m.dst, m.gen_time, m.length};
}

unsigned ReferenceModel::occupancy(LinkId link, unsigned vc) const {
  const Vc& x = vcs_[vc_index(link, vc)];
  return static_cast<unsigned>(x.buffer.size()) + x.in_flight;
}

unsigned ReferenceModel::buffered(LinkId link, unsigned vc) const {
  return static_cast<unsigned>(vcs_[vc_index(link, vc)].buffer.size());
}

// --- The cycle --------------------------------------------------------

void ReferenceModel::step() {
  const Cycle t = cycle_;
  if (credit_) return_credits(t);
  if (faults_ && faults_->due(t)) apply_faults(t);
  generate(t);
  arrive(t);
  eject(t);
  route(t);
  transmit(t);
  inject(t);
  ++cycle_;
}

void ReferenceModel::return_credits(Cycle t) {
  std::erase_if(returns_, [&](const CreditReturn& r) {
    if (r.due > t) return false;
    Vc& x = vcs_[r.vc];
    if (x.credit_epoch == r.epoch) --x.credits_out;
    return true;
  });
}

void ReferenceModel::generate(Cycle t) {
  if (!workload_) return;
  util::SmallVector<traffic::GeneratedMessage, 8> out;
  for (NodeId node = 0; node < topo_.num_nodes(); ++node) {
    if (faults_ && faults_->mask().node_dead(node)) continue;
    out.clear();
    workload_->poll(node, t, out);
    for (const auto& g : out) enqueue(node, g.dst, g.length_flits, t);
  }
}

void ReferenceModel::enqueue(NodeId node, NodeId dst, std::uint32_t length,
                             Cycle t) {
  ++ledger_.generated;
  ledger_.generated_flits += length;
  if (faults_ && !deliverable(node, dst)) {
    lost(1);
    return;
  }
  queues_[node].push_back({dst, length, t});
  if (queues_[node].size() == 1) head_since_[node] = t;
}

void ReferenceModel::arrive(Cycle t) {
  for (LinkId l = 0; l < net_links_; ++l) {
    while (!wire_[l].empty() && wire_[l].front().due <= t) {
      const WireFlit w = wire_[l].front();
      wire_[l].pop_front();
      assert(w.due == t);
      Vc& x = vcs_[w.vc];
      --x.in_flight;
      x.buffer.push_back(w.flit);
      x.last_activity = t;
      if (w.flit.index == 0) enroll(w.vc, t);
    }
  }
}

void ReferenceModel::enroll(std::uint32_t vc, Cycle t) {
  vcs_[vc].awaiting_route = true;
  pending_.push_back({vc, t});
}

void ReferenceModel::eject(Cycle t) {
  const unsigned ports = cfg_.net.eje_channels;
  for (NodeId node = 0; node < topo_.num_nodes(); ++node) {
    for (unsigned p = 0; p < ports; ++p) {
      std::uint32_t& port = eject_port_[node * ports + p];
      if (port == kNone) continue;
      Vc& x = vcs_[port];
      if (x.buffer.empty()) continue;
      const Flit f = x.buffer.front();
      x.buffer.pop_front();
      x.last_activity = t;
      msgs_[f.msg].last_progress = t;
      ++ledger_.ejected_flits;
      drain_credit(port, t);
      if (f.index + 1 == msgs_[f.msg].length) {
        free_vc(port);
        port = kNone;
        msgs_[f.msg].head = kNone;
        ++ledger_.delivered;
        ++ledger_.delivered_measured;
      }
    }
  }
}

void ReferenceModel::route(Cycle t) {
  // The list order is part of the model: entries are visited from the
  // front, and a resolved entry is replaced by the last one, which is
  // visited next (DESIGN.md §5, "Route phase order").
  for (std::size_t i = 0; i < pending_.size();) {
    if (route_entry(pending_[i], t)) {
      pending_[i] = pending_.back();
      pending_.pop_back();
    } else {
      ++i;
    }
  }
}

bool ReferenceModel::route_entry(const RouteEntry& e, Cycle t) {
  Vc& x = vcs_[e.vc];
  if (!x.awaiting_route) return true;  // torn down by fault handling
  if (t < e.arrival + cfg_.routing_delay) return false;
  const NodeId node = vc_node(e.vc);
  Msg& m = msgs_[x.tenant];
  if (node == m.dst) {
    const unsigned ports = cfg_.net.eje_channels;
    for (unsigned p = 0; p < ports; ++p) {
      if (eject_port_[node * ports + p] != kNone) continue;
      eject_port_[node * ports + p] = e.vc;
      x.awaiting_route = false;
      m.last_progress = t;
      return true;
    }
    return false;  // wait for an ejection port
  }
  routing::RouteResult route;
  route_of(node, m.dst, route);
  if (!x.probed) {  // the Figure-2 probe, once per tenancy
    x.probed = true;
    std::vector<std::uint8_t> row;
    fill_row(node, /*limiter=*/true, row);
    const core::AloConditions c =
        core::evaluate_alo(row.data(), vcs_per_link_, route.useful_phys_mask);
    ++ledger_.probes;
    ledger_.probe_rule_a += c.all_useful_partially_free;
    ledger_.probe_rule_b += c.any_useful_completely_free;
    ledger_.probe_either +=
        c.all_useful_partially_free || c.any_useful_completely_free;
  }
  std::optional<routing::Pick> pick;
  if (!(vct_ && m.length > cfg_.net.buf_flits)) {
    std::vector<std::uint8_t> row;
    fill_row(node, /*limiter=*/false, row);
    pick = selector_.select(route, row.data(), alloc_rr_[node]);
  }
  if (!pick) {
    // FC3D: a header in a network VC, waiting for the threshold, whose
    // message has not moved for the threshold, while every VC its route
    // offers has been inactive for the threshold too.
    const Cycle threshold = cfg_.detection.threshold;
    if (cfg_.detection.enabled && !is_injection(e.vc) &&
        t - e.arrival >= threshold && t - m.last_progress >= threshold &&
        channels_frozen(node, route, t)) {
      ++ledger_.deadlocks;
      absorb(x.tenant, node, t);
      return true;
    }
    return false;
  }
  ++alloc_rr_[node];
  const std::uint32_t out = net_vc(node, pick->channel, pick->vc);
  Vc& y = vcs_[out];
  assert(y.tenant == kNone && y.buffer.empty() && y.in_flight == 0);
  y.tenant = x.tenant;
  y.feeder = e.vc;
  y.last_activity = t;
  m.head = out;
  m.last_progress = t;
  x.awaiting_route = false;
  return true;
}

bool ReferenceModel::channels_frozen(NodeId node,
                                     const routing::RouteResult& route,
                                     Cycle t) const {
  for (const routing::Candidate& c : route.candidates) {
    for (unsigned v = 0; v < vcs_per_link_; ++v) {
      if ((c.vc_mask >> v & 1u) == 0) continue;
      const Vc& w = vcs_[net_vc(node, c.channel, v)];
      if (t - w.last_activity < cfg_.detection.threshold) return false;
    }
  }
  return true;
}

void ReferenceModel::transmit(Cycle t) {
  const unsigned cap = cfg_.net.buf_flits;
  for (LinkId l = 0; l < net_links_; ++l) {
    for (unsigned k = 0; k < vcs_per_link_; ++k) {
      const unsigned v = (rr_next_[l] + k) % vcs_per_link_;
      const std::uint32_t to = l * vcs_per_link_ + v;
      Vc& d = vcs_[to];
      if (d.tenant == kNone || d.feeder == kNone) continue;
      if (d.buffer.size() + d.in_flight >= cap) continue;
      const std::uint32_t from = d.feeder;
      Vc& u = vcs_[from];
      if (u.buffer.empty()) continue;
      if (credit_ && d.credits_out >= cap) continue;
      const Flit f = u.buffer.front();
      u.buffer.pop_front();
      u.last_activity = t;
      wire_[l].push_back({t + cfg_.net.link_delay, to, f});
      ++d.in_flight;
      msgs_[f.msg].last_progress = t;
      if (credit_) ++d.credits_out;
      drain_credit(from, t);
      if (f.index + 1 == msgs_[f.msg].length) {  // the tail left
        free_vc(from);
        d.feeder = kNone;
      }
      rr_next_[l] = (v + 1) % vcs_per_link_;
      break;  // one flit per link per cycle
    }
  }
}

void ReferenceModel::inject(Cycle t) {
  const unsigned inj = cfg_.net.inj_channels;
  const unsigned cap = cfg_.net.buf_flits;
  routing::RouteResult route;
  for (NodeId node = 0; node < topo_.num_nodes(); ++node) {
    for (unsigned i = 0; i < inj; ++i) {
      Vc& w = vcs_[inj_vc(node, i)];
      if (w.tenant == kNone) continue;
      Msg& m = msgs_[w.tenant];
      if (w.written < m.length && w.buffer.size() < cap) {
        w.buffer.push_back({w.tenant, w.written++});
        m.last_progress = t;
      }
    }
    while (true) {
      unsigned ch = 0;
      while (ch < inj && vcs_[inj_vc(node, ch)].tenant != kNone) ++ch;
      if (ch == inj) break;
      if (recovery_.has_ready(node, t)) {
        start_injection(node, ch, recovery_.pop(node), t);
        continue;
      }
      if (queues_[node].empty()) break;
      const Queued q = queues_[node].front();
      route_of(node, q.dst, route);
      core::InjectionRequest req;
      req.node = node;
      req.dst = q.dst;
      req.length_flits = q.length;
      req.route = &route;
      req.cycle = t;
      req.head_wait = t - head_since_[node];
      req.queue_len = queues_[node].size();
      if (!limiter_->allow(req, limiter_view_)) break;
      queues_[node].pop_front();
      head_since_[node] = t;
      msgs_.push_back({node, q.dst, q.length, q.gen_time, kNone, 0});
      ++ledger_.injected;
      start_injection(node, ch, static_cast<std::uint32_t>(msgs_.size() - 1),
                      t);
      limiter_->on_injected(node, t);
    }
  }
}

void ReferenceModel::start_injection(NodeId node, unsigned channel,
                                     std::uint32_t msg, Cycle t) {
  const std::uint32_t vc = inj_vc(node, channel);
  Vc& w = vcs_[vc];
  w.tenant = msg;
  w.buffer.push_back({msg, 0});
  w.written = 1;
  msgs_[msg].head = vc;
  msgs_[msg].last_progress = t;
  enroll(vc, t);
}

// --- Shared pieces ----------------------------------------------------

void ReferenceModel::route_of(NodeId node, NodeId dst,
                              routing::RouteResult& out) const {
  if (lut_) {
    lut_->route(node, dst, out);
  } else {
    routing_->route(node, dst, out);
  }
}

void ReferenceModel::fill_row(NodeId node, bool limiter,
                              std::vector<std::uint8_t>& row) const {
  row.assign(chans_, 0);
  for (unsigned c = 0; c < chans_; ++c) {
    if (link_dead_[node * chans_ + c]) continue;
    for (unsigned v = 0; v < vcs_per_link_; ++v) {
      const Vc& x = vcs_[net_vc(node, c, v)];
      if (x.tenant != kNone) continue;
      if (limiter && credit_ && x.credits_out != 0) continue;
      row[c] = static_cast<std::uint8_t>(row[c] | 1u << v);
    }
  }
}

void ReferenceModel::drain_credit(std::uint32_t vc, Cycle t) {
  if (!credit_ || is_injection(vc)) return;
  ++credit_messages_;
  Vc& x = vcs_[vc];
  if (cfg_.flow.credit_return_delay == 0) {
    --x.credits_out;
  } else {
    returns_.push_back({t + cfg_.flow.credit_return_delay, vc, x.credit_epoch});
  }
}

void ReferenceModel::free_vc(std::uint32_t vc) {
  Vc& x = vcs_[vc];
  const unsigned credits = x.credits_out;
  const std::uint32_t epoch = x.credit_epoch;
  x = Vc{};  // credits belong to the slot, not the tenancy
  x.credits_out = credits;
  x.credit_epoch = epoch;
}

void ReferenceModel::teardown(std::uint32_t msg) {
  for (std::uint32_t& port : eject_port_) {
    if (port != kNone && vcs_[port].tenant == msg) port = kNone;
  }
  for (std::uint32_t vc = 0; vc < vcs_.size(); ++vc) {
    if (vcs_[vc].tenant != msg) continue;
    free_vc(vc);
    vcs_[vc].credits_out = 0;  // buffered and in-flight flits vanished
    ++vcs_[vc].credit_epoch;
  }
  for (std::deque<WireFlit>& w : wire_) {
    std::erase_if(w, [&](const WireFlit& f) { return f.flit.msg == msg; });
  }
  msgs_[msg].head = kNone;
}

void ReferenceModel::absorb(std::uint32_t msg, NodeId node, Cycle t) {
  teardown(msg);
  recovery_.enqueue(node, msg,
                    t + cfg_.recovery.base_delay + msgs_[msg].length);
}

// --- Faults -----------------------------------------------------------

bool ReferenceModel::deliverable(NodeId from, NodeId dst) const {
  const topo::FaultMask& mask = faults_->mask();
  if (mask.node_dead(from) || mask.node_dead(dst)) return false;
  return from == dst || lut_->reachable(from, dst);
}

void ReferenceModel::apply_faults(Cycle t) {
  std::vector<fault::FaultEvent> events;
  faults_->take_due(t, events);
  // Displaced worms go to recovery at the node their header reached, in
  // this order: a killed node's injection channels by index (with its
  // source queue lost), then dying links by id, lowest VC first.
  for (const fault::FaultEvent& e : events) {
    if (e.kind != fault::FaultKind::NodeKill) continue;
    lost(queues_[e.node].size());
    queues_[e.node].clear();
    for (unsigned i = 0; i < cfg_.net.inj_channels; ++i) {
      const std::uint32_t msg = vcs_[inj_vc(e.node, i)].tenant;
      if (msg != kNone) absorb(msg, vc_node(msgs_[msg].head), t);
    }
  }
  const topo::FaultMask& mask = faults_->mask();
  for (LinkId l = 0; l < net_links_; ++l) {
    const bool dead = mask.link_dead(
        l / chans_, static_cast<topo::ChannelId>(l % chans_));
    if (dead && !link_dead_[l]) {
      for (unsigned v = 0; v < vcs_per_link_; ++v) {
        const std::uint32_t msg = vcs_[l * vcs_per_link_ + v].tenant;
        if (msg != kNone) absorb(msg, vc_node(msgs_[msg].head), t);
      }
    }
    link_dead_[l] = dead;
  }
  lut_->rebuild(&mask);
  purge_undeliverable(t);
}

void ReferenceModel::purge_undeliverable(Cycle t) {
  for (std::uint32_t id = 0; id < msgs_.size(); ++id) {
    const Msg& m = msgs_[id];
    if (m.head != kNone && !deliverable(vc_node(m.head), m.dst)) {
      teardown(id);
      lost(1);
    }
  }
  std::vector<std::pair<deadlock::NodeId, deadlock::MsgId>> removed;
  recovery_.purge(
      [&](NodeId node, std::uint32_t id) {
        return !deliverable(node, msgs_[id].dst);
      },
      removed);
  lost(removed.size());
  for (NodeId node = 0; node < topo_.num_nodes(); ++node) {
    std::deque<Queued>& q = queues_[node];
    if (q.empty()) continue;
    const bool head_goes = !deliverable(node, q.front().dst);
    lost(std::erase_if(
        q, [&](const Queued& e) { return !deliverable(node, e.dst); }));
    if (head_goes && !q.empty()) head_since_[node] = t;
  }
}

}  // namespace wormsim::reference
