#include "routing/routing_lut.hpp"

#include <limits>
#include <stdexcept>

namespace wormsim::routing {

using topo::ChannelId;
using topo::NodeId;

RoutingLut::RoutingLut(const RoutingFunction& fn, const topo::KAryNCube& topo,
                       std::size_t max_entries)
    : fn_(&fn),
      topo_(&topo),
      algo_(fn.algorithm()),
      num_vcs_(fn.num_vcs()),
      nodes_(topo.num_nodes()) {
  const std::size_t pairs =
      static_cast<std::size_t>(nodes_) * static_cast<std::size_t>(nodes_);
  if (pairs > max_entries) return;  // passthrough mode

  entries_.resize(pairs);
  tabulate();
}

void RoutingLut::tabulate() {
  RouteResult r;
  for (NodeId here = 0; here < nodes_; ++here) {
    for (NodeId dst = 0; dst < nodes_; ++dst) {
      RouteCode& e = entries_[static_cast<std::size_t>(here) * nodes_ + dst];
      if (here == dst) {
        e = RouteCode{};
        continue;  // route() precondition: here != dst
      }
      fn_->route(here, dst, r);
      e.useful = static_cast<std::uint16_t>(r.useful_phys_mask);
      e.det_channel = 0;
      e.det_class = 0;
      switch (algo_) {
        case Algorithm::TFAR:
          break;  // fully determined by the useful mask
        case Algorithm::DOR: {
          const Candidate& c = r.candidates[0];
          e.det_channel = c.channel;
          e.det_class = c.vc_mask == 0b1u ? 0 : 1;
          break;
        }
        case Algorithm::Duato: {
          const Candidate& esc = r.candidates[r.candidates.size() - 1];
          e.det_channel = esc.channel;
          e.det_class = esc.vc_mask == 0b01u ? 0 : 1;
          break;
        }
      }
    }
  }
}

void RoutingLut::rebuild(const topo::FaultMask* faults) {
  const bool faulty = faults != nullptr && faults->any();
  if (entries_.empty()) {
    if (faulty) {
      throw std::invalid_argument(
          "RoutingLut::rebuild: passthrough mode cannot route around faults");
    }
    return;
  }
  if (!faulty) {
    // Restore path: re-run the construction-time tabulation so the
    // healthy table comes back bit-exact.
    tabulate();
    return;
  }
  if (algo_ != Algorithm::TFAR) {
    throw std::invalid_argument(
        "RoutingLut::rebuild: fault-aware routes require TFAR (deterministic "
        "algorithms have no alternative paths to bend around faults)");
  }

  // One reverse BFS per destination over the alive graph. On a healthy
  // torus the BFS distance equals the minimal hop distance, so the
  // useful mask below coincides with TFAR's minimal-channel mask; dead
  // components simply drop out of the frontier.
  constexpr std::uint32_t kInf = std::numeric_limits<std::uint32_t>::max();
  const unsigned channels = topo_->num_channels();
  std::vector<std::uint32_t> dist(nodes_);
  std::vector<NodeId> frontier;
  std::vector<NodeId> next;
  for (NodeId dst = 0; dst < nodes_; ++dst) {
    dist.assign(nodes_, kInf);
    frontier.clear();
    if (!faults->node_dead(dst)) {
      dist[dst] = 0;
      frontier.push_back(dst);
    }
    std::uint32_t depth = 0;
    while (!frontier.empty()) {
      ++depth;
      next.clear();
      for (const NodeId u : frontier) {
        for (unsigned c = 0; c < channels; ++c) {
          // Expanding backwards along (v -> u) uses the same edge set:
          // kills are symmetric, so alive(u, c) iff alive(v, c ^ 1).
          if (faults->link_dead(u, static_cast<ChannelId>(c))) continue;
          const NodeId v = topo_->neighbor(u, static_cast<ChannelId>(c));
          if (dist[v] != kInf) continue;
          dist[v] = depth;
          next.push_back(v);
        }
      }
      frontier.swap(next);
    }
    for (NodeId here = 0; here < nodes_; ++here) {
      RouteCode& e = entries_[static_cast<std::size_t>(here) * nodes_ + dst];
      e.det_channel = 0;
      e.det_class = 0;
      std::uint32_t useful = 0;
      if (here != dst && dist[here] != kInf &&
          !faults->node_dead(here)) {
        for (unsigned c = 0; c < channels; ++c) {
          if (faults->link_dead(here, static_cast<ChannelId>(c))) continue;
          const NodeId v = topo_->neighbor(here, static_cast<ChannelId>(c));
          if (dist[v] != kInf && dist[v] + 1 == dist[here]) {
            useful |= 1u << c;
          }
        }
      }
      e.useful = static_cast<std::uint16_t>(useful);  // 0 = unreachable
    }
  }
}

}  // namespace wormsim::routing
