// Spatial (per-channel / per-node) metrics: localizes *where* a network
// saturates, which whole-run aggregates (SimResult) cannot do.
//
// The simulator feeds counters through O(1) hooks and a periodic link
// sweep, all gated behind a branch-on-null pointer — the structure only
// observes, never participates, so attaching it cannot perturb results
// (enforced by tests/sim/test_core_equivalence). Link and node ids use
// the simulator's indexing (link = node * num_channels + out_channel
// for network links), which is reconstructible from the topology alone,
// so the CSV exporters need only a KAryNCube to annotate rows with
// endpoints, dimensions and grid coordinates for heatmap rendering
// (tools/plot_figures.py --heatmap).
#pragma once

#include <cstdint>
#include <ostream>
#include <vector>

#include "topology/kary_ncube.hpp"

namespace wormsim::metrics {

class SpatialMetrics {
 public:
  /// Sized for `num_nodes` nodes and `num_links` *network* links with
  /// `num_vcs` virtual channels each (injection links are not tracked:
  /// their occupancy is visible in the per-node queue counters).
  SpatialMetrics(std::uint32_t num_nodes, std::uint32_t num_links,
                 unsigned num_vcs);

  // --- Hooks the simulator drives (hot only while attached) -----------
  void on_injected(std::uint32_t node) noexcept { ++nodes_[node].injected; }
  void on_ejected_flit(std::uint32_t node) noexcept {
    ++nodes_[node].ejected_flits;
  }
  void on_queue_sample(std::uint32_t node, std::uint64_t depth) noexcept {
    NodeCounters& n = nodes_[node];
    n.queue_sum += depth;
    ++n.queue_samples;
    if (depth > n.queue_max) n.queue_max = depth;
  }
  /// Periodic sample of one link's allocated-VC count (0..num_vcs).
  void on_link_occupancy_sample(std::uint32_t link,
                                unsigned busy_vcs) noexcept {
    ++occ_hist_[link * (num_vcs_ + 1) + busy_vcs];
  }
  /// Final copy of a link's cumulative flit counter (end of run).
  void set_link_flits(std::uint32_t link, std::uint64_t flits) noexcept {
    link_flits_[link] = flits;
  }

  // --- Accessors -------------------------------------------------------
  std::uint32_t num_nodes() const noexcept {
    return static_cast<std::uint32_t>(nodes_.size());
  }
  std::uint32_t num_links() const noexcept {
    return static_cast<std::uint32_t>(link_flits_.size());
  }
  unsigned num_vcs() const noexcept { return num_vcs_; }
  std::uint64_t link_flits(std::uint32_t link) const noexcept {
    return link_flits_[link];
  }
  std::uint64_t occupancy_samples(std::uint32_t link,
                                  unsigned busy_vcs) const noexcept {
    return occ_hist_[link * (num_vcs_ + 1) + busy_vcs];
  }
  std::uint64_t node_injected(std::uint32_t node) const noexcept {
    return nodes_[node].injected;
  }
  std::uint64_t node_ejected_flits(std::uint32_t node) const noexcept {
    return nodes_[node].ejected_flits;
  }
  std::uint64_t node_queue_max(std::uint32_t node) const noexcept {
    return nodes_[node].queue_max;
  }
  double node_queue_avg(std::uint32_t node) const noexcept {
    const NodeCounters& n = nodes_[node];
    return n.queue_samples ? static_cast<double>(n.queue_sum) /
                                 static_cast<double>(n.queue_samples)
                           : 0.0;
  }
  /// Mean allocated VCs on `link` over all occupancy samples.
  double mean_busy_vcs(std::uint32_t link) const noexcept;

  void reset() noexcept;

  // --- CSV exporters ---------------------------------------------------
  // The topology must match the one the feeding simulator ran on
  // (ids are positional). `cycles` converts flit counters to
  // utilization in flits/cycle.

  /// Per-physical-channel table:
  /// link,src,dst,dim,dir,src_x,src_y,flits_carried,utilization,mean_busy_vcs
  void write_channel_csv(std::ostream& out, const topo::KAryNCube& topo,
                         std::uint64_t cycles) const;
  /// Per-node table:
  /// node,x,y,coords,injected_msgs,ejected_flits,queue_avg,queue_max
  void write_node_csv(std::ostream& out, const topo::KAryNCube& topo,
                      std::uint64_t cycles) const;
  /// Long-format VC-occupancy histogram:
  /// link,src,dst,dim,dir,busy_vcs,samples
  void write_vc_occupancy_csv(std::ostream& out,
                              const topo::KAryNCube& topo) const;

 private:
  struct NodeCounters {
    std::uint64_t injected = 0;
    std::uint64_t ejected_flits = 0;
    std::uint64_t queue_sum = 0;
    std::uint64_t queue_samples = 0;
    std::uint64_t queue_max = 0;
  };

  unsigned num_vcs_;
  std::vector<NodeCounters> nodes_;
  std::vector<std::uint64_t> link_flits_;
  std::vector<std::uint64_t> occ_hist_;  // [link][0..num_vcs] flattened
};

}  // namespace wormsim::metrics
