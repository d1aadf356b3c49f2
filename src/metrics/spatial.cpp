#include "metrics/spatial.hpp"

#include <string>

#include "util/csv.hpp"

namespace wormsim::metrics {

SpatialMetrics::SpatialMetrics(std::uint32_t num_nodes,
                               std::uint32_t num_links, unsigned num_vcs)
    : num_vcs_(num_vcs),
      nodes_(num_nodes),
      link_flits_(num_links, 0),
      occ_hist_(static_cast<std::size_t>(num_links) * (num_vcs + 1), 0) {}

double SpatialMetrics::mean_busy_vcs(std::uint32_t link) const noexcept {
  std::uint64_t samples = 0;
  std::uint64_t weighted = 0;
  for (unsigned v = 0; v <= num_vcs_; ++v) {
    const std::uint64_t c = occupancy_samples(link, v);
    samples += c;
    weighted += c * v;
  }
  return samples ? static_cast<double>(weighted) /
                       static_cast<double>(samples)
                 : 0.0;
}

void SpatialMetrics::reset() noexcept {
  nodes_.assign(nodes_.size(), NodeCounters{});
  link_flits_.assign(link_flits_.size(), 0);
  occ_hist_.assign(occ_hist_.size(), 0);
}

namespace {

std::string coords_string(const topo::KAryNCube& topo, topo::NodeId node) {
  const topo::Coords c = topo.coords_of(node);
  std::string s;
  for (unsigned d = 0; d < topo.dims(); ++d) {
    if (d) s.push_back('.');
    s += std::to_string(c[d]);
  }
  return s;
}

}  // namespace

void SpatialMetrics::write_channel_csv(std::ostream& out,
                                       const topo::KAryNCube& topo,
                                       std::uint64_t cycles) const {
  util::CsvWriter csv(out);
  csv.header({"link", "src", "dst", "dim", "dir", "src_x", "src_y",
              "flits_carried", "utilization", "mean_busy_vcs"});
  const unsigned channels = topo.num_channels();
  for (std::uint32_t l = 0; l < num_links(); ++l) {
    const auto src = static_cast<topo::NodeId>(l / channels);
    const auto ch = static_cast<topo::ChannelId>(l % channels);
    const topo::NodeId dst = topo.neighbor(src, ch);
    const char* dir =
        topo::channel_dir(ch) == topo::Dir::Plus ? "plus" : "minus";
    const double util =
        cycles ? static_cast<double>(link_flits_[l]) /
                     static_cast<double>(cycles)
               : 0.0;
    csv.row(l, src, dst, topo::channel_dim(ch), dir, topo.coord(src, 0),
            topo.dims() > 1 ? topo.coord(src, 1) : 0, link_flits_[l], util,
            mean_busy_vcs(l));
  }
}

void SpatialMetrics::write_node_csv(std::ostream& out,
                                    const topo::KAryNCube& topo,
                                    std::uint64_t cycles) const {
  util::CsvWriter csv(out);
  csv.header({"node", "x", "y", "coords", "injected_msgs", "ejected_flits",
              "ejected_flits_per_cycle", "queue_avg", "queue_max"});
  for (std::uint32_t n = 0; n < num_nodes(); ++n) {
    const NodeCounters& c = nodes_[n];
    const double eject_rate =
        cycles ? static_cast<double>(c.ejected_flits) /
                     static_cast<double>(cycles)
               : 0.0;
    csv.row(n, topo.coord(n, 0), topo.dims() > 1 ? topo.coord(n, 1) : 0,
            coords_string(topo, n), c.injected, c.ejected_flits, eject_rate,
            node_queue_avg(n), c.queue_max);
  }
}

void SpatialMetrics::write_vc_occupancy_csv(std::ostream& out,
                                            const topo::KAryNCube& topo) const {
  util::CsvWriter csv(out);
  csv.header({"link", "src", "dst", "dim", "dir", "busy_vcs", "samples"});
  const unsigned channels = topo.num_channels();
  for (std::uint32_t l = 0; l < num_links(); ++l) {
    const auto src = static_cast<topo::NodeId>(l / channels);
    const auto ch = static_cast<topo::ChannelId>(l % channels);
    const topo::NodeId dst = topo.neighbor(src, ch);
    const char* dir =
        topo::channel_dir(ch) == topo::Dir::Plus ? "plus" : "minus";
    for (unsigned v = 0; v <= num_vcs_; ++v) {
      csv.row(l, src, dst, topo::channel_dim(ch), dir, v,
              occupancy_samples(l, v));
    }
  }
}

}  // namespace wormsim::metrics
