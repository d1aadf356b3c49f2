#include "topology/kary_ncube.hpp"

#include <stdexcept>
#include <string>

namespace wormsim::topo {

KAryNCube::KAryNCube(unsigned k, unsigned n) : k_(k), n_(n) {
  if (k < 2) throw std::invalid_argument("k-ary n-cube requires k >= 2");
  // Coordinates are 16-bit (Coords, coord(), dim_route()).
  if (k > 65535) {
    throw std::invalid_argument("k-ary n-cube requires k <= 65535");
  }
  if (n < 1 || n > kMaxDims) {
    throw std::invalid_argument("k-ary n-cube requires 1 <= n <= " +
                                std::to_string(kMaxDims));
  }
  std::uint64_t count = 1;
  stride_[0] = 1;
  for (unsigned d = 0; d < n; ++d) {
    count *= k;
    if (count > 1u << 24) {
      throw std::invalid_argument("network too large (> 2^24 nodes)");
    }
    stride_[d + 1] = static_cast<NodeId>(count);
  }
  num_nodes_ = static_cast<NodeId>(count);
}

Coords KAryNCube::coords_of(NodeId node) const noexcept {
  Coords c{};
  for (unsigned d = 0; d < n_; ++d) {
    c[d] = static_cast<std::uint16_t>((node / stride_[d]) % k_);
  }
  return c;
}

NodeId KAryNCube::node_at(const Coords& c) const noexcept {
  NodeId node = 0;
  for (unsigned d = 0; d < n_; ++d) {
    node += static_cast<NodeId>(c[d]) * stride_[d];
  }
  return node;
}

std::uint16_t KAryNCube::coord(NodeId node, unsigned dim) const noexcept {
  return static_cast<std::uint16_t>((node / stride_[dim]) % k_);
}

NodeId KAryNCube::neighbor(NodeId node, ChannelId c) const noexcept {
  const unsigned d = channel_dim(c);
  const auto x = coord(node, d);
  const unsigned next =
      channel_dir(c) == Dir::Plus
          ? (x + 1u) % k_
          : (x + k_ - 1u) % k_;
  return node + (static_cast<NodeId>(next) - x) * stride_[d];
}

DimRoute KAryNCube::dim_route(std::uint16_t from,
                              std::uint16_t to) const noexcept {
  DimRoute r;
  if (from == to) return r;
  const unsigned fwd = (to + k_ - from) % k_;  // hops going Plus
  const unsigned bwd = k_ - fwd;               // hops going Minus
  if (fwd < bwd) {
    r.dirs_mask = 1u << static_cast<unsigned>(Dir::Plus);
    r.distance = static_cast<std::uint16_t>(fwd);
  } else if (bwd < fwd) {
    r.dirs_mask = 1u << static_cast<unsigned>(Dir::Minus);
    r.distance = static_cast<std::uint16_t>(bwd);
  } else {  // tie (even k, half-way destination): both directions minimal
    r.dirs_mask = 0b11;
    r.distance = static_cast<std::uint16_t>(fwd);
  }
  return r;
}

std::uint32_t KAryNCube::useful_channels_mask(NodeId from,
                                              NodeId to) const noexcept {
  std::uint32_t mask = 0;
  for (unsigned d = 0; d < n_; ++d) {
    const DimRoute r = dim_route(coord(from, d), coord(to, d));
    if (r.dirs_mask & (1u << static_cast<unsigned>(Dir::Plus))) {
      mask |= 1u << make_channel(d, Dir::Plus);
    }
    if (r.dirs_mask & (1u << static_cast<unsigned>(Dir::Minus))) {
      mask |= 1u << make_channel(d, Dir::Minus);
    }
  }
  return mask;
}

unsigned KAryNCube::distance(NodeId from, NodeId to) const noexcept {
  unsigned total = 0;
  for (unsigned d = 0; d < n_; ++d) {
    total += dim_route(coord(from, d), coord(to, d)).distance;
  }
  return total;
}

double KAryNCube::average_distance_uniform() const noexcept {
  // Average over all (src, dst) pairs including src == dst, per
  // dimension: mean minimal ring distance.
  double per_dim;
  if (k_ % 2 == 0) {
    per_dim = static_cast<double>(k_) / 4.0;
  } else {
    per_dim = static_cast<double>(k_ * k_ - 1) / (4.0 * static_cast<double>(k_));
  }
  return per_dim * n_;
}

}  // namespace wormsim::topo
