// Bidirectional k-ary n-cube (torus) topology.
//
// Node addressing: mixed-radix little-endian — coordinate of dimension 0
// is the least significant digit of the node id.
//
// Physical channel indexing at a node: channel c in [0, 2n) encodes
// dimension d = c / 2 and direction (c % 2 == 0 → "plus", increasing
// coordinate; c % 2 == 1 → "minus"). The paper's 8-ary 3-cube therefore
// has 6 physical output channels per node.
#pragma once

#include <array>
#include <cstdint>

namespace wormsim::topo {

using NodeId = std::uint32_t;
using ChannelId = std::uint8_t;  // per-node physical channel index

inline constexpr NodeId kInvalidNode = ~NodeId{0};
inline constexpr unsigned kMaxDims = 8;

using Coords = std::array<std::uint16_t, kMaxDims>;

/// Direction along one dimension.
enum class Dir : std::uint8_t { Plus = 0, Minus = 1 };

constexpr ChannelId make_channel(unsigned dim, Dir dir) noexcept {
  return static_cast<ChannelId>(dim * 2 + static_cast<unsigned>(dir));
}
constexpr unsigned channel_dim(ChannelId c) noexcept { return c / 2u; }
constexpr Dir channel_dir(ChannelId c) noexcept {
  return static_cast<Dir>(c % 2u);
}

/// Minimal-route description for one dimension: which directions are
/// minimal (bit 0 = plus, bit 1 = minus; both set on a k/2 tie in an
/// even-radix ring) and how many hops remain along a minimal direction.
struct DimRoute {
  std::uint8_t dirs_mask = 0;
  std::uint16_t distance = 0;
};

class KAryNCube {
 public:
  /// 2 <= k <= 65535 (radix per dimension), 1 <= n <= kMaxDims, at
  /// most 2^24 nodes.
  KAryNCube(unsigned k, unsigned n);

  unsigned radix() const noexcept { return k_; }
  unsigned dims() const noexcept { return n_; }
  NodeId num_nodes() const noexcept { return num_nodes_; }
  unsigned num_channels() const noexcept { return 2 * n_; }
  /// Total unidirectional network links.
  std::uint64_t num_links() const noexcept {
    return static_cast<std::uint64_t>(num_nodes_) * num_channels();
  }

  Coords coords_of(NodeId node) const noexcept;
  NodeId node_at(const Coords& c) const noexcept;
  std::uint16_t coord(NodeId node, unsigned dim) const noexcept;

  /// The node reached by following output channel `c` from `node`.
  NodeId neighbor(NodeId node, ChannelId c) const noexcept;

  /// The input channel index at the receiving node for a flit sent on
  /// output channel `c` (the opposite direction in the same dimension:
  /// a flit leaving on (d, Plus) arrives on the receiver's (d, Plus)
  /// *input* port — we index input ports by the sender's channel
  /// direction so that input port (d, Plus) carries traffic moving in
  /// the plus direction).
  static constexpr ChannelId input_port_for(ChannelId c) noexcept { return c; }

  /// Minimal-route info for one dimension between two coordinates.
  DimRoute dim_route(std::uint16_t from, std::uint16_t to) const noexcept;

  /// Bitmask over the 2n output channels that move `from` strictly
  /// closer to `to` (the "useful physical output channels" of the
  /// paper). Zero iff from == to.
  std::uint32_t useful_channels_mask(NodeId from, NodeId to) const noexcept;

  /// Minimal hop distance.
  unsigned distance(NodeId from, NodeId to) const noexcept;

  /// Average minimal distance under uniform traffic (analytic: n*k/4 for
  /// even k, n*(k*k-1)/(4k) for odd k).
  double average_distance_uniform() const noexcept;

  /// Dateline virtual-channel class for deadlock-free ring traversal
  /// (Dally/Seitz address comparison): a message at coordinate `here`
  /// heading to coordinate `dest` in direction `dir` uses class 0 until
  /// it crosses the wraparound link and class 1 afterwards. Derivable
  /// without history: going Plus the wraparound is still ahead iff
  /// dest < here; going Minus iff dest > here.
  static std::uint8_t dateline_class(std::uint16_t here, std::uint16_t dest,
                                     Dir dir) noexcept {
    if (dir == Dir::Plus) return dest < here ? 0 : 1;
    return dest > here ? 0 : 1;
  }

 private:
  unsigned k_;
  unsigned n_;
  NodeId num_nodes_;
  std::array<NodeId, kMaxDims + 1> stride_{};  // k^d for digit extraction
};

}  // namespace wormsim::topo
