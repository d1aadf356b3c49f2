#include "topology/kary_ncube.hpp"

#include <gtest/gtest.h>

#include <set>

namespace wormsim::topo {
namespace {

TEST(KAryNCube, NodeCount) {
  EXPECT_EQ(KAryNCube(8, 3).num_nodes(), 512u);
  EXPECT_EQ(KAryNCube(4, 2).num_nodes(), 16u);
  EXPECT_EQ(KAryNCube(2, 4).num_nodes(), 16u);
  EXPECT_EQ(KAryNCube(3, 3).num_nodes(), 27u);
}

TEST(KAryNCube, RejectsBadShapes) {
  EXPECT_THROW(KAryNCube(1, 3), std::invalid_argument);
  EXPECT_THROW(KAryNCube(4, 0), std::invalid_argument);
  EXPECT_THROW(KAryNCube(4, 99), std::invalid_argument);
}

/// Coordinates are 16-bit: a larger radix would wrap them and route the
/// wrong way (or nowhere), so the constructor refuses it.
TEST(KAryNCube, RejectsRadixAbove16Bits) {
  EXPECT_THROW(KAryNCube(65536, 1), std::invalid_argument);
  EXPECT_THROW(KAryNCube(70000, 1), std::invalid_argument);
  const KAryNCube ring(65535, 1);
  EXPECT_EQ(ring.coord(65534, 0), 65534);
  EXPECT_EQ(ring.useful_channels_mask(0, 65534),
            1u << make_channel(0, Dir::Minus));
  EXPECT_EQ(ring.useful_channels_mask(4, 65534),
            1u << make_channel(0, Dir::Minus));
  EXPECT_EQ(ring.distance(4, 65534), 5u);
}

TEST(KAryNCube, CoordsRoundTrip) {
  const KAryNCube t(5, 3);
  for (NodeId n = 0; n < t.num_nodes(); ++n) {
    EXPECT_EQ(t.node_at(t.coords_of(n)), n);
  }
}

TEST(KAryNCube, CoordsLittleEndian) {
  const KAryNCube t(8, 3);
  const Coords c = t.coords_of(8 * 8 * 2 + 8 * 3 + 5);
  EXPECT_EQ(c[0], 5);
  EXPECT_EQ(c[1], 3);
  EXPECT_EQ(c[2], 2);
}

TEST(KAryNCube, ChannelEncoding) {
  EXPECT_EQ(make_channel(0, Dir::Plus), 0);
  EXPECT_EQ(make_channel(0, Dir::Minus), 1);
  EXPECT_EQ(make_channel(2, Dir::Plus), 4);
  EXPECT_EQ(channel_dim(5), 2u);
  EXPECT_EQ(channel_dir(5), Dir::Minus);
}

TEST(KAryNCube, NeighborWrapsAround) {
  const KAryNCube t(4, 2);
  // Node (3, 0): +dim0 wraps to (0, 0).
  const NodeId n = t.node_at({3, 0});
  EXPECT_EQ(t.neighbor(n, make_channel(0, Dir::Plus)), t.node_at({0, 0}));
  EXPECT_EQ(t.neighbor(n, make_channel(0, Dir::Minus)), t.node_at({2, 0}));
  EXPECT_EQ(t.neighbor(n, make_channel(1, Dir::Minus)), t.node_at({3, 3}));
}

TEST(KAryNCube, NeighborIsInvolutionViaOppositeChannel) {
  const KAryNCube t(5, 3);
  for (NodeId n = 0; n < t.num_nodes(); ++n) {
    for (unsigned c = 0; c < t.num_channels(); ++c) {
      const NodeId m = t.neighbor(n, static_cast<ChannelId>(c));
      const ChannelId back = static_cast<ChannelId>(c ^ 1u);  // flip dir
      EXPECT_EQ(t.neighbor(m, back), n);
    }
  }
}

TEST(KAryNCube, DimRouteShortestWay) {
  const KAryNCube t(8, 1);
  // 1 -> 3: forward 2 hops.
  auto r = t.dim_route(1, 3);
  EXPECT_EQ(r.distance, 2);
  EXPECT_EQ(r.dirs_mask, 0b01);
  // 1 -> 7: backward 2 hops (forward would be 6).
  r = t.dim_route(1, 7);
  EXPECT_EQ(r.distance, 2);
  EXPECT_EQ(r.dirs_mask, 0b10);
  // 1 -> 5: tie at distance 4, both directions minimal.
  r = t.dim_route(1, 5);
  EXPECT_EQ(r.distance, 4);
  EXPECT_EQ(r.dirs_mask, 0b11);
  // Same coordinate: no movement.
  r = t.dim_route(4, 4);
  EXPECT_EQ(r.distance, 0);
  EXPECT_EQ(r.dirs_mask, 0);
}

TEST(KAryNCube, OddRadixNeverTies) {
  const KAryNCube t(5, 1);
  for (std::uint16_t a = 0; a < 5; ++a) {
    for (std::uint16_t b = 0; b < 5; ++b) {
      if (a == b) continue;
      EXPECT_NE(t.dim_route(a, b).dirs_mask, 0b11);
    }
  }
}

TEST(KAryNCube, DistanceSymmetricAndTriangle) {
  const KAryNCube t(4, 3);
  for (NodeId a = 0; a < t.num_nodes(); a += 7) {
    for (NodeId b = 0; b < t.num_nodes(); b += 5) {
      EXPECT_EQ(t.distance(a, b), t.distance(b, a));
      EXPECT_EQ(t.distance(a, a), 0u);
    }
  }
}

TEST(KAryNCube, DistanceMatchesBfsOnSmallTorus) {
  const KAryNCube t(4, 2);
  // BFS from node 0.
  std::vector<unsigned> dist(t.num_nodes(), ~0u);
  std::vector<NodeId> frontier{0};
  dist[0] = 0;
  while (!frontier.empty()) {
    std::vector<NodeId> next;
    for (NodeId n : frontier) {
      for (unsigned c = 0; c < t.num_channels(); ++c) {
        const NodeId m = t.neighbor(n, static_cast<ChannelId>(c));
        if (dist[m] == ~0u) {
          dist[m] = dist[n] + 1;
          next.push_back(m);
        }
      }
    }
    frontier = std::move(next);
  }
  for (NodeId n = 0; n < t.num_nodes(); ++n) {
    EXPECT_EQ(t.distance(0, n), dist[n]) << "node " << n;
  }
}

TEST(KAryNCube, UsefulChannelsMoveCloser) {
  const KAryNCube t(8, 3);
  for (NodeId a = 0; a < t.num_nodes(); a += 37) {
    for (NodeId b = 0; b < t.num_nodes(); b += 41) {
      if (a == b) continue;
      const std::uint32_t mask = t.useful_channels_mask(a, b);
      ASSERT_NE(mask, 0u);
      for (unsigned c = 0; c < t.num_channels(); ++c) {
        const NodeId via = t.neighbor(a, static_cast<ChannelId>(c));
        if (mask & (1u << c)) {
          EXPECT_EQ(t.distance(via, b), t.distance(a, b) - 1);
        } else {
          EXPECT_GE(t.distance(via, b) + 1, t.distance(a, b));
        }
      }
    }
  }
}

TEST(KAryNCube, UsefulChannelsEmptyAtDestination) {
  const KAryNCube t(4, 2);
  EXPECT_EQ(t.useful_channels_mask(5, 5), 0u);
}

TEST(KAryNCube, AverageDistanceFormula) {
  EXPECT_DOUBLE_EQ(KAryNCube(8, 3).average_distance_uniform(), 6.0);
  EXPECT_DOUBLE_EQ(KAryNCube(4, 2).average_distance_uniform(), 2.0);
  // Odd radix: n*(k^2-1)/(4k) = 1 * 24 / 20 = 1.2.
  EXPECT_DOUBLE_EQ(KAryNCube(5, 1).average_distance_uniform(), 1.2);
}

TEST(KAryNCube, AverageDistanceMatchesExhaustive) {
  const KAryNCube t(4, 2);
  double sum = 0;
  for (NodeId a = 0; a < t.num_nodes(); ++a) {
    for (NodeId b = 0; b < t.num_nodes(); ++b) {
      sum += t.distance(a, b);
    }
  }
  const double avg =
      sum / (static_cast<double>(t.num_nodes()) * t.num_nodes());
  EXPECT_NEAR(avg, t.average_distance_uniform(), 1e-12);
}

TEST(KAryNCube, DatelineClassBreaksRingCycle) {
  // Going Plus on an 8-ring: class 0 before the wraparound, 1 after.
  EXPECT_EQ(KAryNCube::dateline_class(6, 2, Dir::Plus), 0);  // will wrap
  EXPECT_EQ(KAryNCube::dateline_class(1, 2, Dir::Plus), 1);  // won't wrap
  EXPECT_EQ(KAryNCube::dateline_class(2, 6, Dir::Minus), 0);
  EXPECT_EQ(KAryNCube::dateline_class(6, 2, Dir::Minus), 1);
}

TEST(KAryNCube, AllNodesReachableEveryChannelUsedBySomePair) {
  const KAryNCube t(3, 2);
  std::set<std::pair<NodeId, unsigned>> used;
  for (NodeId a = 0; a < t.num_nodes(); ++a) {
    for (NodeId b = 0; b < t.num_nodes(); ++b) {
      if (a == b) continue;
      const auto mask = t.useful_channels_mask(a, b);
      for (unsigned c = 0; c < t.num_channels(); ++c) {
        if (mask & (1u << c)) used.insert({a, c});
      }
    }
  }
  // Every output channel of every node is useful for some destination.
  EXPECT_EQ(used.size(), t.num_nodes() * t.num_channels());
}

}  // namespace
}  // namespace wormsim::topo
