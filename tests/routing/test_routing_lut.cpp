// RoutingLut must be a drop-in for the routing function it wraps: for
// every (here, dst) pair the expanded RouteResult — candidate order,
// per-candidate VC masks, escape flags and the useful-channel mask —
// equals what fn.route() computes on the fly. Fault-schedule runs route
// through the LUT and every other run through the function, so the
// comparison here is exact, not structural.
#include "routing/routing_lut.hpp"

#include <gtest/gtest.h>

#include <random>
#include <stdexcept>
#include <tuple>
#include <vector>

#include "routing/routing.hpp"
#include "topology/fault_mask.hpp"

namespace wormsim::routing {
namespace {

using topo::KAryNCube;
using topo::NodeId;

void expect_routes_equal(const RouteResult& expect, const RouteResult& got,
                         NodeId here, NodeId dst, const char* label) {
  SCOPED_TRACE(::testing::Message() << label << " " << here << "->" << dst);
  ASSERT_EQ(expect.candidates.size(), got.candidates.size());
  for (std::size_t i = 0; i < expect.candidates.size(); ++i) {
    EXPECT_EQ(expect.candidates[i].channel, got.candidates[i].channel)
        << "candidate " << i;
    EXPECT_EQ(expect.candidates[i].vc_mask, got.candidates[i].vc_mask)
        << "candidate " << i;
    EXPECT_EQ(expect.candidates[i].escape, got.candidates[i].escape)
        << "candidate " << i;
  }
  EXPECT_EQ(expect.useful_phys_mask, got.useful_phys_mask);
}

/// The shipped algorithms crossed with the torus shapes whose routing
/// differs structurally: k = 2 (the degenerate wrap where +d and -d
/// reach the same neighbor), odd k (no antipodal tie, asymmetric
/// halves), even k > 2, and dimensions 1..3.
class RoutingLutEquivalence
    : public ::testing::TestWithParam<
          std::tuple<Algorithm, unsigned /*k*/, unsigned /*n*/>> {};

TEST_P(RoutingLutEquivalence, MatchesOnTheFlyRouteExhaustively) {
  const auto [algo, k, n] = GetParam();
  const KAryNCube topo(k, n);
  const unsigned num_vcs = 3;  // minimum every algorithm accepts
  const auto fn = make_routing(algo, topo, num_vcs);
  const RoutingLut lut(*fn, topo);
  ASSERT_TRUE(lut.tabulated());
  EXPECT_EQ(lut.algorithm(), algo);

  RouteResult expect, got;
  for (NodeId here = 0; here < topo.num_nodes(); ++here) {
    for (NodeId dst = 0; dst < topo.num_nodes(); ++dst) {
      if (here == dst) continue;
      fn->route(here, dst, expect);
      lut.route(here, dst, got);
      expect_routes_equal(expect, got, here, dst, algorithm_name(algo).data());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AlgorithmsTimesShapes, RoutingLutEquivalence,
    ::testing::Combine(::testing::Values(Algorithm::TFAR, Algorithm::DOR,
                                         Algorithm::Duato),
                       ::testing::Values(2u, 3u, 4u, 5u),
                       ::testing::Values(1u, 2u, 3u)),
    [](const auto& param_info) {
      return std::string(algorithm_name(std::get<0>(param_info.param))) + "_k" +
             std::to_string(std::get<1>(param_info.param)) + "n" +
             std::to_string(std::get<2>(param_info.param));
    });

/// Larger network, more VCs (distinct Duato adaptive/escape split),
/// random pair sample instead of the full N^2 product.
TEST(RoutingLut, MatchesOnRandomPairsLargeNetwork) {
  const KAryNCube topo(8, 3);  // the paper's full-scale 512-node cube
  std::mt19937_64 rng(0xC0FFEE);
  std::uniform_int_distribution<NodeId> pick(0, topo.num_nodes() - 1);
  for (const auto algo : {Algorithm::TFAR, Algorithm::DOR, Algorithm::Duato}) {
    for (const unsigned num_vcs : {3u, 4u, 6u}) {
      const auto fn = make_routing(algo, topo, num_vcs);
      const RoutingLut lut(*fn, topo);
      ASSERT_TRUE(lut.tabulated());
      RouteResult expect, got;
      for (int trial = 0; trial < 4000; ++trial) {
        const NodeId here = pick(rng);
        NodeId dst = pick(rng);
        if (here == dst) dst = (dst + 1) % topo.num_nodes();
        fn->route(here, dst, expect);
        lut.route(here, dst, got);
        expect_routes_equal(expect, got, here, dst,
                            algorithm_name(algo).data());
      }
    }
  }
}

/// A budget below nodes^2 selects the passthrough mode: tabulated() is
/// false and route() forwards verbatim, so oversized networks keep
/// working without the caller caring.
TEST(RoutingLut, PassthroughBelowBudgetStillRoutesIdentically) {
  const KAryNCube topo(4, 2);
  const auto fn = make_routing(Algorithm::TFAR, topo, 3);
  const RoutingLut lut(*fn, topo, /*max_entries=*/topo.num_nodes() - 1);
  EXPECT_FALSE(lut.tabulated());
  RouteResult expect, got;
  for (NodeId here = 0; here < topo.num_nodes(); ++here) {
    for (NodeId dst = 0; dst < topo.num_nodes(); ++dst) {
      if (here == dst) continue;
      fn->route(here, dst, expect);
      lut.route(here, dst, got);
      expect_routes_equal(expect, got, here, dst, "passthrough");
    }
  }
}

/// The exact boundary budget (nodes^2) must still tabulate.
TEST(RoutingLut, ExactBudgetTabulates) {
  const KAryNCube topo(3, 2);
  const auto fn = make_routing(Algorithm::DOR, topo, 3);
  const std::size_t pairs =
      static_cast<std::size_t>(topo.num_nodes()) * topo.num_nodes();
  EXPECT_TRUE(RoutingLut(*fn, topo, pairs).tabulated());
  EXPECT_FALSE(RoutingLut(*fn, topo, pairs - 1).tabulated());
}

/// All (here, dst) routes of a LUT, for exact before/after comparison.
std::vector<RouteResult> snapshot_routes(const RoutingLut& lut,
                                         const KAryNCube& topo) {
  std::vector<RouteResult> routes;
  routes.reserve(static_cast<std::size_t>(topo.num_nodes()) *
                 topo.num_nodes());
  for (NodeId here = 0; here < topo.num_nodes(); ++here) {
    for (NodeId dst = 0; dst < topo.num_nodes(); ++dst) {
      RouteResult r;
      if (here != dst) lut.route(here, dst, r);
      routes.push_back(std::move(r));
    }
  }
  return routes;
}

void expect_snapshots_equal(const std::vector<RouteResult>& expect,
                            const std::vector<RouteResult>& got,
                            const KAryNCube& topo, const char* label) {
  ASSERT_EQ(expect.size(), got.size());
  for (NodeId here = 0; here < topo.num_nodes(); ++here) {
    for (NodeId dst = 0; dst < topo.num_nodes(); ++dst) {
      const std::size_t i =
          static_cast<std::size_t>(here) * topo.num_nodes() + dst;
      expect_routes_equal(expect[i], got[i], here, dst, label);
    }
  }
}

/// rebuild() with no faults — null mask, an all-clear mask, or a mask
/// whose faults were all restored — must reproduce the construction-
/// time table bit-exactly for every algorithm, so a heal-and-rebuild
/// cycle leaves memoization-free routing indistinguishable from a fresh
/// simulator.
TEST(RoutingLutRebuild, HealthyRebuildRestoresRoutesBitExact) {
  const KAryNCube topo(4, 2);
  for (const auto algo : {Algorithm::TFAR, Algorithm::DOR, Algorithm::Duato}) {
    SCOPED_TRACE(algorithm_name(algo));
    const auto fn = make_routing(algo, topo, 3);
    RoutingLut lut(*fn, topo);
    const auto original = snapshot_routes(lut, topo);

    lut.rebuild(nullptr);
    expect_snapshots_equal(original, snapshot_routes(lut, topo), topo,
                           "rebuild(nullptr)");

    topo::FaultMask clear(topo);
    lut.rebuild(&clear);
    expect_snapshots_equal(original, snapshot_routes(lut, topo), topo,
                           "rebuild(all-clear)");
  }

  // Kill, rebuild around the fault, restore, rebuild again: the healthy
  // table must come back bit-exact (TFAR only — the deterministic
  // algorithms reject fault-aware rebuilds).
  const auto fn = make_routing(Algorithm::TFAR, topo, 3);
  RoutingLut lut(*fn, topo);
  const auto original = snapshot_routes(lut, topo);
  topo::FaultMask mask(topo);
  mask.kill_link(0, 0);
  lut.rebuild(&mask);
  RouteResult degraded;
  lut.route(0, topo.neighbor(0, 0), degraded);
  EXPECT_EQ(degraded.useful_phys_mask & 1u, 0u);  // route bends around
  mask.restore_link(0, 0);
  lut.rebuild(&mask);
  expect_snapshots_equal(original, snapshot_routes(lut, topo), topo,
                         "restore-rebuild");
}

/// Fault-aware TFAR rebuild: no surviving route crosses a dead channel,
/// every connected pair keeps a non-empty useful mask, pairs through a
/// fully-severed cut report unreachable, and reachable() mirrors the
/// useful masks.
TEST(RoutingLutRebuild, TfarRoutesAvoidDeadComponents) {
  const KAryNCube topo(4, 2);
  const auto fn = make_routing(Algorithm::TFAR, topo, 3);
  RoutingLut lut(*fn, topo);
  topo::FaultMask mask(topo);
  mask.kill_link(5, 0);
  mask.kill_link(9, 3);
  lut.rebuild(&mask);

  RouteResult r;
  for (NodeId here = 0; here < topo.num_nodes(); ++here) {
    for (NodeId dst = 0; dst < topo.num_nodes(); ++dst) {
      if (here == dst) continue;
      lut.route(here, dst, r);
      // Two link faults cannot disconnect this torus.
      EXPECT_TRUE(lut.reachable(here, dst)) << here << "->" << dst;
      ASSERT_FALSE(r.candidates.empty()) << here << "->" << dst;
      for (const Candidate& c : r.candidates) {
        EXPECT_FALSE(mask.link_dead(here, c.channel))
            << here << "->" << dst << " via dead channel "
            << static_cast<unsigned>(c.channel);
      }
    }
  }
}

TEST(RoutingLutRebuild, SeveredNodeBecomesUnreachable) {
  const KAryNCube topo(4, 1);  // ring 0-1-2-3
  const auto fn = make_routing(Algorithm::TFAR, topo, 3);
  RoutingLut lut(*fn, topo);
  topo::FaultMask mask(topo);
  mask.kill_link(0, 0);  // 0 <-> 1
  mask.kill_link(0, 1);  // 0 <-> 3
  lut.rebuild(&mask);

  for (NodeId other = 1; other < 4; ++other) {
    EXPECT_FALSE(lut.reachable(0, other));
    EXPECT_FALSE(lut.reachable(other, 0));
    RouteResult r;
    lut.route(0, other, r);
    EXPECT_TRUE(r.candidates.empty());
  }
  // The surviving 1-2-3 chain still routes (including the pair whose
  // shortest healthy path ran through node 0).
  EXPECT_TRUE(lut.reachable(1, 3));
  RouteResult r;
  lut.route(1, 3, r);
  ASSERT_FALSE(r.candidates.empty());
  EXPECT_TRUE(lut.reachable(2, 1));
  EXPECT_TRUE(lut.reachable(1, 1));  // self stays trivially reachable
}

TEST(RoutingLutRebuild, DeadNodeUnreachableBothWaysUntilRestored) {
  const KAryNCube topo(4, 2);
  const auto fn = make_routing(Algorithm::TFAR, topo, 3);
  RoutingLut lut(*fn, topo);
  const auto original = snapshot_routes(lut, topo);
  topo::FaultMask mask(topo);
  mask.kill_node(6);
  lut.rebuild(&mask);

  for (NodeId other = 0; other < topo.num_nodes(); ++other) {
    if (other == 6) continue;
    EXPECT_FALSE(lut.reachable(6, other));
    EXPECT_FALSE(lut.reachable(other, 6));
    EXPECT_TRUE(lut.reachable(other, (other + 1) % topo.num_nodes() == 6
                                         ? (other + 2) % topo.num_nodes()
                                         : (other + 1) % topo.num_nodes()));
    RouteResult r;
    lut.route(other, 6, r);
    EXPECT_TRUE(r.candidates.empty());
  }

  mask.restore_node(6);
  lut.rebuild(&mask);
  expect_snapshots_equal(original, snapshot_routes(lut, topo), topo,
                         "node-restore-rebuild");
}

TEST(RoutingLutRebuild, RejectsUnsupportedModes) {
  const KAryNCube topo(4, 2);
  topo::FaultMask mask(topo);
  mask.kill_link(0, 0);

  // Passthrough (untabulated) LUTs cannot host fault-aware routes.
  const auto tfar = make_routing(Algorithm::TFAR, topo, 3);
  RoutingLut passthrough(*tfar, topo, /*max_entries=*/1);
  ASSERT_FALSE(passthrough.tabulated());
  EXPECT_NO_THROW(passthrough.rebuild(nullptr));
  EXPECT_THROW(passthrough.rebuild(&mask), std::invalid_argument);

  // Deterministic algorithms have no alternative paths to offer.
  for (const auto algo : {Algorithm::DOR, Algorithm::Duato}) {
    const auto fn = make_routing(algo, topo, 3);
    RoutingLut lut(*fn, topo);
    EXPECT_THROW(lut.rebuild(&mask), std::invalid_argument);
  }
}

}  // namespace
}  // namespace wormsim::routing
