// RouteCoder computes every shipped algorithm's route in closed form.
// Expanded, its code must equal what the routing function computes on
// the fly — candidate order, per-candidate VC masks, escape flags and
// the useful-channel mask — and it must equal the code the LUT
// tabulates from that function. The simulator's active core routes
// from these codes while the dense core calls the function, so this
// equality is what keeps the two cores bit-identical.
#include <gtest/gtest.h>

#include <random>
#include <string>
#include <tuple>
#include <utility>

#include "routing/routing.hpp"
#include "routing/routing_lut.hpp"

namespace wormsim::routing {
namespace {

using topo::KAryNCube;
using topo::NodeId;

bool same_route(const RouteResult& a, const RouteResult& b) {
  if (a.useful_phys_mask != b.useful_phys_mask) return false;
  if (a.candidates.size() != b.candidates.size()) return false;
  for (std::size_t i = 0; i < a.candidates.size(); ++i) {
    const Candidate& x = a.candidates[i];
    const Candidate& y = b.candidates[i];
    if (x.channel != y.channel || x.vc_mask != y.vc_mask ||
        x.escape != y.escape) {
      return false;
    }
  }
  return true;
}

/// Codes agree on every field `algo` reads (TFAR has no
/// dimension-order hop; the LUT leaves it zero).
bool same_code(RouteCode a, RouteCode b, Algorithm algo) {
  if (a.useful != b.useful) return false;
  return algo == Algorithm::TFAR ||
         (a.det_channel == b.det_channel && a.det_class == b.det_class);
}

std::uint32_t channel_union(const RouteResult& r) {
  std::uint32_t mask = 0;
  for (const auto& c : r.candidates) mask |= 1u << c.channel;
  return mask;
}

/// Check one (here, dst) pair against the routing function; false (with
/// a gtest failure naming the pair) on the first mismatch.
bool check_pair(const RoutingFunction& fn, const RouteCoder& coder,
                NodeId here, NodeId dst) {
  RouteResult expect, got;
  fn.route(here, dst, expect);
  const RouteCode code = coder.code(here, dst);
  expand(code, fn.algorithm(), fn.num_vcs(), got);
  if (!same_route(expect, got)) {
    ADD_FAILURE() << algorithm_name(fn.algorithm()) << " route " << here
                  << "->" << dst << " differs from the routing function";
    return false;
  }
  if (candidate_mask(code, fn.algorithm()) != channel_union(expect)) {
    ADD_FAILURE() << algorithm_name(fn.algorithm()) << " candidate mask "
                  << here << "->" << dst;
    return false;
  }
  return true;
}

/// The shipped algorithms crossed with k = 2 (the degenerate wrap where
/// +d and -d reach the same neighbor), odd and even radices up to 9,
/// and dimensions 1..3.
class RouteCoderExhaustive
    : public ::testing::TestWithParam<
          std::tuple<Algorithm, unsigned /*k*/, unsigned /*n*/>> {};

TEST_P(RouteCoderExhaustive, MatchesRoutingFunctionAndLut) {
  const auto [algo, k, n] = GetParam();
  const KAryNCube topo(k, n);
  const RouteCoder coder(topo);
  for (const unsigned num_vcs : {3u, 4u}) {
    const auto fn = make_routing(algo, topo, num_vcs);
    const RoutingLut lut(*fn, topo);
    ASSERT_TRUE(lut.tabulated());
    for (NodeId here = 0; here < topo.num_nodes(); ++here) {
      for (NodeId dst = 0; dst < topo.num_nodes(); ++dst) {
        if (here == dst) continue;
        ASSERT_TRUE(check_pair(*fn, coder, here, dst));
        ASSERT_TRUE(same_code(lut.code(here, dst), coder.code(here, dst), algo))
            << "LUT code " << here << "->" << dst;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AlgorithmsTimesShapes, RouteCoderExhaustive,
    ::testing::Combine(::testing::Values(Algorithm::TFAR, Algorithm::DOR,
                                         Algorithm::Duato),
                       ::testing::Range(2u, 10u),
                       ::testing::Values(1u, 2u, 3u)),
    [](const auto& shape) {
      return std::string(algorithm_name(std::get<0>(shape.param))) + "_k" +
             std::to_string(std::get<1>(shape.param)) + "n" +
             std::to_string(std::get<2>(shape.param));
    });

/// The 4096-node cube is past the LUT budget: random pairs against the
/// routing function only.
TEST(RouteCoder, MatchesRoutingFunctionOnRandomPairsLargeNetwork) {
  const KAryNCube topo(16, 3);
  const RouteCoder coder(topo);
  std::mt19937_64 rng(0xC0DE);
  std::uniform_int_distribution<NodeId> pick(0, topo.num_nodes() - 1);
  for (const auto algo : {Algorithm::TFAR, Algorithm::DOR, Algorithm::Duato}) {
    const auto fn = make_routing(algo, topo, 4);
    for (int trial = 0; trial < 10000; ++trial) {
      const NodeId here = pick(rng);
      NodeId dst = pick(rng);
      if (here == dst) dst = (dst + 1) % topo.num_nodes();
      ASSERT_TRUE(check_pair(*fn, coder, here, dst));
    }
  }
}

/// The largest radix a ring accepts: 16-bit coordinates at both ends of
/// their range, where an overflowing offset would flip the direction.
TEST(RouteCoder, MatchesRoutingFunctionOnLargestRing) {
  const KAryNCube topo(65535, 1);
  const RouteCoder coder(topo);
  const auto fn = make_routing(Algorithm::Duato, topo, 3);
  for (const auto& [here, dst] :
       {std::pair<NodeId, NodeId>{0, 65534}, {4, 65534}, {65534, 0},
        {0, 32767}, {0, 32768}, {32768, 0}, {65534, 32767}}) {
    EXPECT_TRUE(check_pair(*fn, coder, here, dst));
  }
  EXPECT_EQ(coder.code(0, 65534).useful,
            1u << topo::make_channel(0, topo::Dir::Minus));
}

}  // namespace
}  // namespace wormsim::routing
