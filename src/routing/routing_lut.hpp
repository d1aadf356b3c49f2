// Precomputed routing lookup table, for fault reconfiguration.
//
// All shipped routing functions are *static*: the candidate list and the
// useful-physical-channel mask depend only on (here, dst), never on
// channel status. On a healthy torus RouteCoder computes every route's
// 4-byte RouteCode in closed form, so the simulator needs no table. A
// faulty network has no closed form: rebuild() re-derives the routes by
// BFS over the alive graph, and this table stores one RouteCode per
// (here, dst) pair, tabulated from the wrapped function at
// construction and expanded by routing::expand() into the exact
// RouteResult the function would have produced.
//
// Networks too large to tabulate (> max_entries (here, dst) pairs) fall
// back to calling the wrapped function — route() is then a passthrough,
// so callers never need to care. A status-dependent routing function
// added in the future must NOT be wrapped in a RoutingLut (or must use
// the passthrough mode); the blocked-header route memo in the simulator
// makes the same staticness assumption.
//
// tests/routing/test_routing_lut.cpp asserts LUT/on-the-fly equality
// exhaustively over small cubes and randomly over larger ones.
#pragma once

#include <cstdint>
#include <vector>

#include "routing/routing.hpp"
#include "topology/fault_mask.hpp"

namespace wormsim::routing {

class RoutingLut {
 public:
  /// Default tabulation budget: 4M entries = 16 MiB, i.e. up to a
  /// 2048-node network. The paper's 8-ary 3-cube (512 nodes) needs
  /// 256K entries / 1 MiB.
  static constexpr std::size_t kMaxEntries = std::size_t{1} << 22;

  /// `fn` must outlive the LUT. `max_entries` below nodes^2 selects the
  /// passthrough mode (exposed for tests; production callers use the
  /// default).
  RoutingLut(const RoutingFunction& fn, const topo::KAryNCube& topo,
             std::size_t max_entries = kMaxEntries);

  /// False when the network exceeded the tabulation budget and route()
  /// forwards to the wrapped function.
  bool tabulated() const noexcept { return !entries_.empty(); }

  /// Bit-identical replacement for fn.route(here, dst, out).
  void route(topo::NodeId here, topo::NodeId dst, RouteResult& out) const {
    if (entries_.empty()) {
      fn_->route(here, dst, out);
      return;
    }
    expand(code(here, dst), algo_, num_vcs_, out);
  }

  /// The stored code of (here, dst). Precondition: tabulated().
  RouteCode code(topo::NodeId here, topo::NodeId dst) const noexcept {
    return entries_[static_cast<std::size_t>(here) * nodes_ + dst];
  }

  Algorithm algorithm() const noexcept { return algo_; }

  /// Retabulate the table, O(table size). With a null or empty fault
  /// mask this reproduces the original routes bit-exactly (the
  /// construction-time tabulation re-runs). With faults present the
  /// table switches to BFS-shortest-path routes over the alive graph
  /// (TFAR only: every alive channel one hop closer to dst becomes a
  /// candidate, so routes bend around dead components and may leave the
  /// minimal quadrant). Throws std::invalid_argument for a non-empty
  /// mask in passthrough mode or under a deterministic algorithm.
  void rebuild(const topo::FaultMask* faults);

  /// After a fault-aware rebuild: is dst reachable from `here` over the
  /// alive graph? Healthy tables report every pair reachable.
  bool reachable(topo::NodeId here, topo::NodeId dst) const noexcept {
    if (here == dst) return true;
    if (entries_.empty()) return true;
    return code(here, dst).useful != 0;
  }

 private:
  void tabulate();

  const RoutingFunction* fn_;
  const topo::KAryNCube* topo_;
  Algorithm algo_;
  unsigned num_vcs_;
  topo::NodeId nodes_;
  std::vector<RouteCode> entries_;
};

}  // namespace wormsim::routing
