// Routing functions.
//
// All routing here is minimal: a candidate always moves the message
// closer to its destination. Three algorithms are provided:
//
//  * TFAR  — True Fully Adaptive Routing [Martínez et al. ICPP'97], the
//            paper's §4.1 choice: any virtual channel of any useful
//            physical channel. Not deadlock-free on its own; pairs with
//            deadlock detection + recovery.
//  * DOR   — deterministic dimension-order routing, made deadlock-free
//            on the torus with Dally/Seitz dateline virtual-channel
//            classes (class 0 = VC 0 before the wraparound, class 1 =
//            the remaining VCs after it).
//  * Duato — Duato's deadlock-avoidance protocol: fully adaptive minimal
//            routing on the "adaptive" VCs (2..V-1) plus an escape layer
//            (VCs 0..1) that implements dateline DOR. Requires >= 3 VCs.
//
// A routing function returns an ordered candidate list (adaptive
// candidates first, escape candidates last) plus the mask of useful
// physical channels that the ALO injection-limitation mechanism needs.
// All three are static in (here, dst): a route packs into a RouteCode.
#pragma once

#include <bit>
#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "topology/kary_ncube.hpp"
#include "util/small_vector.hpp"

namespace wormsim::routing {

enum class Algorithm { TFAR, DOR, Duato };

Algorithm parse_algorithm(std::string_view name);
std::string_view algorithm_name(Algorithm a);

/// One admissible (physical channel, virtual channel set) option.
struct Candidate {
  topo::ChannelId channel = 0;
  std::uint32_t vc_mask = 0;  // usable VCs on that physical channel
  bool escape = false;        // escape-layer candidate (Duato only)
};

struct RouteResult {
  util::SmallVector<Candidate, 2 * topo::kMaxDims + 2> candidates;
  /// All physical channels that move the message closer to its
  /// destination, regardless of VC restrictions — the "useful physical
  /// output channels" the ALO mechanism inspects.
  std::uint32_t useful_phys_mask = 0;

  void clear() noexcept {
    candidates.clear();
    useful_phys_mask = 0;
  }
};

/// Every shipped algorithm's route in 4 bytes: the useful mask plus the
/// deterministic dimension-order hop (channel + dateline class).
/// expand() re-creates the exact RouteResult, in the same candidate
/// order:
///
///   * TFAR  — one candidate per set bit of the useful mask, ascending
///             channel order, all VCs usable.
///   * DOR   — the single deterministic hop with its dateline class mask.
///   * Duato — adaptive candidates as TFAR (VCs 2..V-1), then the
///             deterministic hop as the escape candidate (VC 0 or 1 by
///             dateline class).
struct RouteCode {
  std::uint16_t useful = 0;      // useful physical channel mask
  std::uint8_t det_channel = 0;  // DOR hop channel (DOR/Duato escape)
  std::uint8_t det_class = 0;    // its dateline VC class (0 or 1)
};

/// Defined inline: the cycle loop expands a code for every selection.
inline void expand(RouteCode code, Algorithm algorithm, unsigned num_vcs,
                   RouteResult& out) {
  out.clear();
  out.useful_phys_mask = code.useful;
  const std::uint32_t all_vcs = (1u << num_vcs) - 1u;
  const auto push_useful = [&](std::uint32_t vcs) {
    for (std::uint32_t m = code.useful; m != 0; m &= m - 1) {
      const auto c = static_cast<topo::ChannelId>(
          std::countr_zero(m));  // ascending channel order
      out.candidates.push_back({c, vcs, /*escape=*/false});
    }
  };
  switch (algorithm) {
    case Algorithm::TFAR:
      push_useful(all_vcs);
      break;
    case Algorithm::DOR: {
      const std::uint32_t vcs =
          code.det_class == 0 ? 0b1u : (all_vcs & ~0b1u);
      out.candidates.push_back({code.det_channel, vcs, /*escape=*/false});
      break;
    }
    case Algorithm::Duato: {
      push_useful(all_vcs & ~0b11u);
      const std::uint32_t esc_vcs = code.det_class == 0 ? 0b01u : 0b10u;
      out.candidates.push_back({code.det_channel, esc_vcs, /*escape=*/true});
      break;
    }
  }
}

/// Union of the candidate channels expand() would produce.
constexpr std::uint32_t candidate_mask(RouteCode code,
                                       Algorithm algorithm) noexcept {
  const std::uint32_t det = 1u << code.det_channel;
  switch (algorithm) {
    case Algorithm::TFAR: return code.useful;
    case Algorithm::DOR: return det;
    case Algorithm::Duato: return code.useful | det;
  }
  return 0;
}

/// Closed-form route codes on a healthy torus, for every algorithm:
/// per-node coordinates and per-ring-offset minimal directions are
/// tabulated once (O(nodes * n + k)), so code() costs O(n) adds and
/// lookups with no division. Plus wins ties, as in the routing
/// functions, which remain the reference this is tested against.
class RouteCoder {
 public:
  explicit RouteCoder(const topo::KAryNCube& topo);

  /// Precondition: here != dst.
  RouteCode code(topo::NodeId here, topo::NodeId dst) const noexcept {
    const std::uint16_t* from = &coords_[std::size_t{here} * n_];
    const std::uint16_t* to = &coords_[std::size_t{dst} * n_];
    // Branch-free over dimensions (dirs_[0] = 0 for equal coordinates):
    // which dimensions differ is data-dependent and mispredicts.
    std::uint32_t useful = 0;
    for (unsigned d = 0; d < n_; ++d) {
      int off = int{to[d]} - int{from[d]};
      off += off < 0 ? k_ : 0;
      useful |= std::uint32_t{dirs_[static_cast<unsigned>(off)]} << (2 * d);
    }
    RouteCode c;
    c.useful = static_cast<std::uint16_t>(useful);
    if (useful != 0) {
      // The DOR hop is the lowest useful channel: lowest differing
      // dimension, and Plus (the even channel) when both are minimal.
      const auto det = static_cast<topo::ChannelId>(std::countr_zero(useful));
      const unsigned d = topo::channel_dim(det);
      c.det_channel = det;
      c.det_class = topo::KAryNCube::dateline_class(from[d], to[d],
                                                    topo::channel_dir(det));
    }
    return c;
  }

 private:
  unsigned n_;
  int k_;
  std::vector<std::uint16_t> coords_;  // node-major, n per node
  std::vector<std::uint8_t> dirs_;     // ring offset -> DimRoute::dirs_mask
};

class RoutingFunction {
 public:
  virtual ~RoutingFunction() = default;

  /// Candidates for a message currently at `here` destined to `dst`
  /// (`here != dst`). `out` is cleared first.
  virtual void route(topo::NodeId here, topo::NodeId dst,
                     RouteResult& out) const = 0;

  virtual Algorithm algorithm() const noexcept = 0;
  /// True if the routing function admits cyclic channel dependencies
  /// and therefore requires a deadlock detection/recovery mechanism.
  virtual bool needs_deadlock_recovery() const noexcept = 0;
  unsigned num_vcs() const noexcept { return num_vcs_; }

 protected:
  RoutingFunction(const topo::KAryNCube& topo, unsigned num_vcs)
      : topo_(&topo), num_vcs_(num_vcs) {}
  const topo::KAryNCube& topo() const noexcept { return *topo_; }
  std::uint32_t all_vcs_mask() const noexcept {
    return (1u << num_vcs_) - 1u;
  }

 private:
  const topo::KAryNCube* topo_;
  unsigned num_vcs_;
};

std::unique_ptr<RoutingFunction> make_routing(Algorithm a,
                                              const topo::KAryNCube& topo,
                                              unsigned num_vcs);

}  // namespace wormsim::routing
