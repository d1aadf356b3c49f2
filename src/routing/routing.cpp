#include "routing/routing.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace wormsim::routing {

using topo::ChannelId;
using topo::Dir;
using topo::KAryNCube;
using topo::NodeId;

Algorithm parse_algorithm(std::string_view name) {
  if (name == "tfar") return Algorithm::TFAR;
  if (name == "dor") return Algorithm::DOR;
  if (name == "duato") return Algorithm::Duato;
  throw std::invalid_argument("unknown routing algorithm: " +
                              std::string(name));
}

std::string_view algorithm_name(Algorithm a) {
  switch (a) {
    case Algorithm::TFAR: return "tfar";
    case Algorithm::DOR: return "dor";
    case Algorithm::Duato: return "duato";
  }
  return "unknown";
}

namespace {

/// True Fully Adaptive Routing: every VC of every useful physical
/// channel is admissible.
class TfarRouting final : public RoutingFunction {
 public:
  TfarRouting(const KAryNCube& t, unsigned vcs) : RoutingFunction(t, vcs) {}

  void route(NodeId here, NodeId dst, RouteResult& out) const override {
    out.clear();
    const std::uint32_t mask = topo().useful_channels_mask(here, dst);
    out.useful_phys_mask = mask;
    const std::uint32_t vcs = all_vcs_mask();
    for (unsigned c = 0; c < topo().num_channels(); ++c) {
      if (mask & (1u << c)) {
        out.candidates.push_back(
            {static_cast<ChannelId>(c), vcs, /*escape=*/false});
      }
    }
  }

  Algorithm algorithm() const noexcept override { return Algorithm::TFAR; }
  bool needs_deadlock_recovery() const noexcept override { return true; }
};

/// Shared helper: the deterministic dimension-order hop with dateline VC
/// classes. Returns the single admissible candidate for DOR, which is
/// also Duato's escape path.
Candidate dor_candidate(const KAryNCube& t, NodeId here, NodeId dst,
                        std::uint32_t class0_mask,
                        std::uint32_t class1_mask) {
  for (unsigned d = 0; d < t.dims(); ++d) {
    const auto from = t.coord(here, d);
    const auto to = t.coord(dst, d);
    if (from == to) continue;
    const topo::DimRoute r = t.dim_route(from, to);
    // Deterministic tie-break: prefer Plus when both directions are
    // minimal (even radix, half-way destination).
    const Dir dir = (r.dirs_mask & (1u << static_cast<unsigned>(Dir::Plus)))
                        ? Dir::Plus
                        : Dir::Minus;
    const std::uint8_t cls = KAryNCube::dateline_class(from, to, dir);
    Candidate cand;
    cand.channel = topo::make_channel(d, dir);
    cand.vc_mask = cls == 0 ? class0_mask : class1_mask;
    return cand;
  }
  // here == dst is a precondition violation.
  return Candidate{};
}

/// Deterministic dimension-order routing. VC 0 forms dateline class 0;
/// the remaining VCs form class 1. Deadlock-free on the torus
/// (Dally/Seitz): within a ring, class-0 channels are only used before
/// the wraparound crossing and class-1 channels after it, and
/// dimensions are totally ordered.
class DorRouting final : public RoutingFunction {
 public:
  DorRouting(const KAryNCube& t, unsigned vcs) : RoutingFunction(t, vcs) {
    if (vcs < 2) {
      throw std::invalid_argument(
          "DOR on a torus needs >= 2 VCs for dateline classes");
    }
  }

  void route(NodeId here, NodeId dst, RouteResult& out) const override {
    out.clear();
    out.useful_phys_mask = topo().useful_channels_mask(here, dst);
    const std::uint32_t class0 = 0b1;
    const std::uint32_t class1 = all_vcs_mask() & ~class0;
    Candidate cand = dor_candidate(topo(), here, dst, class0, class1);
    cand.escape = false;
    out.candidates.push_back(cand);
  }

  Algorithm algorithm() const noexcept override { return Algorithm::DOR; }
  bool needs_deadlock_recovery() const noexcept override { return false; }
};

/// Duato's deadlock-avoidance protocol: adaptive VCs (2..V-1) on every
/// useful physical channel, escape VCs (0..1) restricted to dateline
/// DOR. The escape layer's deadlock freedom extends to the whole
/// network [Duato, IEEE TPDS Dec. 1993].
class DuatoRouting final : public RoutingFunction {
 public:
  DuatoRouting(const KAryNCube& t, unsigned vcs) : RoutingFunction(t, vcs) {
    if (vcs < 3) {
      throw std::invalid_argument(
          "Duato's protocol on a torus needs >= 3 VCs (2 escape + >= 1 "
          "adaptive)");
    }
  }

  void route(NodeId here, NodeId dst, RouteResult& out) const override {
    out.clear();
    const std::uint32_t mask = topo().useful_channels_mask(here, dst);
    out.useful_phys_mask = mask;
    const std::uint32_t adaptive = all_vcs_mask() & ~0b11u;
    for (unsigned c = 0; c < topo().num_channels(); ++c) {
      if (mask & (1u << c)) {
        out.candidates.push_back(
            {static_cast<ChannelId>(c), adaptive, /*escape=*/false});
      }
    }
    Candidate esc = dor_candidate(topo(), here, dst, 0b01, 0b10);
    esc.escape = true;
    out.candidates.push_back(esc);
  }

  Algorithm algorithm() const noexcept override { return Algorithm::Duato; }
  bool needs_deadlock_recovery() const noexcept override { return false; }
};

}  // namespace

RouteCoder::RouteCoder(const KAryNCube& topo)
    : n_(topo.dims()),
      k_(static_cast<int>(topo.radix())),
      coords_(std::size_t{topo.num_nodes()} * topo.dims()),
      dirs_(topo.radix()) {
  for (NodeId node = 0; node < topo.num_nodes(); ++node) {
    const topo::Coords c = topo.coords_of(node);
    std::copy_n(c.begin(), n_, &coords_[std::size_t{node} * n_]);
  }
  for (unsigned off = 0; off < topo.radix(); ++off) {
    dirs_[off] = topo.dim_route(0, static_cast<std::uint16_t>(off)).dirs_mask;
  }
}

std::unique_ptr<RoutingFunction> make_routing(Algorithm a,
                                              const KAryNCube& topo,
                                              unsigned num_vcs) {
  if (num_vcs < 1 || num_vcs > 32) {
    throw std::invalid_argument("num_vcs must be in [1, 32]");
  }
  switch (a) {
    case Algorithm::TFAR:
      return std::make_unique<TfarRouting>(topo, num_vcs);
    case Algorithm::DOR:
      return std::make_unique<DorRouting>(topo, num_vcs);
    case Algorithm::Duato:
      return std::make_unique<DuatoRouting>(topo, num_vcs);
  }
  throw std::invalid_argument("unknown routing algorithm");
}

}  // namespace wormsim::routing
