// Shared simulator identifiers.
#pragma once

#include <cstdint>

#include "topology/kary_ncube.hpp"

namespace wormsim::sim {

using topo::ChannelId;
using topo::NodeId;
using Cycle = std::uint64_t;
using MsgId = std::uint32_t;
using LinkId = std::uint32_t;

inline constexpr MsgId kNoMsg = ~MsgId{0};
/// VcRef packs a link id into 29 bits; the all-ones value means "none",
/// so a network holds fewer than kNoLink links (Network enforces it).
inline constexpr LinkId kNoLink = (LinkId{1} << 29) - 1;

/// Reference to one virtual-channel buffer anywhere in the system
/// (network input VC or injection VC; the link index space distinguishes
/// them — see Network). Four bytes: VcState holds two of them.
struct VcRef {
  LinkId link : 29;
  LinkId vc : 3;

  constexpr VcRef() noexcept : link(kNoLink), vc(0) {}
  constexpr VcRef(LinkId l, unsigned v) noexcept
      : link(l & kNoLink), vc(v & 7u) {}

  bool valid() const noexcept { return link != kNoLink; }
  friend bool operator==(const VcRef& a, const VcRef& b) noexcept {
    return a.link == b.link && a.vc == b.vc;
  }
};
static_assert(sizeof(VcRef) == 4);

}  // namespace wormsim::sim
