// Virtual-channel buffers and physical links.
//
// Layout: every physical channel of the network is a unidirectional
// Link; its VC buffers physically sit at the receiving router's input,
// while allocation status is what the sending router's "virtual channel
// status register" shows (the two are the same state — exactly as in
// hardware, where the sender tracks the receiver's buffers via credits).
#pragma once

#include <cstdint>

#include "sim/types.hpp"

namespace wormsim::sim {

/// State of one virtual-channel buffer (one tenancy = one message from
/// header acceptance to tail departure). 32-aligned, so each of the two
/// a flit's transmit touches stays within one cache line.
struct alignas(32) VcState {
  MsgId msg = kNoMsg;

  /// Length of the tenant message in flits, mirrored here at tenancy
  /// creation (start of injection / VC allocation) so the per-flit
  /// paths need no Message-pool lookup for tail detection. 16 bits here
  /// and below: messages are capped at traffic::kMaxMessageFlits.
  std::uint16_t msg_length = 0;

  /// Flits of the tenant that have entered / left this buffer. The flit
  /// at the head of the buffer has message-relative index `out_count`;
  /// the buffer currently holds `in_count - out_count` flits; the header
  /// is at the head iff out_count == 0 and the buffer is non-empty.
  std::uint16_t in_count = 0;
  std::uint16_t out_count = 0;

  /// Buffered flits plus flits in flight toward this buffer (the
  /// credit-tracked occupancy the sender checks).
  std::uint8_t occupancy = 0;

  enum class OutKind : std::uint8_t { None, Vc, Eject };
  OutKind out_kind = OutKind::None;
  VcRef out{};                 // downstream VC (OutKind::Vc)

  /// Feeder of this buffer: the upstream VC the worm occupies, or
  /// invalid when source-fed (injection VC) or fully drained upstream.
  VcRef upstream{};

  std::uint8_t eject_port = 0; // bound port (OutKind::Eject)
  bool pending_route = false;  // enrolled in the simulator's route list
  bool probed = false;         // Figure-2 probe taken for this tenancy

  /// Cycle a flit last entered or left this buffer (flow-control
  /// activity, the signal FC3D-style deadlock detection watches).
  Cycle last_activity = 0;

  std::uint32_t buffered() const noexcept { return in_count - out_count; }
  bool free() const noexcept { return msg == kNoMsg; }
  bool header_at_head() const noexcept {
    return msg != kNoMsg && out_count == 0 && in_count > 0;
  }

  void clear() noexcept { *this = VcState{}; }
};
static_assert(sizeof(VcState) == 32, "VcState must stay one half line");

/// One unidirectional physical channel (or injection channel). VC
/// storage lives in the Network's flat array, and flits on the wire in
/// its per-cycle arrival buckets; the Link carries topology endpoints
/// and arbitration state. Transmit loads this record for every active
/// link every cycle, so the fields it reads come first and the record
/// stays small.
struct Link {
  std::uint8_t rr_next = 0;          // round-robin VC arbitration pointer
  std::uint8_t active_vc_mask = 0;   // bit v set iff VC v has a tenant
  ChannelId src_channel = 0;  // output-channel index at src (network links)
  NodeId src = topo::kInvalidNode;  // kInvalidNode for injection links
  NodeId dst = topo::kInvalidNode;
};
// At scale transmit loads this record for nearly every network link
// every cycle, so its size is its per-link memory traffic. Do not
// over-align it: a std::vector of an over-aligned type allocates through
// the aligned operator new, glibc's memalign, whose freed chunk the next
// simulator's equal request cannot reuse. alignas(64) Links raised peak
// RSS that way; the 32-aligned VcState array avoids it by aligning
// plain storage by hand (Network::vcs_).
static_assert(sizeof(Link) == 12, "Link grew: keep the link array compact");

/// Round-robin order over the VCs in `mask` from `first` (< vcs) on: VCs
/// below `first` move up `vcs` bits, so set bit b, visited in ascending
/// order, is VC (b < vcs ? b : b - vcs).
inline unsigned rr_rotate(unsigned mask, unsigned first,
                          unsigned vcs) noexcept {
  const unsigned below = mask & ~(~0u << first);
  return (mask & ~below) | below << vcs;
}

/// Ejection port: consumes one flit per cycle from the bound VC.
struct EjectPort {
  MsgId msg = kNoMsg;
  VcRef src{};
  bool busy() const noexcept { return msg != kNoMsg; }
};

}  // namespace wormsim::sim
