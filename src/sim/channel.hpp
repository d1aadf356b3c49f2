// Virtual-channel buffers, physical links and their in-flight pipelines.
//
// Layout: every physical channel of the network is a unidirectional
// Link; its VC buffers physically sit at the receiving router's input,
// while allocation status is what the sending router's "virtual channel
// status register" shows (the two are the same state — exactly as in
// hardware, where the sender tracks the receiver's buffers via credits).
#pragma once

#include <cassert>
#include <cstdint>

#include "sim/types.hpp"

namespace wormsim::sim {

/// State of one virtual-channel buffer (one tenancy = one message from
/// header acceptance to tail departure).
struct VcState {
  MsgId msg = kNoMsg;

  /// Length of the tenant message in flits, mirrored here at tenancy
  /// creation (start of injection / VC allocation) so the per-cycle
  /// streaming loops need no Message-pool lookup for tail detection.
  std::uint32_t msg_length = 0;

  /// Flits of the tenant that have entered / left this buffer. The flit
  /// at the head of the buffer has message-relative index `out_count`;
  /// the buffer currently holds `in_count - out_count` flits; the header
  /// is at the head iff out_count == 0 and the buffer is non-empty.
  std::uint32_t in_count = 0;
  std::uint32_t out_count = 0;

  /// Buffered flits plus flits in flight toward this buffer (the
  /// credit-tracked occupancy the sender checks).
  std::uint8_t occupancy = 0;

  enum class OutKind : std::uint8_t { None, Vc, Eject };
  OutKind out_kind = OutKind::None;
  VcRef out{};                 // downstream VC (OutKind::Vc)
  std::uint8_t eject_port = 0; // bound port (OutKind::Eject)

  /// Feeder of this buffer: the upstream VC the worm occupies, or
  /// invalid when source-fed (injection VC) or fully drained upstream.
  VcRef upstream{};

  /// Cycle the header flit entered this buffer; routable from
  /// header_arrival + routing_delay onwards.
  Cycle header_arrival = 0;

  /// Cycle a flit last entered or left this buffer (flow-control
  /// activity, the signal FC3D-style deadlock detection watches).
  Cycle last_activity = 0;

  bool pending_route = false;  // enrolled in the simulator's route list
  bool probed = false;         // Figure-2 probe taken for this tenancy

  std::uint32_t buffered() const noexcept { return in_count - out_count; }
  bool free() const noexcept { return msg == kNoMsg; }
  bool header_at_head() const noexcept {
    return msg != kNoMsg && out_count == 0 && in_count > 0;
  }

  void clear() noexcept { *this = VcState{}; }
};

/// Fixed-delay link pipeline: at most one flit enters per cycle, so a
/// ring of `delay + 1` entries always suffices.
///
/// Entries store only the low 16 bits of their arrival cycle. An entry
/// is pushed at `now + delay` and popped once due, so while it is queued
/// it is never more than kMaxDelay cycles from the current cycle; the
/// wrap-safe signed difference in due() is therefore exact across the
/// 16-bit wrap (any distance below 2^15 would do).
class InFlightQueue {
 public:
  static constexpr unsigned kMaxDelay = 7;

  struct Entry {
    MsgId msg = kNoMsg;
    std::uint16_t arrival = 0;  // low 16 bits of the arrival cycle
    std::uint8_t vc = 0;
  };

  bool empty() const noexcept { return count_ == 0; }
  unsigned size() const noexcept { return count_; }

  void push(Cycle arrival, std::uint8_t vc, MsgId msg) noexcept {
    assert(count_ < kMaxDelay + 1);
    ring_[(head_ + count_) % (kMaxDelay + 1)] =
        Entry{msg, static_cast<std::uint16_t>(arrival), vc};
    ++count_;
  }

  /// True when the front entry has arrived by cycle `now`.
  bool due(Cycle now) const noexcept {
    if (count_ == 0) return false;
    const auto ahead = static_cast<std::int16_t>(
        static_cast<std::uint16_t>(ring_[head_].arrival -
                                   static_cast<std::uint16_t>(now)));
    assert(ahead <= static_cast<std::int16_t>(kMaxDelay));
    return ahead <= 0;
  }

  const Entry& front() const noexcept {
    assert(count_ > 0);
    return ring_[head_];
  }

  void pop() noexcept {
    assert(count_ > 0);
    head_ = (head_ + 1) % (kMaxDelay + 1);
    --count_;
  }

  /// Drop every in-flight flit belonging to `msg` (deadlock-recovery
  /// absorption); returns the number removed.
  unsigned drop_message(MsgId msg) noexcept {
    unsigned kept = 0, dropped = 0;
    Entry tmp[kMaxDelay + 1];
    while (count_ > 0) {
      if (front().msg == msg) {
        ++dropped;
      } else {
        tmp[kept++] = front();
      }
      pop();
    }
    head_ = 0;
    for (unsigned i = 0; i < kept; ++i) ring_[i] = tmp[i];
    count_ = static_cast<std::uint8_t>(kept);
    return dropped;
  }

 private:
  std::uint8_t head_ = 0;
  std::uint8_t count_ = 0;
  Entry ring_[kMaxDelay + 1];
};

/// One unidirectional physical channel (or injection channel). VC
/// storage lives in the Network's flat array; the Link carries topology
/// endpoints, arbitration state and the in-flight pipeline. Arrivals and
/// transmit load this record for every active link every cycle, so the
/// fields they read come first and the record stays small.
struct Link {
  std::uint8_t rr_next = 0;          // round-robin VC arbitration pointer
  std::uint8_t active_vc_mask = 0;   // bit v set iff VC v has a tenant
  ChannelId src_channel = 0;  // output-channel index at src (network links)
  InFlightQueue in_flight{};
  std::uint64_t flits_carried = 0;   // cumulative utilization counter
  NodeId src = topo::kInvalidNode;  // kInvalidNode for injection links
  NodeId dst = topo::kInvalidNode;
};
// At scale arrivals and transmit load this record for nearly every
// network link every cycle, so its size is their per-link memory
// traffic. The 8-byte in-flight entries keep it at 88 bytes; keep it
// within 96.
static_assert(sizeof(Link) <= 96, "Link grew: keep the link array compact");

/// Ejection port: consumes one flit per cycle from the bound VC.
struct EjectPort {
  MsgId msg = kNoMsg;
  VcRef src{};
  bool busy() const noexcept { return msg != kNoMsg; }
};

}  // namespace wormsim::sim
