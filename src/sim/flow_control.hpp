// Flow control: when a flit may advance into a downstream VC buffer and
// when a header may claim one.
//
// Three schemes:
//   * Wormhole (default) — the paper's model: the sender tracks the
//     receiver's buffer through an ideal zero-latency credit loop, so
//     the gate is simply occupancy < capacity. The Simulator's transmit
//     loop tests exactly that under every scheme.
//   * Credit — explicit credit-based backpressure (the Graphite
//     buffer-management-message model): the sender holds one credit per
//     downstream buffer slot, consumes one per flit sent, and gets it
//     back `credit_return_delay` cycles after the flit leaves the
//     downstream buffer. With delay 0 the credit loop is ideal and the
//     scheme degenerates to exactly Wormhole. Injection-channel buffers
//     are node-local (no wire to cross) and stay outside the credit
//     loop. CreditFlowControl below is the scheme's whole state; the
//     Simulator owns one only under Credit and calls it behind a null
//     test.
//   * Vct — virtual cut-through: a header may claim a downstream VC
//     only if the buffer can hold the entire packet, so a blocked
//     packet always fits where it stops instead of stalling mid-link.
//     Stateless: the Simulator tests msg_length <= cap behind a flag.
//     Requires buf_flits >= the longest message (config::validate
//     enforces this for harness runs).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/limiter.hpp"
#include "sim/network.hpp"
#include "sim/types.hpp"
#include "util/fifo_arena.hpp"

namespace wormsim::sim {

enum class FlowControl : std::uint8_t { Wormhole, Credit, Vct };

FlowControl parse_flow_control(std::string_view name);
std::string_view flow_control_name(FlowControl scheme) noexcept;

struct FlowControlConfig {
  FlowControl scheme = FlowControl::Wormhole;
  /// Credit only: cycles between a flit leaving a downstream buffer and
  /// the freed slot becoming visible to the sender again (the return
  /// wire latency). 0 = ideal credit loop = Wormhole behavior.
  unsigned credit_return_delay = 2;
};

/// Buffer sanity every scheme guarantees: no VC holds more flits than
/// its capacity, counters never run backwards, and the tracked
/// occupancy covers everything actually buffered. Same reporting
/// convention as Simulator::check_active_sets.
bool check_buffers(const Network& net, std::string* why);

/// The Credit scheme's credit loop, one counter per VC slot of the
/// Network's flat per-VC index space (net-link VCs first, then one slot
/// per injection link). It is also the VC status register the limiters
/// read under Credit: a VC with outstanding credits reads as busy.
class CreditFlowControl final : public core::ChannelStatus {
 public:
  CreditFlowControl(const Network& net, unsigned return_delay)
      : net_(&net),
        chans_(net.num_phys_channels()),
        vcs_(net.num_vcs()),
        delay_(return_delay),
        in_use_(net.num_vc_slots(), 0),
        gen_(net.num_vc_slots(), 0),
        row_(chans_) {}

  unsigned num_phys_channels() const override { return chans_; }
  unsigned num_vcs() const override { return vcs_; }

  /// Free-VC row of `node` as the limiters see it: the Network's
  /// tenancy masks with each VC bit cleared whose slot still has
  /// outstanding credits — a VC is only *completely* free to the
  /// limiter's status register once its credits all came home. Net-link
  /// VC slots are laid out node by node, so the row's slots start at
  /// node * chans * vcs. Valid until the next call.
  const std::uint8_t* free_row(NodeId node) const override {
    const std::uint8_t* raw = net_->free_mask_row(node);
    const std::size_t slot_base =
        static_cast<std::size_t>(node) * chans_ * vcs_;
    for (unsigned c = 0; c < chans_; ++c) {
      std::uint8_t m = raw[c];
      const std::size_t base = slot_base + static_cast<std::size_t>(c) * vcs_;
      for (unsigned v = 0; v < vcs_; ++v) {
        if (in_use_[base + v] != 0) {
          m = static_cast<std::uint8_t>(m & ~(1u << v));
        }
      }
      row_[c] = m;
    }
    return row_.data();
  }

  /// Start-of-cycle housekeeping: credit returns coming due.
  void begin_cycle(Cycle now) {
    while (!returns_.empty(0) && returns_.front(0).due <= now) {
      const PendingReturn r = returns_.front(0);
      returns_.pop_front(0);
      // A teardown since the flit drained bumped the slot's generation
      // and already restored every credit; drop the stale return.
      if (gen_[r.slot] == r.gen) --in_use_[r.slot];
    }
  }

  /// May one more flit be sent toward VC slot `slot`? Only consulted
  /// once occupancy < cap holds: credits can veto a physically possible
  /// send (credit debt), never permit an impossible one.
  bool may_send(std::size_t slot, unsigned cap) const {
    return in_use_[slot] < cap;
  }

  /// A flit left for VC slot `slot` (it now counts in the occupancy).
  void on_flit_sent(std::size_t slot) { ++in_use_[slot]; }

  /// A flit left VC slot `slot`'s buffer (forwarded downstream or
  /// ejected): its credit starts home.
  void on_flit_drained(std::size_t slot, Cycle now) {
    ++credit_messages_;
    if (delay_ == 0) {
      --in_use_[slot];
    } else {
      // Constant delay keeps the queue sorted by construction.
      returns_.push_back(0, {now + delay_, slot, gen_[slot]});
    }
  }

  /// VC slot `slot` was forcibly emptied (deadlock absorption or fault
  /// surgery tore the tenant down, dropping buffered and in-flight
  /// flits alike): restore its full credit stock.
  void on_slot_reset(std::size_t slot) {
    in_use_[slot] = 0;
    ++gen_[slot];
  }

  /// Per-slot credit conservation against the Network's ground truth:
  /// credits consumed == occupancy + returns on the wire, and injection
  /// slots hold none. Same reporting convention as check_buffers.
  bool check(std::string* why) const;

  /// Total buffer-management messages (credit returns) ever sent.
  std::uint64_t credit_messages() const noexcept { return credit_messages_; }

 private:
  struct PendingReturn {
    Cycle due = 0;
    std::size_t slot = 0;
    std::uint32_t gen = 0;
  };

  const Network* net_;
  unsigned chans_;
  unsigned vcs_;
  unsigned delay_;
  /// Credits outstanding per slot: flits sent toward it minus returns
  /// received. >= the slot's occupancy at all times (returns lag the
  /// drain), so credits never permit a send occupancy forbids.
  std::vector<std::uint16_t> in_use_;
  /// Bumped on slot reset so in-flight returns from a torn-down tenancy
  /// cannot underflow the fresh credit count.
  std::vector<std::uint32_t> gen_;
  /// Returns on the wire, one FIFO (owner 0), sorted by due: the delay
  /// is constant, so FIFO drains.
  util::FifoArena<PendingReturn> returns_{1};
  std::uint64_t credit_messages_ = 0;
  mutable std::vector<std::uint8_t> row_;  // the row free_row returns
};

}  // namespace wormsim::sim
