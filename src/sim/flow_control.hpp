// Pluggable flow-control schemes: the policy that decides when a flit
// may advance into a downstream VC buffer and when a header may claim
// one, factored out of the Simulator cycle loop.
//
// Three schemes:
//   * Wormhole (default) — the paper's model: the sender tracks the
//     receiver's buffer through an ideal zero-latency credit loop, so
//     the gate is simply occupancy < capacity. Byte-identical to the
//     pre-interface simulator in both cores.
//   * Credit — explicit credit-based backpressure (the Graphite
//     buffer-management-message model): the sender holds one credit per
//     downstream buffer slot, consumes one per flit sent, and gets it
//     back `credit_return_delay` cycles after the flit leaves the
//     downstream buffer. With delay 0 the credit loop is ideal and the
//     scheme degenerates to exactly Wormhole. Injection-channel buffers
//     are node-local (no wire to cross) and stay outside the credit
//     loop.
//   * Vct — virtual cut-through: a header may claim a downstream VC
//     only if the buffer can hold the entire packet, so a blocked
//     packet always fits where it stops instead of stalling mid-link.
//     Requires buf_flits >= the longest message (config::validate
//     enforces this for harness runs).
//
// The Simulator calls every gate and hook through this interface in
// both cores. It resolves once at construction which calls a scheme can
// skip (tracks_flits, veto_sends, gates_admission), so the stateless
// schemes pay no virtual call per flit.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/limiter.hpp"
#include "sim/types.hpp"
#include "util/fifo_arena.hpp"

namespace wormsim::sim {

class Network;

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

/// One scheme instance per Simulator, sized to its VC-slot table (the
/// Network's flat per-VC index space: net-link VCs first, then one slot
/// per injection link).
class FlowControlScheme {
 public:
  virtual ~FlowControlScheme() = default;

  virtual FlowControl kind() const noexcept = 0;
  std::string_view name() const noexcept { return flow_control_name(kind()); }

  /// Whether the scheme consumes the per-flit event stream (on_flit_*,
  /// on_slot_reset, begin_cycle). Resolved once by the Simulator at
  /// construction: schemes that return false (the stateless gates —
  /// Wormhole, Vct) never pay a virtual call on the per-flit paths,
  /// only on the send/admit decisions themselves.
  virtual bool tracks_flits() const noexcept { return false; }

  /// Whether may_send can veto a send the physical occupancy check
  /// already allows. The transmit loop pre-filters on occupancy < cap
  /// (a flit can never enter a full buffer under any scheme), so a
  /// scheme whose gate is exactly that test — Wormhole, Vct — returns
  /// false here and is never consulted per send. Resolved once by the
  /// Simulator, like tracks_flits. Default true: a custom scheme that
  /// overrides may_send is consulted unless it opts out.
  virtual bool veto_sends() const noexcept { return true; }

  /// Whether admit can reject a header's claim on a free VC. Only Vct
  /// does among the shipped schemes; Wormhole and Credit admit
  /// unconditionally and skip the per-claim virtual call. Resolved
  /// once, same contract as veto_sends.
  virtual bool gates_admission() const noexcept { return true; }

  /// Start-of-cycle housekeeping (credit returns coming due).
  virtual void begin_cycle(Cycle /*now*/) {}

  /// May one more flit be sent toward VC slot `slot`, whose buffer
  /// currently shows `occupancy` of `cap` flits? `occupancy` already
  /// counts in-flight flits. The simulator pre-filters on physical
  /// space, so this is only consulted when occupancy < cap and a flit
  /// is actually ready to move — a scheme may veto a physically
  /// possible send (credit debt), never permit an impossible one.
  virtual bool may_send(std::size_t slot, std::uint8_t occupancy,
                        unsigned cap) const = 0;

  /// May a header claim a free downstream VC for a `msg_length`-flit
  /// packet? (VCT's whole-packet admission; a free VC's buffer is
  /// always empty, so `cap` is exactly the space available.)
  virtual bool admit(std::uint32_t msg_length, unsigned cap) const = 0;

  /// A flit left for VC slot `slot` (it now counts in the slot's
  /// occupancy).
  virtual void on_flit_sent(std::size_t /*slot*/, Cycle /*now*/) {}

  /// A flit left VC slot `slot`'s buffer (forwarded downstream or
  /// ejected) — the event that eventually returns a credit.
  virtual void on_flit_drained(std::size_t /*slot*/, Cycle /*now*/) {}

  /// VC slot `slot` was forcibly emptied (deadlock absorption or fault
  /// surgery tore the tenant down, dropping buffered and in-flight
  /// flits alike).
  virtual void on_slot_reset(std::size_t /*slot*/) {}

  /// Scheme-internal invariants against the network's ground truth
  /// (same reporting convention as Simulator::check_active_sets).
  virtual bool check(const Network& net, std::string* why) const;

  /// Total buffer-management messages (credit returns) ever sent.
  virtual std::uint64_t credit_messages() const noexcept { return 0; }
};

class WormholeFlowControl final : public FlowControlScheme {
 public:
  FlowControl kind() const noexcept override { return FlowControl::Wormhole; }
  bool veto_sends() const noexcept override { return false; }
  bool gates_admission() const noexcept override { return false; }
  bool may_send(std::size_t, std::uint8_t occupancy,
                unsigned cap) const override {
    return occupancy < cap;
  }
  bool admit(std::uint32_t, unsigned) const override { return true; }
};

class CreditFlowControl final : public FlowControlScheme {
 public:
  CreditFlowControl(std::size_t num_slots, unsigned return_delay)
      : delay_(return_delay), in_use_(num_slots, 0), gen_(num_slots, 0) {}

  FlowControl kind() const noexcept override { return FlowControl::Credit; }

  bool tracks_flits() const noexcept override { return true; }
  bool veto_sends() const noexcept override { return true; }
  bool gates_admission() const noexcept override { return false; }

  void begin_cycle(Cycle now) override {
    while (!returns_.empty(0) && returns_.front(0).due <= now) {
      const PendingReturn r = returns_.front(0);
      returns_.pop_front(0);
      // A teardown since the flit drained bumped the slot's generation
      // and already restored every credit; drop the stale return.
      if (gen_[r.slot] == r.gen) --in_use_[r.slot];
    }
  }

  bool may_send(std::size_t slot, std::uint8_t, unsigned cap) const override {
    return in_use_[slot] < cap;
  }
  bool admit(std::uint32_t, unsigned) const override { return true; }

  void on_flit_sent(std::size_t slot, Cycle) override { ++in_use_[slot]; }

  void on_flit_drained(std::size_t slot, Cycle now) override {
    ++credit_messages_;
    if (delay_ == 0) {
      --in_use_[slot];
    } else {
      // Constant delay keeps the queue sorted by construction.
      returns_.push_back(0, {now + delay_, slot, gen_[slot]});
    }
  }

  void on_slot_reset(std::size_t slot) override {
    in_use_[slot] = 0;
    ++gen_[slot];
  }

  std::uint16_t in_use(std::size_t slot) const noexcept {
    return in_use_[slot];
  }

  /// Free-VC row of `node` as the limiters see it: the `chans` tenancy
  /// masks of `raw` with each VC bit cleared whose slot still has
  /// outstanding credits — a VC is only *completely* free to the
  /// limiter's status register once its credits all came home. Net-link
  /// VC slots are laid out node by node, so the row's slots start at
  /// node * chans * vcs. Writes `out` and returns it.
  const std::uint8_t* filter_free_row(const std::uint8_t* raw, NodeId node,
                                      unsigned chans, unsigned vcs,
                                      std::uint8_t* out) const noexcept {
    const std::size_t slot_base =
        static_cast<std::size_t>(node) * chans * vcs;
    for (unsigned c = 0; c < chans; ++c) {
      std::uint8_t m = raw[c];
      const std::size_t base = slot_base + static_cast<std::size_t>(c) * vcs;
      for (unsigned v = 0; v < vcs; ++v) {
        if (in_use_[base + v] != 0) {
          m = static_cast<std::uint8_t>(m & ~(1u << v));
        }
      }
      out[c] = m;
    }
    return out;
  }

  bool check(const Network& net, std::string* why) const override;

  std::uint64_t credit_messages() const noexcept override {
    return credit_messages_;
  }

 private:
  struct PendingReturn {
    Cycle due = 0;
    std::size_t slot = 0;
    std::uint32_t gen = 0;
  };

  unsigned delay_;
  /// Credits outstanding per slot: flits sent toward it minus returns
  /// received. >= the slot's occupancy at all times (returns lag the
  /// drain), which keeps transmit_flit's occupancy < cap assert safe.
  std::vector<std::uint16_t> in_use_;
  /// Bumped on slot reset so in-flight returns from a torn-down tenancy
  /// cannot underflow the fresh credit count.
  std::vector<std::uint32_t> gen_;
  /// Returns on the wire, one FIFO (owner 0), sorted by due: the delay
  /// is constant, so FIFO drains.
  util::FifoArena<PendingReturn> returns_{1};
  std::uint64_t credit_messages_ = 0;
};

class VctFlowControl final : public FlowControlScheme {
 public:
  FlowControl kind() const noexcept override { return FlowControl::Vct; }
  bool veto_sends() const noexcept override { return false; }
  bool gates_admission() const noexcept override { return true; }
  bool may_send(std::size_t, std::uint8_t occupancy,
                unsigned cap) const override {
    return occupancy < cap;
  }
  bool admit(std::uint32_t msg_length, unsigned cap) const override {
    return msg_length <= cap;
  }
};

/// The ChannelStatus a Credit scheme substitutes for the raw Network
/// register: VCs with outstanding credits read as busy
/// (CreditFlowControl::filter_free_row).
class CreditChannelStatus final : public core::ChannelStatus {
 public:
  CreditChannelStatus(const core::ChannelStatus& base,
                      const CreditFlowControl& credit)
      : base_(&base),
        credit_(&credit),
        chans_(base.num_phys_channels()),
        vcs_(base.num_vcs()),
        row_(chans_) {}
  unsigned num_phys_channels() const override { return chans_; }
  unsigned num_vcs() const override { return vcs_; }
  const std::uint8_t* free_row(NodeId node) const override {
    return credit_->filter_free_row(base_->free_row(node), node, chans_,
                                    vcs_, row_.data());
  }

 private:
  const core::ChannelStatus* base_;
  const CreditFlowControl* credit_;
  unsigned chans_;
  unsigned vcs_;
  mutable std::vector<std::uint8_t> row_;  // the row free_row returns
};

std::unique_ptr<FlowControlScheme> make_flow_control(
    const FlowControlConfig& cfg, std::size_t num_slots);

}  // namespace wormsim::sim
