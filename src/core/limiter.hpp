// Message injection limitation ("congestion control") mechanisms —
// the paper's subject. A limiter decides, for the message at the head
// of a node's source queue, whether it may enter the network this cycle.
//
// Mechanisms provided:
//   * None — no restriction (the paper's baseline that saturates).
//   * ALO  — "At Least One", the paper's contribution (§3): inject iff
//            every useful physical output channel has at least one free
//            VC, or some useful physical channel is completely free.
//            Threshold-free.
//   * LF   — Linear Function [López/Martínez/Duato/Petrini, PCRCW'97]:
//            inject iff the number of busy useful virtual output
//            channels stays below a threshold that is a linear function
//            of the number of useful VCs.
//   * DRIL — Dynamically Reduced Injection Limitation
//            [López/Martínez/Duato, ICPP'98]: each node freezes its own
//            busy-VC threshold when it first observes saturation; nodes
//            freeze at different times, which is the source of the
//            unfairness the paper's Figure 4 demonstrates.
#pragma once

#include <cstdint>
#include <memory>
#include <string_view>

#include "routing/routing.hpp"
#include "topology/kary_ncube.hpp"

namespace wormsim::core {

using topo::ChannelId;
using topo::NodeId;

enum class LimiterKind { None, ALO, LF, DRIL };

LimiterKind parse_limiter(std::string_view name);
std::string_view limiter_name(LimiterKind kind);

/// Read-only view of the virtual-output-channel status register,
/// implemented by the simulator's Network. free_row(node)[c] is the
/// free-VC mask of physical output channel c of `node`: bit v is set
/// iff VC v is not allocated to any message, and no bit at or above
/// num_vcs() is set. The row stays valid until the next free_row call
/// on the same object.
class ChannelStatus {
 public:
  virtual ~ChannelStatus() = default;
  virtual unsigned num_phys_channels() const = 0;
  virtual unsigned num_vcs() const = 0;
  virtual const std::uint8_t* free_row(NodeId node) const = 0;

  std::uint32_t free_vc_mask(NodeId node, ChannelId c) const {
    return free_row(node)[c];
  }
};

/// Everything a limiter may inspect when deciding on one injection.
struct InjectionRequest {
  NodeId node = 0;
  NodeId dst = 0;
  std::uint32_t length_flits = 0;
  /// Result of executing the routing function at the source node for
  /// this message (the paper's step 1).
  const routing::RouteResult* route = nullptr;
  std::uint64_t cycle = 0;
  /// Cycles the message has waited at the head of the source queue.
  std::uint64_t head_wait = 0;
  /// Current source queue length at this node.
  std::size_t queue_len = 0;
};

class InjectionLimiter {
 public:
  virtual ~InjectionLimiter() = default;

  /// May the message be injected this cycle?
  virtual bool allow(const InjectionRequest& req,
                     const ChannelStatus& status) = 0;

  /// Notification that a message was injected at `node` (for mechanisms
  /// that track per-node state).
  virtual void on_injected(NodeId /*node*/, std::uint64_t /*cycle*/) {}

  /// Reset all dynamic state (e.g. between sweep points).
  virtual void reset() {}

  virtual LimiterKind kind() const noexcept = 0;
};

struct LimiterConfig {
  LimiterKind kind = LimiterKind::None;
  /// LF: inject iff busy_useful_vcs <= floor(lf_alpha * useful_vcs).
  double lf_alpha = 0.625;
  /// DRIL: head-of-queue wait (cycles) that makes a node decide the
  /// network is entering saturation and freeze its threshold. Defaults
  /// tuned on the paper's 8-ary 3-cube so DRIL is throughput-competitive
  /// (as reported in the original ICPP'98 evaluation) while keeping its
  /// characteristic unfairness.
  std::uint64_t dril_detect_wait = 8;
  /// DRIL: safety margin subtracted from the busy-VC count sampled at
  /// freeze time.
  unsigned dril_margin = 4;
  /// DRIL: every this many cycles a frozen node relaxes its threshold by
  /// one busy VC (a frozen threshold that reaches the total VC count
  /// unfreezes the node).
  std::uint64_t dril_relax_period = 2048;
};

/// Factory; `num_nodes` lets stateful mechanisms size their tables.
std::unique_ptr<InjectionLimiter> make_limiter(const LimiterConfig& cfg,
                                               NodeId num_nodes);

}  // namespace wormsim::core
