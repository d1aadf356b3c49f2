// A deliberately naive, cycle-accurate model of the switching core
// described in DESIGN.md §5: the oracle the Simulator is checked against
// in lock-step (tests/reference/test_reference_lockstep.cpp).
//
// Flits are materialised: every VC buffer is a std::deque of flits and
// every network link a wire queue of flits in flight. Every phase scans
// every link and node in id order every cycle, FC3D detection is
// evaluated on every visit to a blocked header, and routes come from
// the virtual RoutingFunction (or the fault LUT once a fault schedule is
// configured). There are no active sets, no route memo or head-route
// cache, no arrival buckets, no slot arena and no route codes. What it
// reuses — topology, routing, selection, limiters, workload, recovery
// queues, fault manager and LUT — each has its own tests.
//
// Links and VCs are numbered as in sim::Network (network link
// node * channels + c, then injection link num_net_links + node *
// inj_channels + i), so state can be compared slot by slot.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <vector>

#include "core/limiter.hpp"
#include "deadlock/recovery.hpp"
#include "fault/manager.hpp"
#include "routing/routing.hpp"
#include "routing/routing_lut.hpp"
#include "routing/selection.hpp"
#include "sim/simulator.hpp"
#include "traffic/workload.hpp"

namespace wormsim::reference {

using sim::Cycle;
using sim::LinkId;
using topo::NodeId;

class ReferenceModel {
 public:
  /// The message a VC is held by, identified by what the Simulator's
  /// Message record also carries (ids are not comparable: the two
  /// models allocate them differently).
  struct Tenant {
    NodeId src = 0;
    NodeId dst = 0;
    Cycle gen_time = 0;
    std::uint32_t length = 0;
    friend bool operator==(const Tenant&, const Tenant&) = default;
  };

  ReferenceModel(const topo::KAryNCube& topo, const sim::SimulatorConfig& cfg,
                 std::unique_ptr<traffic::Workload> workload);
  ReferenceModel(const ReferenceModel&) = delete;
  ReferenceModel& operator=(const ReferenceModel&) = delete;

  void step();
  traffic::Workload* workload() noexcept { return workload_.get(); }

  // --- Observation, in sim::Network's link and VC numbering ----------
  std::optional<Tenant> tenant(LinkId link, unsigned vc) const;
  /// Buffered flits plus flits on the wire toward the VC.
  unsigned occupancy(LinkId link, unsigned vc) const;
  unsigned buffered(LinkId link, unsigned vc) const;
  std::size_t queue_len(NodeId node) const { return queues_[node].size(); }
  std::size_t recovery_pending() const { return recovery_.pending_total(); }
  /// The event fields of the Simulator's ledger, counted the naive way
  /// (its scan fields stay zero). Every message counts as measured: a
  /// Simulator stepped by hand measures from cycle 0 on.
  const sim::CoreScanStats& ledger() const noexcept { return ledger_; }
  std::uint64_t credit_messages() const noexcept { return credit_messages_; }

 private:
  static constexpr std::uint32_t kNone = ~std::uint32_t{0};

  struct Flit {
    std::uint32_t msg = kNone;
    std::uint32_t index = 0;  // 0 = header, length - 1 = tail
  };
  struct Vc {
    std::uint32_t tenant = kNone;
    std::deque<Flit> buffer;
    unsigned in_flight = 0;        // flits on the wire toward this VC
    std::uint32_t feeder = kNone;  // VC whose flits enter this one
    bool awaiting_route = false;   // header listed in pending_
    Cycle last_activity = 0;       // a flit entered or left (0 once freed)
    bool probed = false;           // Figure-2 probe taken this tenancy
    std::uint32_t written = 0;     // injection VCs: flits written so far
    // Credit: flits sent toward the slot whose credit has not come
    // home, and a generation that invalidates returns after a teardown.
    unsigned credits_out = 0;
    std::uint32_t credit_epoch = 0;
  };
  struct Msg {
    NodeId src = 0;
    NodeId dst = 0;
    std::uint32_t length = 0;
    Cycle gen_time = 0;
    std::uint32_t head = kNone;  // most-downstream VC held, if any
    Cycle last_progress = 0;     // last cycle a flit moved or the worm grew
  };
  struct Queued {
    NodeId dst = 0;
    std::uint32_t length = 0;
    Cycle gen_time = 0;
  };
  struct WireFlit {
    Cycle due = 0;
    std::uint32_t vc = kNone;
    Flit flit;
  };
  struct CreditReturn {
    Cycle due = 0;
    std::uint32_t vc = kNone;
    std::uint32_t epoch = 0;
  };
  struct RouteEntry {
    std::uint32_t vc = kNone;
    Cycle arrival = 0;
  };
  /// The status register the limiters read: free VCs, and under Credit
  /// only those whose credits all came home.
  class LimiterView final : public core::ChannelStatus {
   public:
    explicit LimiterView(const ReferenceModel& m) : m_(&m) {}
    unsigned num_phys_channels() const override { return m_->chans_; }
    unsigned num_vcs() const override { return m_->vcs_per_link_; }
    const std::uint8_t* free_row(NodeId node) const override {
      m_->fill_row(node, /*limiter=*/true, row_);
      return row_.data();
    }

   private:
    const ReferenceModel* m_;
    mutable std::vector<std::uint8_t> row_;
  };

  // Indexing.
  std::uint32_t vc_index(LinkId link, unsigned vc) const;
  std::uint32_t net_vc(NodeId node, unsigned channel, unsigned vc) const {
    return (node * chans_ + channel) * vcs_per_link_ + vc;
  }
  std::uint32_t inj_vc(NodeId node, unsigned i) const {
    return net_vcs_ + node * cfg_.net.inj_channels + i;
  }
  bool is_injection(std::uint32_t vc) const { return vc >= net_vcs_; }
  /// The router whose input the VC's buffer sits at.
  NodeId vc_node(std::uint32_t vc) const;

  // Phases, in cycle order.
  void return_credits(Cycle t);
  void apply_faults(Cycle t);
  void generate(Cycle t);
  void arrive(Cycle t);
  void eject(Cycle t);
  void route(Cycle t);
  bool route_entry(const RouteEntry& e, Cycle t);
  void transmit(Cycle t);
  void inject(Cycle t);

  void enqueue(NodeId node, NodeId dst, std::uint32_t length, Cycle t);
  void enroll(std::uint32_t vc, Cycle t);
  void start_injection(NodeId node, unsigned channel, std::uint32_t msg,
                       Cycle t);
  void route_of(NodeId node, NodeId dst, routing::RouteResult& out) const;
  void fill_row(NodeId node, bool limiter,
                std::vector<std::uint8_t>& row) const;
  bool channels_frozen(NodeId node, const routing::RouteResult& route,
                       Cycle t) const;
  void drain_credit(std::uint32_t vc, Cycle t);
  void free_vc(std::uint32_t vc);
  void teardown(std::uint32_t msg);
  void absorb(std::uint32_t msg, NodeId node, Cycle t);
  bool deliverable(NodeId from, NodeId dst) const;
  void purge_undeliverable(Cycle t);
  void lost(std::uint64_t messages) {
    ledger_.lost += messages;
    ledger_.lost_measured += messages;
  }

  topo::KAryNCube topo_;
  sim::SimulatorConfig cfg_;
  unsigned chans_;
  unsigned vcs_per_link_;
  LinkId net_links_;
  std::uint32_t net_vcs_;
  bool credit_;
  bool vct_;

  std::unique_ptr<routing::RoutingFunction> routing_;
  std::unique_ptr<routing::RoutingLut> lut_;  // fault schedules only
  routing::Selector selector_;
  std::unique_ptr<core::InjectionLimiter> limiter_;
  LimiterView limiter_view_{*this};
  std::unique_ptr<traffic::Workload> workload_;
  std::unique_ptr<fault::FaultManager> faults_;
  deadlock::RecoveryManager recovery_;

  std::vector<Vc> vcs_;
  std::vector<Msg> msgs_;  // never reused: the index is the message id
  std::vector<std::deque<WireFlit>> wire_;  // per network link
  std::vector<unsigned> rr_next_;           // per network link
  std::vector<bool> link_dead_;             // per network link
  std::vector<std::uint32_t> eject_port_;   // node * eje + p -> VC
  std::vector<std::deque<Queued>> queues_;
  std::vector<Cycle> head_since_;
  std::vector<std::uint32_t> alloc_rr_;
  std::vector<RouteEntry> pending_;
  std::vector<CreditReturn> returns_;

  Cycle cycle_ = 0;
  sim::CoreScanStats ledger_;
  std::uint64_t credit_messages_ = 0;
};

}  // namespace wormsim::reference
