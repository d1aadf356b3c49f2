// Network: flat state container for every link, VC buffer and ejection
// port, with the status queries the routing selector and the injection
// limiters consume. All control flow lives in Simulator.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <vector>

#include "core/limiter.hpp"
#include "routing/selection.hpp"
#include "sim/channel.hpp"
#include "sim/types.hpp"
#include "topology/kary_ncube.hpp"
#include "util/active_set.hpp"

namespace wormsim::sim {

struct NetworkParams {
  unsigned num_vcs = 3;       // virtual channels per physical channel
  unsigned buf_flits = 4;     // per-VC buffer depth
  unsigned inj_channels = 4;  // injection channels per node
  unsigned eje_channels = 4;  // ejection channels per node
  unsigned link_delay = 2;    // crossbar + channel cycles per hop
};

class Network final : public core::ChannelStatus {
 public:
  Network(const topo::KAryNCube& topo, const NetworkParams& params);

  /// Links of a network with these counts. The constructor rejects
  /// kNoLink or more (ids VcRef cannot encode) before allocating.
  static std::uint64_t count_links(std::uint64_t nodes, unsigned channels,
                                   unsigned inj_channels) noexcept {
    return nodes * (std::uint64_t{channels} + inj_channels);
  }

  // --- Identity / indexing -------------------------------------------
  const topo::KAryNCube& topology() const noexcept { return *topo_; }
  const NetworkParams& params() const noexcept { return params_; }

  LinkId num_net_links() const noexcept { return num_net_links_; }
  LinkId num_inj_links() const noexcept { return num_inj_links_; }
  LinkId num_links() const noexcept { return num_net_links_ + num_inj_links_; }

  LinkId net_link(NodeId node, ChannelId out_channel) const noexcept {
    return node * topo_->num_channels() + out_channel;
  }
  LinkId inj_link(NodeId node, unsigned channel) const noexcept {
    return num_net_links_ + node * params_.inj_channels +
           static_cast<LinkId>(channel);
  }
  bool is_injection(LinkId link) const noexcept {
    return link >= num_net_links_;
  }
  /// VCs on a link: params.num_vcs for network links, 1 for injection.
  unsigned vcs_on(LinkId link) const noexcept {
    return is_injection(link) ? 1u : params_.num_vcs;
  }

  Link& link(LinkId id) noexcept { return links_[id]; }
  const Link& link(LinkId id) const noexcept { return links_[id]; }

  /// Dense [0, num_vc_slots()) index of a VC (net-link VCs first, then
  /// one slot per injection link) — key for per-VC side tables like the
  /// flow-control schemes' credit counters.
  std::size_t vc_flat_index(VcRef ref) const noexcept { return vc_index(ref); }
  std::size_t num_vc_slots() const noexcept { return vcs_.size(); }

  VcState& vc(VcRef ref) noexcept { return vcs_[vc_index(ref)]; }
  const VcState& vc(VcRef ref) const noexcept { return vcs_[vc_index(ref)]; }

  EjectPort& eject_port(NodeId node, unsigned port) noexcept {
    return eject_[node * params_.eje_channels + port];
  }
  const EjectPort& eject_port(NodeId node, unsigned port) const noexcept {
    return eject_[node * params_.eje_channels + port];
  }

  // --- Status queries --------------------------------------------------
  // core::ChannelStatus: the per-node virtual output channel register.
  unsigned num_phys_channels() const override { return topo_->num_channels(); }
  unsigned num_vcs() const override { return params_.num_vcs; }
  std::uint32_t free_vc_mask(NodeId node, ChannelId c) const override;

  /// SoA view of the free-VC masks: one byte per network link, rows of
  /// num_phys_channels() bytes per node (net_link layout). free_row[c]
  /// == free_vc_mask(node, c). Lets the cycle loop evaluate selection
  /// and the ALO/LF/DRIL rules without virtual ChannelStatus reads.
  const std::uint8_t* free_mask_row(NodeId node) const noexcept {
    return free_mask_.data() +
           static_cast<std::size_t>(node) * topo_->num_channels();
  }

  /// Contiguous VcState row of one *network* link (vcs_on(link) slots).
  VcState* vc_row(LinkId link) noexcept {
    assert(link < num_net_links_);
    return vcs_.data() + static_cast<std::size_t>(link) * params_.num_vcs;
  }

  /// Contiguous VcState row of one node's injection-channel VCs
  /// (params.inj_channels slots — injection links are laid out per node
  /// after all network-link VCs).
  VcState* inj_vc_row(NodeId node) noexcept {
    return vcs_.data() + net_vc_count_ +
           static_cast<std::size_t>(node) * params_.inj_channels;
  }
  const VcState* inj_vc_row(NodeId node) const noexcept {
    return vcs_.data() + net_vc_count_ +
           static_cast<std::size_t>(node) * params_.inj_channels;
  }

  /// Index of a free ejection port at `node`, or -1.
  int find_free_eject_port(NodeId node) const noexcept;
  /// Index of an injection link at `node` whose VC is free, or -1.
  int find_free_inj_channel(NodeId node) const noexcept;

  /// Every VC in the network idle, every pipeline empty (used by drain
  /// checks and tests).
  bool quiescent() const noexcept;

  /// Total flits currently buffered plus in flight (invariant checks).
  std::uint64_t flits_in_network() const noexcept;

  // --- State mutation helpers ------------------------------------------
  /// Claim downstream VC `out` for `msg`, linking it after `from`.
  void allocate_out_vc(VcRef from, VcRef out, MsgId msg, Cycle now) noexcept;
  /// Bind the worm ending at `from` to ejection port `port` of its
  /// destination node.
  void bind_eject(VcRef from, NodeId node, unsigned port, MsgId msg) noexcept;
  /// Move one flit from `u` into VC `vc` of link `id` (`l` = link(id),
  /// `d` = its VcState, fed by `u`). The caller has checked
  /// transmissibility and passes the records it holds, so no address
  /// here depends on `u`. Returns true if the tail left `u` (the VC was
  /// freed). Inline: the hottest Network mutator when saturated.
  bool transmit_flit(Link& l, LinkId id, std::uint8_t vc, VcState& d,
                     VcState& u, Cycle now) noexcept {
    assert(u.buffered() > 0 && u.out_kind == VcState::OutKind::Vc);
    assert(d.occupancy < params_.buf_flits);
    l.in_flight.push(now + params_.link_delay, vc);
    arrival_links_.insert(id);
    ++l.flits_carried;
    ++d.occupancy;
    progress_[static_cast<std::size_t>(id) * params_.num_vcs + vc] = now;
    ++u.out_count;
    --u.occupancy;
    u.last_activity = now;

    if (u.out_count == d.msg_length) {
      // Tail left: free the upstream VC; this one will receive no more
      // flits from it.
      const VcRef from = d.upstream;
      d.upstream = VcRef{};
      set_active(from, false);
      u.clear();
      return true;
    }
    return false;
  }
  /// Deliver arrived in-flight flits for `link` up to cycle `now`,
  /// invoking `on_header(VcRef)` for each header flit that enters an
  /// empty buffer (so the simulator can enroll it for routing).
  template <typename OnNewHeader>
  void process_arrivals(LinkId link_id, Cycle now, OnNewHeader&& on_header) {
    // Only network links have in-flight pipelines (injection writes
    // buffers directly), so the VC row lookup can be hoisted.
    assert(link_id < num_net_links_);
    Link& l = links_[link_id];
    VcState* const row =
        vcs_.data() + static_cast<std::size_t>(link_id) * params_.num_vcs;
    while (l.in_flight.due(now)) {
      const InFlightQueue::Entry entry = l.in_flight.front();
      VcState& v = row[entry.vc];
      assert(!v.free() && v.in_count < v.msg_length);
      if (v.in_count == 0) on_header(VcRef{link_id, entry.vc});
      ++v.in_count;
      v.last_activity = now;
      l.in_flight.pop();
    }
    if (l.in_flight.empty()) arrival_links_.erase(link_id);
  }

  // --- FC3D progress: per-VC-slot stamps of the last cycle a flit of
  // the tenant moved or the worm grew. The maximum over a worm's chain
  // is exactly its last progress cycle (DESIGN.md, "Flit-path state").
  void mark_progress(VcRef ref, Cycle now) noexcept {
    progress_[vc_index(ref)] = now;
  }
  Cycle progress(VcRef ref) const noexcept { return progress_[vc_index(ref)]; }
  /// Last progress of the worm whose most-downstream VC is `head`.
  Cycle worm_progress(VcRef head) const noexcept {
    Cycle last = 0;
    for (VcRef cur = head; cur.valid(); cur = vc(cur).upstream) {
      last = std::max(last, progress(cur));
    }
    return last;
  }

  /// Cache hint for the per-cycle loops over the link sets: start
  /// loading `link`'s record and VC row while an earlier link is being
  /// processed. At scale these arrays outgrow the private caches, and
  /// the sets' ascending-with-gaps visit order defeats the hardware
  /// prefetchers.
  void prefetch_link(LinkId link) const noexcept {
    __builtin_prefetch(&links_[link]);
    const VcState* row =
        vcs_.data() + static_cast<std::size_t>(link) * params_.num_vcs;
    for (unsigned v = 0; v < params_.num_vcs; ++v) __builtin_prefetch(row + v);
  }

  /// Free one VC unconditionally (deadlock absorption).
  void force_free(VcRef ref) noexcept;

  /// Drop every in-flight flit toward `ref` (deadlock absorption),
  /// keeping the pending-arrival set coherent.
  void absorb_drop(VcRef ref) noexcept;

  /// Mark/unmark tenancy in the link's active mask. The SOLE writer of
  /// active_vc_mask, which is what keeps the SoA free-mask mirror
  /// coherent. Inline: called on every tenancy transition.
  void set_active(VcRef ref, bool active) noexcept {
    Link& l = links_[ref.link];
    if (active) {
      l.active_vc_mask |= static_cast<std::uint8_t>(1u << ref.vc);
    } else {
      l.active_vc_mask &= static_cast<std::uint8_t>(~(1u << ref.vc));
    }
    if (ref.link < num_net_links_) {
      free_mask_[ref.link] =
          static_cast<std::uint8_t>(~l.active_vc_mask) & vc_field_[ref.link];
      if (l.active_vc_mask != 0) {
        tenant_links_.insert(ref.link);
      } else {
        tenant_links_.erase(ref.link);
      }
    }
  }

  // --- Dead links (fault injection) ------------------------------------
  /// Zero / restore a network link's admissible-VC field. A dead link's
  /// free mask reads 0, so no selection, limiter or injection scan can
  /// pick it. The caller must have torn down every tenant and drained
  /// the in-flight pipeline before killing.
  void set_link_dead(LinkId link, bool dead) noexcept {
    assert(link < num_net_links_);
    assert(!dead || (links_[link].active_vc_mask == 0 &&
                     links_[link].in_flight.empty()));
    vc_field_[link] =
        dead ? 0 : static_cast<std::uint8_t>((1u << params_.num_vcs) - 1u);
    free_mask_[link] =
        static_cast<std::uint8_t>(~links_[link].active_vc_mask) &
        vc_field_[link];
  }
  bool link_dead(LinkId link) const noexcept {
    return link < num_net_links_ && vc_field_[link] == 0;
  }

  // --- Active sets ------------------------------------------------------
  // Maintained unconditionally (transitions are O(1)); the active-set
  // core iterates them, the dense core ignores them, and the coherence
  // checks compare them against a full rescan in either mode.

  /// Network links with at least one allocated (tenant) VC — exactly the
  /// links whose active_vc_mask is non-zero.
  const util::ActiveSet& tenant_links() const noexcept {
    return tenant_links_;
  }
  /// Network links with at least one flit in their in-flight pipeline.
  const util::ActiveSet& arrival_links() const noexcept {
    return arrival_links_;
  }

 private:
  std::size_t vc_index(VcRef ref) const noexcept {
    if (ref.link < num_net_links_) {
      return static_cast<std::size_t>(ref.link) * params_.num_vcs + ref.vc;
    }
    return net_vc_count_ + (ref.link - num_net_links_);
  }

  const topo::KAryNCube* topo_;
  NetworkParams params_;
  LinkId num_net_links_ = 0;
  LinkId num_inj_links_ = 0;
  std::size_t net_vc_count_ = 0;

  std::vector<Link> links_;
  std::vector<VcState> vcs_;
  std::vector<Cycle> progress_;  // per VC slot, indexed like vcs_
  std::vector<EjectPort> eject_;

  // SoA mirrors for the cycle-loop fast path, maintained by set_active
  // (the sole writer of active_vc_mask). Net links only.
  std::vector<std::uint8_t> free_mask_;    // ~active_vc_mask & vc_field
  std::vector<std::uint8_t> vc_field_;     // admissible VCs; 0 = dead link

  util::ActiveSet tenant_links_;   // net links with active_vc_mask != 0
  util::ActiveSet arrival_links_;  // net links with non-empty in_flight
};

/// Adapter giving the routing Selector a per-node view of free output
/// VCs (stack-allocated in the allocation loop).
class NodeFreeVcView final : public routing::FreeVcView {
 public:
  NodeFreeVcView(const Network& net, NodeId node) noexcept
      : net_(&net), node_(node) {}
  std::uint32_t free_vc_mask(ChannelId channel) const override {
    return net_->free_vc_mask(node_, channel);
  }

 private:
  const Network* net_;
  NodeId node_;
};

}  // namespace wormsim::sim
