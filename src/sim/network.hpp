// Network: flat state container for every link, VC buffer and ejection
// port, with the status queries the routing selector and the injection
// limiters consume. All control flow lives in Simulator.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/limiter.hpp"
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
  /// Longest supported link_delay, in cycles.
  static constexpr unsigned kMaxLinkDelay = 7;

  Network(const topo::KAryNCube& topo, const NetworkParams& params);

  /// Throws std::invalid_argument unless a Network of `params` over
  /// `topo` can be built. Allocates nothing: the constructor runs it
  /// first, and config::validate runs it without building a network.
  static void check_params(const topo::KAryNCube& topo,
                           const NetworkParams& params);

  /// Links of a network with these counts. check_params rejects kNoLink
  /// or more (ids VcRef cannot encode).
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
  const std::uint8_t* free_row(NodeId node) const override {
    return free_mask_row(node);
  }

  /// The free-VC masks: one byte per network link, rows of
  /// num_phys_channels() bytes per node (net_link layout), so
  /// free_mask_row(node)[c] is the mask of link net_link(node, c).
  /// Selection, the limiters and the Figure-2 probe all read this row;
  /// the non-virtual form serves the cycle loop.
  const std::uint8_t* free_mask_row(NodeId node) const noexcept {
    return free_mask_.data() +
           static_cast<std::size_t>(node) * topo_->num_channels();
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

  /// Every VC in the network idle, no flit on the wire (used by drain
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
  /// Open cycle `now` on the wire: deliver its due bucket in ascending
  /// link order, invoking `on_header(VcRef)` for each header flit that
  /// enters an empty buffer (so the simulator can enroll it for
  /// routing), and make now + link_delay's bucket the send bucket.
  template <typename OnNewHeader>
  void process_arrivals(Cycle now, OnNewHeader&& on_header) {
    const auto due = static_cast<unsigned>(now % (params_.link_delay + 1));
    const VcRef* const bucket = wire_.data() + bucket_base(due);
    const LinkId n = wire_len_[due];
    // Only network links have a wire (injection writes buffers
    // directly). Each entry names its VC slot, so the loads are
    // independent: start them a few entries ahead.
    const auto slot = [vcs = params_.num_vcs](VcRef r) {
      return static_cast<std::size_t>(r.link) * vcs + r.vc;
    };
    constexpr LinkId kAhead = 4;
    for (LinkId i = 0; i < n; ++i) {
      if (i + kAhead < n) __builtin_prefetch(&vcs_[slot(bucket[i + kAhead])]);
      const VcRef ref = bucket[i];
      VcState& v = vcs_[slot(ref)];
      assert(!v.free() && v.in_count < v.msg_length);
      if (v.in_count == 0) on_header(ref);
      ++v.in_count;
      v.last_activity = now;
    }
    wire_len_[due] = 0;
    wire_flits_ -= n;
    wire_now_ = now;
    send_bucket_ = due == 0 ? params_.link_delay : due - 1;  // now + d
  }
  /// The transmit phase of cycle `now` (after process_arrivals(now)):
  /// each tenant link, in ascending order, sends at most one flit, from
  /// the first VC, round robin from rr_next, in its branch-free
  /// candidate mask (tenant, occupancy < buf_flits, a feeder) whose
  /// feeder holds a flit and, if `credit` is not null, that
  /// credit->may_send allows. A non-null `after_send` is called as
  /// (to, up, freed) after each send; `freed`: the tail left, so feeder
  /// `up` is free.
  template <typename Credit, typename AfterSend>
  void transmit(Cycle now, const Credit* credit, AfterSend* after_send) {
    switch (params_.num_vcs) {  // check_params admits 1 to 8
      case 1: return transmit_kernel<1>(now, credit, after_send);
      case 2: return transmit_kernel<2>(now, credit, after_send);
      case 3: return transmit_kernel<3>(now, credit, after_send);
      case 4: return transmit_kernel<4>(now, credit, after_send);
      case 5: return transmit_kernel<5>(now, credit, after_send);
      case 6: return transmit_kernel<6>(now, credit, after_send);
      case 7: return transmit_kernel<7>(now, credit, after_send);
      case 8: return transmit_kernel<8>(now, credit, after_send);
      default: assert(false && "num_vcs outside [1, 8]");
    }
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

  /// Free one VC unconditionally (deadlock absorption).
  void force_free(VcRef ref) noexcept;

  /// Drop every flit on the wire toward `ref` (deadlock absorption).
  void absorb_drop(VcRef ref) noexcept;

  // --- The wire: every link has the same delay d, so a flit sent in
  // cycle t arrives in t + d. Bucket b of d + 1 holds, strictly
  // ascending by link, the flits due in the cycles equal to b mod d + 1.
  std::uint64_t wire_flits() const noexcept { return wire_flits_; }
  unsigned wire_buckets() const noexcept { return params_.link_delay + 1; }
  std::span<const VcRef> wire_bucket(unsigned b) const noexcept {
    return {wire_.data() + bucket_base(b), wire_len_[b]};
  }
  /// True when a flit toward `link` is on the wire (checks only: scans
  /// every bucket).
  bool wire_carries(LinkId link) const noexcept;

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
  /// pick it. The caller must have torn down every tenant, and with it
  /// every flit on the wire toward the link, before killing.
  void set_link_dead(LinkId link, bool dead) noexcept {
    assert(link < num_net_links_);
    assert(!dead ||
           (links_[link].active_vc_mask == 0 && !wire_carries(link)));
    vc_field_[link] = static_cast<std::uint8_t>(
        dead ? 0u : (1u << params_.num_vcs) - 1u);
    free_mask_[link] =
        static_cast<std::uint8_t>(~links_[link].active_vc_mask) &
        vc_field_[link];
  }
  bool link_dead(LinkId link) const noexcept {
    return link < num_net_links_ && vc_field_[link] == 0;
  }

  // --- Active sets ------------------------------------------------------
  // Maintained on every transition (O(1)); the coherence checks compare
  // them against a full rescan.

  /// Network links with at least one allocated (tenant) VC — exactly the
  /// links whose active_vc_mask is non-zero.
  const util::ActiveSet& tenant_links() const noexcept {
    return tenant_links_;
  }

 private:
  std::size_t vc_index(VcRef ref) const noexcept {
    if (ref.link < num_net_links_) {
      return static_cast<std::size_t>(ref.link) * params_.num_vcs + ref.vc;
    }
    return net_vc_count_ + (ref.link - num_net_links_);
  }
  std::size_t bucket_base(unsigned b) const noexcept {
    return static_cast<std::size_t>(b) * num_net_links_;
  }

  /// transmit with the VC count a constant. The arrays, the send bucket
  /// and its length live in locals; set_active, which a tail's send
  /// calls, touches none of them but the link records.
  template <unsigned V, typename Credit, typename AfterSend>
  void transmit_kernel(Cycle now, const Credit* credit,
                       AfterSend* after_send) {
    assert(now == wire_now_ && V == params_.num_vcs);
    Link* const links = links_.data();
    VcState* const vcs = vcs_.data();
    Cycle* const progress = progress_.data();
    const unsigned cap = params_.buf_flits;
    const LinkId net_links = num_net_links_;
    const std::size_t net_vcs = net_vc_count_;
    VcRef* const bucket = wire_.data() + bucket_base(send_bucket_);
    const LinkId first = wire_len_[send_bucket_];
    LinkId len = first;

    tenant_links_.for_each([&](std::size_t tenant) {
      const auto l = static_cast<LinkId>(tenant);
      Link& link = links[l];
      const unsigned active = link.active_vc_mask;
      // A feeder link freed earlier in this walk stays in its word's
      // snapshot of the set.
      if (active == 0) return;
      VcState* const row = vcs + static_cast<std::size_t>(l) * V;
      unsigned cand = 0;
      for (unsigned v = 0; v < V; ++v) {
        cand |= (static_cast<unsigned>(row[v].occupancy < cap) &
                 static_cast<unsigned>(row[v].upstream.valid()))
                << v;
      }
      for (unsigned m = rr_rotate(cand & active, link.rr_next, V); m != 0;
           m &= m - 1) {
        const auto bit = static_cast<unsigned>(std::countr_zero(m));
        const unsigned vc = bit < V ? bit : bit - V;
        VcState& d = row[vc];
        const VcRef up = d.upstream;
        VcState& u = vcs[up.link < net_links
                             ? static_cast<std::size_t>(up.link) * V + up.vc
                             : net_vcs + (up.link - net_links)];
        if (u.buffered() == 0) continue;
        const std::size_t slot = static_cast<std::size_t>(l) * V + vc;
        if (credit && !credit->may_send(slot, cap)) continue;
        assert(u.out_kind == VcState::OutKind::Vc && (u.out == VcRef{l, vc}));
        assert(len == 0 || bucket[len - 1].link < l);  // ascending links
        bucket[len++] = VcRef{l, vc};
        ++d.occupancy;
        progress[slot] = now;
        ++u.out_count;
        --u.occupancy;
        u.last_activity = now;
        // The tail left: free the feeder, which feeds this VC no more.
        const bool freed = u.out_count == d.msg_length;
        if (freed) {
          d.upstream = VcRef{};
          set_active(up, false);
          u.clear();
        }
        if (after_send) (*after_send)(VcRef{l, vc}, up, freed);
        link.rr_next = static_cast<std::uint8_t>(vc + 1 == V ? 0 : vc + 1);
        return;  // one flit per physical link per cycle
      }
    });
    wire_len_[send_bucket_] = len;
    wire_flits_ += len - first;
  }

  const topo::KAryNCube* topo_;
  NetworkParams params_;
  LinkId num_net_links_ = 0;
  LinkId num_inj_links_ = 0;
  std::size_t net_vc_count_ = 0;

  std::vector<Link> links_;
  /// VC storage from plain operator new, aligned to 32 by hand. A
  /// std::vector<VcState> would take glibc's memalign (aligned operator
  /// new), whose freed chunk the next simulator's equal request cannot
  /// reuse, so a process building simulators in turn grew its heap by
  /// one VC array per build (DESIGN.md, "Allocation").
  std::unique_ptr<std::byte[]> vc_storage_;
  std::span<VcState> vcs_;
  std::vector<Cycle> progress_;  // per VC slot, indexed like vcs_
  std::vector<EjectPort> eject_;

  // SoA mirrors of the link records, maintained by set_active (the sole
  // writer of active_vc_mask). Net links only.
  std::vector<std::uint8_t> free_mask_;    // ~active_vc_mask & vc_field
  std::vector<std::uint8_t> vc_field_;     // admissible VCs; 0 = dead link

  util::ActiveSet tenant_links_;   // net links with active_vc_mask != 0

  // The wire: link_delay + 1 buckets of num_net_links_ slots each.
  std::vector<VcRef> wire_;
  std::array<LinkId, kMaxLinkDelay + 1> wire_len_{};  // entries per bucket
  std::uint64_t wire_flits_ = 0;
  Cycle wire_now_ = 0;        // cycle of the last process_arrivals
  unsigned send_bucket_ = 0;  // bucket of cycle wire_now_ + link_delay
};

}  // namespace wormsim::sim
