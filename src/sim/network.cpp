#include "sim/network.hpp"

#include <algorithm>
#include <cassert>
#include <memory>
#include <stdexcept>
#include <type_traits>

namespace wormsim::sim {

void Network::check_params(const topo::KAryNCube& topo,
                           const NetworkParams& params) {
  if (params.num_vcs < 1 || params.num_vcs > 8) {
    throw std::invalid_argument("num_vcs must be in [1, 8]");
  }
  if (params.buf_flits < 1 || params.buf_flits > 255) {
    throw std::invalid_argument("buf_flits must be in [1, 255]");
  }
  if (params.inj_channels < 1 || params.eje_channels < 1) {
    throw std::invalid_argument("need >= 1 injection and ejection channel");
  }
  if (params.link_delay < 1 || params.link_delay > kMaxLinkDelay) {
    throw std::invalid_argument("link_delay out of range");
  }

  if (count_links(topo.num_nodes(), topo.num_channels(),
                  params.inj_channels) >= kNoLink) {
    throw std::invalid_argument("network too large: link ids need 29 bits");
  }
}

Network::Network(const topo::KAryNCube& topo, const NetworkParams& params)
    : topo_(&topo), params_(params) {
  check_params(topo, params);
  const NodeId nodes = topo.num_nodes();
  num_net_links_ = nodes * topo.num_channels();
  num_inj_links_ = nodes * params.inj_channels;
  net_vc_count_ = static_cast<std::size_t>(num_net_links_) * params.num_vcs;

  links_.resize(num_net_links_ + num_inj_links_);
  static_assert(std::is_trivially_destructible_v<VcState>,
                "vc_storage_ is released without destroying its VcStates");
  const std::size_t slots = net_vc_count_ + num_inj_links_;
  std::size_t space = slots * sizeof(VcState) + alignof(VcState) - 1;
  vc_storage_.reset(new std::byte[space]);
  void* first = vc_storage_.get();
  std::align(alignof(VcState), slots * sizeof(VcState), first, space);
  vcs_ = {static_cast<VcState*>(first), slots};
  std::uninitialized_value_construct(vcs_.begin(), vcs_.end());
  progress_.resize(vcs_.size());
  eject_.resize(static_cast<std::size_t>(nodes) * params.eje_channels);
  free_mask_.assign(num_net_links_,
                    static_cast<std::uint8_t>((1u << params.num_vcs) - 1u));
  vc_field_.assign(num_net_links_,
                   static_cast<std::uint8_t>((1u << params.num_vcs) - 1u));
  tenant_links_.reset(num_net_links_);
  wire_.resize(bucket_base(params.link_delay + 1));
  send_bucket_ = params.link_delay;  // cycle 0's sends arrive in cycle d

  for (NodeId node = 0; node < nodes; ++node) {
    for (unsigned c = 0; c < topo.num_channels(); ++c) {
      Link& l = links_[net_link(node, static_cast<ChannelId>(c))];
      l.src = node;
      l.src_channel = static_cast<ChannelId>(c);
      l.dst = topo.neighbor(node, static_cast<ChannelId>(c));
    }
    for (unsigned i = 0; i < params.inj_channels; ++i) {
      Link& l = links_[inj_link(node, i)];
      l.src = topo::kInvalidNode;
      l.dst = node;
    }
  }
}

int Network::find_free_eject_port(NodeId node) const noexcept {
  for (unsigned p = 0; p < params_.eje_channels; ++p) {
    if (!eject_port(node, p).busy()) return static_cast<int>(p);
  }
  return -1;
}

int Network::find_free_inj_channel(NodeId node) const noexcept {
  const VcState* row = inj_vc_row(node);
  for (unsigned i = 0; i < params_.inj_channels; ++i) {
    if (row[i].free()) return static_cast<int>(i);
  }
  return -1;
}

bool Network::quiescent() const noexcept {
  if (wire_flits_ != 0) return false;
  for (const auto& l : links_) {
    if (l.active_vc_mask != 0) return false;
  }
  for (const auto& p : eject_) {
    if (p.busy()) return false;
  }
  return true;
}

std::uint64_t Network::flits_in_network() const noexcept {
  std::uint64_t total = wire_flits_;
  for (const auto& v : vcs_) {
    if (!v.free()) total += v.buffered();
  }
  return total;
}

void Network::allocate_out_vc(VcRef from, VcRef out, MsgId msg,
                              Cycle now) noexcept {
  VcState& upstream = vc(from);
  VcState& downstream = vc(out);
  assert(downstream.free() && downstream.occupancy == 0);
  downstream.clear();
  downstream.msg = msg;
  downstream.msg_length = upstream.msg_length;  // propagate down the worm
  downstream.upstream = from;
  downstream.last_activity = now;  // fresh tenancy counts as activity
  mark_progress(out, now);
  upstream.out_kind = VcState::OutKind::Vc;
  upstream.out = out;
  set_active(out, true);
}

void Network::bind_eject(VcRef from, NodeId node, unsigned port,
                         MsgId msg) noexcept {
  VcState& upstream = vc(from);
  EjectPort& p = eject_port(node, port);
  assert(!p.busy());
  p.msg = msg;
  p.src = from;
  upstream.out_kind = VcState::OutKind::Eject;
  upstream.eject_port = static_cast<std::uint8_t>(port);
}

void Network::absorb_drop(VcRef ref) noexcept {
  // A VC's flits on the wire are its occupancy minus what it buffers;
  // a deadlocked worm has usually none left.
  const VcState& v = vc(ref);
  if (v.occupancy == v.buffered()) return;
  for (unsigned b = 0; b < wire_buckets(); ++b) {
    VcRef* const first = wire_.data() + bucket_base(b);
    VcRef* const last = first + wire_len_[b];
    const auto dropped =
        static_cast<LinkId>(last - std::remove(first, last, ref));
    wire_len_[b] -= dropped;
    wire_flits_ -= dropped;
  }
}

bool Network::wire_carries(LinkId link) const noexcept {
  for (unsigned b = 0; b < wire_buckets(); ++b) {
    for (const VcRef r : wire_bucket(b)) {
      if (r.link == link) return true;
    }
  }
  return false;
}

void Network::force_free(VcRef ref) noexcept {
  VcState& v = vc(ref);
  if (v.out_kind == VcState::OutKind::Vc && vc(v.out).msg == v.msg) {
    vc(v.out).upstream = VcRef{};
  }
  set_active(ref, false);
  v.clear();
}

}  // namespace wormsim::sim
