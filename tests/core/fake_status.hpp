// Shared test double for core::ChannelStatus.
#pragma once

#include <cstdint>
#include <vector>

#include "core/limiter.hpp"

namespace wormsim::core::testing {

/// Per-node free-VC rows (ChannelStatus::free_row) set directly by
/// tests.
class FakeStatus final : public ChannelStatus {
 public:
  FakeStatus(unsigned nodes, unsigned channels, unsigned vcs)
      : channels_(channels),
        vcs_(vcs),
        masks_(static_cast<std::size_t>(nodes) * channels,
               static_cast<std::uint8_t>((1u << vcs) - 1u)) {}

  unsigned num_phys_channels() const override { return channels_; }
  unsigned num_vcs() const override { return vcs_; }
  const std::uint8_t* free_row(NodeId node) const override {
    return masks_.data() + static_cast<std::size_t>(node) * channels_;
  }

  void set_free(NodeId node, ChannelId c, std::uint32_t mask) {
    masks_[static_cast<std::size_t>(node) * channels_ + c] =
        static_cast<std::uint8_t>(mask);
  }
  /// Make every channel of `node` have exactly `free_per_channel` free
  /// VCs (the lowest ones).
  void fill_uniform(NodeId node, unsigned free_per_channel) {
    for (unsigned c = 0; c < channels_; ++c) {
      set_free(node, static_cast<ChannelId>(c),
               (1u << free_per_channel) - 1u);
    }
  }

 private:
  unsigned channels_;
  unsigned vcs_;
  std::vector<std::uint8_t> masks_;
};

/// RouteResult with the given useful channel indices, all VCs usable.
inline routing::RouteResult make_route(std::initializer_list<unsigned> chans,
                                       unsigned vcs) {
  routing::RouteResult r;
  for (unsigned c : chans) {
    r.candidates.push_back(
        {static_cast<topo::ChannelId>(c), (1u << vcs) - 1u, false});
    r.useful_phys_mask |= 1u << c;
  }
  return r;
}

inline InjectionRequest make_request(NodeId node,
                                     const routing::RouteResult& route) {
  InjectionRequest req;
  req.node = node;
  req.dst = node + 1;
  req.length_flits = 16;
  req.route = &route;
  return req;
}

}  // namespace wormsim::core::testing
