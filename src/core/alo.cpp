#include "core/alo.hpp"

#include <bit>

namespace wormsim::core {

AloConditions evaluate_alo(const std::uint8_t* free_row, unsigned num_vcs,
                           std::uint32_t useful_phys_mask) {
  AloConditions cond;
  cond.all_useful_partially_free = true;
  const std::uint32_t all_vcs = (1u << num_vcs) - 1u;
  for (std::uint32_t m = useful_phys_mask; m != 0; m &= m - 1) {
    const std::uint32_t free = free_row[std::countr_zero(m)];
    if (free == 0) cond.all_useful_partially_free = false;
    if (free == all_vcs) cond.any_useful_completely_free = true;
  }
  return cond;
}

AloConditions evaluate_alo_routed(const std::uint8_t* free_row,
                                  unsigned num_vcs,
                                  const routing::RouteResult& route) {
  AloConditions cond;
  cond.all_useful_partially_free = true;
  const std::uint32_t all_vcs = (1u << num_vcs) - 1u;
  // Union of usable VCs per physical channel over all candidates.
  std::uint32_t usable[32] = {};
  for (const auto& cand : route.candidates) {
    usable[cand.channel] |= cand.vc_mask;
  }
  for (std::uint32_t m = route.useful_phys_mask; m != 0; m &= m - 1) {
    const unsigned c = static_cast<unsigned>(std::countr_zero(m));
    const std::uint32_t free = free_row[c];
    const std::uint32_t mask = usable[c] ? usable[c] : all_vcs;
    if ((free & mask) == 0) cond.all_useful_partially_free = false;
    if (free == all_vcs) cond.any_useful_completely_free = true;
  }
  return cond;
}

bool AloLimiter::allow(const InjectionRequest& req,
                       const ChannelStatus& status) {
  const NodeId node = req.node;
  return evaluate_alo_routed(status.free_row(node), status.num_vcs(),
                             *req.route)
      .allow();
}

}  // namespace wormsim::core
