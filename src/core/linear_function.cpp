#include "core/linear_function.hpp"

#include <bit>
#include <cmath>
#include <stdexcept>

namespace wormsim::core {

LinearFunctionLimiter::LinearFunctionLimiter(double alpha) : alpha_(alpha) {
  // Written to reject NaN too: every comparison with NaN is false.
  if (!(alpha >= 0.0 && alpha <= 1.0)) {
    throw std::invalid_argument("LF alpha must be in [0, 1]");
  }
}

LinearFunctionLimiter::Counts LinearFunctionLimiter::count_useful(
    const std::uint8_t* free_row, unsigned num_vcs,
    std::uint32_t useful_phys_mask) {
  Counts counts;
  for (std::uint32_t m = useful_phys_mask; m != 0; m &= m - 1) {
    const std::uint32_t free = free_row[std::countr_zero(m)];
    counts.total += num_vcs;
    counts.busy += num_vcs - static_cast<unsigned>(std::popcount(free));
  }
  return counts;
}

bool LinearFunctionLimiter::decide(const Counts& counts) const {
  if (counts.total == 0) return true;  // no useful channels: vacuous
  const auto threshold =
      static_cast<unsigned>(std::floor(alpha_ * counts.total));
  return counts.busy <= threshold;
}

bool LinearFunctionLimiter::allow(const InjectionRequest& req,
                                  const ChannelStatus& status) {
  const NodeId node = req.node;
  return decide(count_useful(status.free_row(node), status.num_vcs(),
                             req.route->useful_phys_mask));
}

}  // namespace wormsim::core
