// Selection function: picks one (physical channel, VC) among the
// admissible candidates with a free VC.
//
// The paper's ALO mechanism assumes the routing algorithm "tries to
// minimize virtual channel multiplexing" (§3) so that busy VCs spread
// evenly across physical channels. The default MaxFreeVcs policy does
// exactly that: among candidate channels it prefers the one with the
// most free usable VCs. FirstFit and RoundRobin are provided for
// ablation studies of that assumption.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>

#include "routing/routing.hpp"

namespace wormsim::routing {

enum class SelectionPolicy { MaxFreeVcs, FirstFit, RoundRobin };

SelectionPolicy parse_selection(std::string_view name);
std::string_view selection_name(SelectionPolicy p);

struct Pick {
  topo::ChannelId channel = 0;
  std::uint8_t vc = 0;
  bool escape = false;
};

class Selector {
 public:
  explicit Selector(SelectionPolicy policy) : policy_(policy) {}

  /// Choose an output among `route.candidates` with at least one free
  /// usable VC. `free_row[c]` is the free-VC mask of physical channel c
  /// of the router (sim::Network::free_mask_row): bit v set iff VC v is
  /// unallocated, i.e. selectable right now. Adaptive candidates are
  /// always preferred over escape ones (Duato's protocol requirement).
  /// `rr_state` is a per-router counter the caller increments to rotate
  /// RoundRobin decisions.
  std::optional<Pick> select(const RouteResult& route,
                             const std::uint8_t* free_row,
                             std::uint32_t rr_state) const;

  SelectionPolicy policy() const noexcept { return policy_; }

 private:
  SelectionPolicy policy_;
};

}  // namespace wormsim::routing
