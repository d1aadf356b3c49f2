// LF — Linear Function injection limitation [López, Martínez, Duato,
// Petrini: "On the Reduction of Deadlock Frequency by Limiting Message
// Injection in Wormhole Networks", PCRCW'97].
//
// Traffic is estimated locally by counting busy useful virtual output
// channels (useful = returned by the routing function for the message).
// Injection is allowed while the busy count stays at or below a
// threshold that is a linear function of the number of useful VCs:
//
//     allow  iff  busy_useful_vcs <= floor(alpha * useful_vcs)
//
// The original paper adapts the threshold to a guess of the current
// destination distribution; exposing alpha as a parameter captures the
// same linear-threshold family (see DESIGN.md, Substitutions).
#pragma once

#include "core/limiter.hpp"

namespace wormsim::core {

class LinearFunctionLimiter final : public InjectionLimiter {
 public:
  explicit LinearFunctionLimiter(double alpha);

  bool allow(const InjectionRequest& req, const ChannelStatus& status) override;
  LimiterKind kind() const noexcept override { return LimiterKind::LF; }

  double alpha() const noexcept { return alpha_; }

  /// Busy/total useful VC counts over one node's free-VC row
  /// (ChannelStatus::free_row); shared with tests.
  struct Counts {
    unsigned busy = 0;
    unsigned total = 0;
  };
  static Counts count_useful(const std::uint8_t* free_row, unsigned num_vcs,
                             std::uint32_t useful_phys_mask);

 private:
  bool decide(const Counts& counts) const;

  double alpha_;
};

}  // namespace wormsim::core
