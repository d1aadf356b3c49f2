// Per-phase cycle-loop self-profiler.
//
// When enabled (--profile), the simulator times each phase of a sampled
// cycle (every profile_period cycles) with a monotonic clock and
// attributes the cost here. Results are wall-clock and therefore
// nondeterministic; they are only ever exported inside the telemetry
// "perf" section, which consumers treat as volatile.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <string_view>

namespace wormsim::metrics {

enum class Phase : std::uint8_t {
  Fault = 0,
  Generate,
  Arrivals,
  Eject,
  Route,
  Transmit,
  Inject,
  kCount
};

inline constexpr std::size_t kPhaseCount =
    static_cast<std::size_t>(Phase::kCount);

constexpr std::string_view phase_name(Phase p) noexcept {
  switch (p) {
    case Phase::Fault: return "fault";
    case Phase::Generate: return "generate";
    case Phase::Arrivals: return "arrivals";
    case Phase::Eject: return "eject";
    case Phase::Route: return "route";
    case Phase::Transmit: return "transmit";
    case Phase::Inject: return "inject";
    case Phase::kCount: break;
  }
  return "?";
}

class PhaseProfiler {
 public:
  using clock = std::chrono::steady_clock;

  /// Time one phase of a sampled cycle. `fn` is the phase body.
  template <typename Fn>
  void time(Phase p, Fn&& fn) {
    const auto t0 = clock::now();
    fn();
    const auto t1 = clock::now();
    ns_[static_cast<std::size_t>(p)] += static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
  }

  void count_sample() noexcept { ++sampled_cycles_; }

  std::uint64_t sampled_cycles() const noexcept { return sampled_cycles_; }
  std::uint64_t phase_ns(Phase p) const noexcept {
    return ns_[static_cast<std::size_t>(p)];
  }
  std::uint64_t total_ns() const noexcept {
    std::uint64_t sum = 0;
    for (auto v : ns_) sum += v;
    return sum;
  }
  /// Fraction of sampled time spent in phase p (0 when nothing sampled).
  double share(Phase p) const noexcept {
    const std::uint64_t tot = total_ns();
    return tot == 0 ? 0.0
                    : static_cast<double>(phase_ns(p)) /
                          static_cast<double>(tot);
  }

 private:
  std::array<std::uint64_t, kPhaseCount> ns_{};
  std::uint64_t sampled_cycles_ = 0;
};

}  // namespace wormsim::metrics
