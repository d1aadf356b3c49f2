#include "traffic/injection_process.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace wormsim::traffic {

ProcessKind parse_process(std::string_view name) {
  if (name == "exponential" || name == "poisson") {
    return ProcessKind::Exponential;
  }
  if (name == "bernoulli") return ProcessKind::Bernoulli;
  if (name == "bursty") return ProcessKind::Bursty;
  throw std::invalid_argument("unknown injection process: " +
                              std::string(name));
}

std::string_view process_name(ProcessKind kind) {
  switch (kind) {
    case ProcessKind::Exponential: return "exponential";
    case ProcessKind::Bernoulli: return "bernoulli";
    case ProcessKind::Bursty: return "bursty";
  }
  return "unknown";
}

namespace {

/// Workload::poll keeps at most 8 messages a cycle; far larger rates
/// spin the arrival loops on draws too small to advance the clock.
void check_rate(double rate) {
  if (!(rate >= 0.0 && rate <= 8.0)) {
    throw std::invalid_argument(
        "injection rate must be in [0, 8] messages/node/cycle");
  }
}

/// Cycle containing the continuous arrival time `t`, saturating to
/// kNeverPoll for times beyond the representable cycle range (tiny
/// rates draw astronomically distant arrivals).
std::uint64_t arrival_cycle(double t) {
  constexpr double kMaxCycle = 1.8e19;  // < 2^64, safe to cast
  if (!(t < kMaxCycle)) return kNeverPoll;
  return static_cast<std::uint64_t>(t);
}

}  // namespace

ExponentialProcess::ExponentialProcess(double msgs_per_cycle)
    : rate_(msgs_per_cycle) {
  check_rate(msgs_per_cycle);
}

unsigned ExponentialProcess::arrivals(std::uint64_t cycle, util::Rng& rng) {
  if (rate_ <= 0.0) return 0;
  if (next_arrival_ < 0.0) {
    next_arrival_ = static_cast<double>(cycle) + rng.exponential(rate_);
  }
  unsigned count = 0;
  const double cycle_end = static_cast<double>(cycle) + 1.0;
  while (next_arrival_ < cycle_end) {
    ++count;
    next_arrival_ += rng.exponential(rate_);
  }
  return count;
}

std::uint64_t ExponentialProcess::next_poll_hint(std::uint64_t now) const {
  if (rate_ <= 0.0) return kNeverPoll;
  if (next_arrival_ < 0.0) return now + 1;  // first draw still pending
  // After arrivals(now), next_arrival_ >= now + 1; every arrivals() call
  // strictly before its cycle returns 0 without touching the RNG.
  return std::max(arrival_cycle(next_arrival_), now + 1);
}

void ExponentialProcess::set_rate(double msgs_per_cycle) {
  check_rate(msgs_per_cycle);
  rate_ = msgs_per_cycle;
  next_arrival_ = -1.0;  // redraw with the new rate
}

BernoulliProcess::BernoulliProcess(double msgs_per_cycle)
    : rate_(msgs_per_cycle) {
  check_rate(msgs_per_cycle);
  if (msgs_per_cycle > 1.0) {
    throw std::invalid_argument("bernoulli rate must be <= 1 msg/cycle");
  }
}

unsigned BernoulliProcess::arrivals(std::uint64_t /*cycle*/, util::Rng& rng) {
  return rng.bernoulli(rate_) ? 1u : 0u;
}

void BernoulliProcess::set_rate(double msgs_per_cycle) {
  check_rate(msgs_per_cycle);
  if (msgs_per_cycle > 1.0) {
    throw std::invalid_argument("bernoulli rate must be <= 1 msg/cycle");
  }
  rate_ = msgs_per_cycle;
}

BurstyProcess::BurstyProcess(double msgs_per_cycle, Params params)
    : mean_rate_(msgs_per_cycle),
      params_(params),
      phase_rng_(params.phase_seed) {
  check_rate(msgs_per_cycle);
  if (params.duty_cycle <= 0.0 || params.duty_cycle > 1.0) {
    throw std::invalid_argument("bursty duty_cycle must be in (0, 1]");
  }
  if (params.mean_burst_cycles <= 0.0) {
    throw std::invalid_argument("bursty mean_burst_cycles must be > 0");
  }
}

unsigned BurstyProcess::arrivals(std::uint64_t cycle, util::Rng& rng) {
  if (mean_rate_ <= 0.0) return 0;
  // The ON/OFF schedule comes from phase_rng_, which Workload seeds per
  // node (independent bursts) or identically for every node
  // (synchronized application phases). Arrival times within a burst
  // always use the caller's per-node stream.
  if (!initialized_) {
    initialized_ = true;
    on_ = phase_rng_.bernoulli(params_.duty_cycle);
    const double mean = on_ ? params_.mean_burst_cycles
                            : params_.mean_burst_cycles *
                                  (1.0 - params_.duty_cycle) /
                                  params_.duty_cycle;
    phase_ends_ =
        cycle + 1 +
        static_cast<std::uint64_t>(phase_rng_.exponential(1.0 / mean));
  }
  while (cycle >= phase_ends_) {
    on_ = !on_;
    next_arrival_ = -1.0;  // redraw within the new phase
    const double mean = on_ ? params_.mean_burst_cycles
                            : params_.mean_burst_cycles *
                                  (1.0 - params_.duty_cycle) /
                                  params_.duty_cycle;
    phase_ends_ +=
        1 + static_cast<std::uint64_t>(phase_rng_.exponential(1.0 / mean));
  }
  if (!on_) return 0;

  const double rate = burst_rate();
  if (next_arrival_ < 0.0) {
    next_arrival_ = static_cast<double>(cycle) + rng.exponential(rate);
  }
  unsigned count = 0;
  const double cycle_end = static_cast<double>(cycle) + 1.0;
  while (next_arrival_ < cycle_end) {
    ++count;
    next_arrival_ += rng.exponential(rate);
  }
  return count;
}

std::uint64_t BurstyProcess::next_poll_hint(std::uint64_t now) const {
  if (mean_rate_ <= 0.0) return kNeverPoll;
  if (!initialized_) return now + 1;
  std::uint64_t hint;
  if (!on_) {
    // Idle phase: nothing until the ON transition at phase_ends_, and
    // the transition must be polled at exactly that cycle (the first
    // in-burst arrival is drawn relative to the polling cycle).
    hint = phase_ends_;
  } else if (next_arrival_ < 0.0) {
    hint = now + 1;  // in-burst arrival not yet drawn
  } else {
    hint = std::min(arrival_cycle(next_arrival_), phase_ends_);
  }
  return std::max(hint, now + 1);
}

void BurstyProcess::set_rate(double msgs_per_cycle) {
  check_rate(msgs_per_cycle);
  mean_rate_ = msgs_per_cycle;
  next_arrival_ = -1.0;
}

std::unique_ptr<InjectionProcess> make_process(
    ProcessKind kind, double msgs_per_cycle,
    const BurstyProcess::Params& bursty_params) {
  switch (kind) {
    case ProcessKind::Exponential:
      return std::make_unique<ExponentialProcess>(msgs_per_cycle);
    case ProcessKind::Bernoulli:
      return std::make_unique<BernoulliProcess>(msgs_per_cycle);
    case ProcessKind::Bursty:
      return std::make_unique<BurstyProcess>(msgs_per_cycle, bursty_params);
  }
  throw std::invalid_argument("unknown process kind");
}

}  // namespace wormsim::traffic
