// Wall-clock accounting for one harness sweep.
//
// A sweep point is one CSV row and one run_experiment call, so
// `simulations` always equals `points` (both stay in the telemetry
// schema). The harness fills one of these per sweep so benches can print
// the engine's throughput and the speedup from `--jobs` is visible next
// to the figures it produces.
#pragma once

#include <cstdint>
#include <string>

namespace wormsim::metrics {

struct SweepStats {
  unsigned jobs = 0;              // worker count the engine actually used
  std::uint64_t points = 0;       // CSV rows produced
  std::uint64_t simulations = 0;  // run_experiment calls (== points)
  std::uint64_t sim_cycles = 0;   // simulated cycles, summed over runs
  double wall_seconds = 0.0;

  double points_per_second() const noexcept;
  /// Aggregate simulated cycles per wall second across all workers —
  /// the sweep engine's core-speed figure of merit (scales with both
  /// `jobs` and the per-simulator cycle rate).
  double cycles_per_second() const noexcept;

  /// One human line for bench stderr, e.g.
  /// "28 points (28 sims, 1.2M cycles) in 12.41 s — 2.3 points/s,
  ///  96.7k cycles/s, jobs=4".
  std::string summary() const;
};

}  // namespace wormsim::metrics
