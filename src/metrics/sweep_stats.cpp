#include "metrics/sweep_stats.hpp"

#include <cstdio>

namespace wormsim::metrics {

double SweepStats::points_per_second() const noexcept {
  return wall_seconds > 0.0 ? static_cast<double>(points) / wall_seconds
                            : 0.0;
}

double SweepStats::cycles_per_second() const noexcept {
  return wall_seconds > 0.0
             ? static_cast<double>(sim_cycles) / wall_seconds
             : 0.0;
}

std::string SweepStats::summary() const {
  char buf[200];
  std::snprintf(buf, sizeof(buf),
                "%llu points (%llu sims, %.1fM cycles) in %.2f s — "
                "%.2f points/s, %.0fk cycles/s, jobs=%u",
                static_cast<unsigned long long>(points),
                static_cast<unsigned long long>(simulations),
                static_cast<double>(sim_cycles) / 1e6, wall_seconds,
                points_per_second(), cycles_per_second() / 1e3, jobs);
  return buf;
}

}  // namespace wormsim::metrics
