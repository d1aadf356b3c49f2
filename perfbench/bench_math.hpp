// The benchmark's own arithmetic, kept free of simulator types so the
// self-test binary can check it in isolation.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// A percentile together with the number of samples it was taken from.
struct Percentile {
  double value = 0.0;
  std::size_t count = 0;
};

/// Percentile `q` (0..100) by linear interpolation between the closest
/// ranks (the "type 7" estimator of R and NumPy). Throws on an empty
/// sample or a q outside [0, 100].
inline Percentile percentile(std::vector<double> samples, double q) {
  if (samples.empty()) throw std::invalid_argument("percentile of no samples");
  if (!(q >= 0.0 && q <= 100.0)) {
    throw std::invalid_argument("percentile rank outside [0, 100]");
  }
  std::sort(samples.begin(), samples.end());
  const double pos =
      q / 100.0 * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return {samples[lo] + (samples[hi] - samples[lo]) * frac, samples.size()};
}

inline double median(std::vector<double> samples) {
  return percentile(std::move(samples), 50.0).value;
}

inline double mean(const std::vector<double>& samples) {
  if (samples.empty()) throw std::invalid_argument("mean of no samples");
  double sum = 0.0;
  for (const double v : samples) sum += v;
  return sum / static_cast<double>(samples.size());
}

/// Samples strictly above percentile `p`: a tail percentile is reported
/// only when at least ten samples lie beyond it.
inline std::size_t samples_beyond(const std::vector<double>& samples,
                                  double p_value) {
  return static_cast<std::size_t>(
      std::count_if(samples.begin(), samples.end(),
                    [&](double v) { return v > p_value; }));
}

/// Share of `jobs` workers kept busy over `wall_s`: the summed busy time
/// of the points divided by jobs x wall. 0 when nothing was timed.
inline double parallel_efficiency(double sum_point_wall_s, unsigned jobs,
                                  double wall_s) {
  if (jobs == 0 || !(wall_s > 0.0)) return 0.0;
  return sum_point_wall_s / (static_cast<double>(jobs) * wall_s);
}

/// Failed points over attempted points. A run that attempted nothing
/// verified nothing, so it counts as wholly failed.
inline double failed_fraction(std::uint64_t failed, std::uint64_t attempted) {
  if (attempted == 0) return 1.0;
  return static_cast<double>(std::min(failed, attempted)) /
         static_cast<double>(attempted);
}

/// 64-bit FNV-1a.
inline std::uint64_t fnv1a(std::string_view bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

inline std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

/// Points that fail verification: a digest that differs from the
/// expected one, a point present on only one side, or a failed
/// invariant check (`invariant_failed` is index-aligned with `got`).
inline std::size_t failed_points(const std::vector<std::string>& got,
                                 const std::vector<std::string>& expected,
                                 const std::vector<bool>& invariant_failed) {
  const std::size_t common = std::min(got.size(), expected.size());
  std::size_t bad = std::max(got.size(), expected.size()) - common;
  for (std::size_t i = 0; i < common; ++i) {
    const bool broken = i < invariant_failed.size() && invariant_failed[i];
    bad += got[i] != expected[i] || broken;
  }
  return bad;
}

/// Ask for `n` shards when the config has a `shards` field; returns
/// whether it did. A build without the sharded core simply runs
/// sequentially, so the benchmark compiles either way.
template <typename Config>
bool request_shards(Config& cfg, unsigned n) {
  if constexpr (requires { cfg.shards = n; }) {
    cfg.shards = n;
    return true;
  } else {
    return false;
  }
}

}  // namespace perfbench
