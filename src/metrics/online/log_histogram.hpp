// Log-bucketed (HDR-style) streaming histogram for latency distributions.
//
// Values are bucketed exactly below kSubBuckets and into kSubBuckets
// sub-buckets per power-of-two octave above that, giving a bounded
// relative error of 1/kSubBuckets (~3%) at any magnitude. All state is
// integer counts, so merging two histograms is an element-wise add:
// exactly associative and commutative, which keeps sweep telemetry
// byte-identical regardless of how work was partitioned across threads.
#pragma once

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace wormsim::metrics {

class LogHistogram {
 public:
  /// log2 of the number of sub-buckets per octave.
  static constexpr unsigned kSubBits = 5;
  static constexpr std::uint64_t kSubBuckets = 1ull << kSubBits;

  struct Bucket {
    std::uint64_t lo = 0;     ///< smallest value mapped to this bucket
    std::uint64_t hi = 0;     ///< largest value mapped to this bucket
    std::uint64_t count = 0;  ///< recorded samples in [lo, hi]
  };

  void add(std::uint64_t value, std::uint64_t count = 1) {
    const std::size_t i = bucket_index(value);
    if (bins_.size() <= i) bins_.resize(i + 1, 0);
    bins_[i] += count;
    total_ += count;
    max_ = std::max(max_, value);
  }

  /// Element-wise count merge; order of merges never changes the result.
  void merge(const LogHistogram& other) {
    if (bins_.size() < other.bins_.size()) bins_.resize(other.bins_.size(), 0);
    for (std::size_t i = 0; i < other.bins_.size(); ++i)
      bins_[i] += other.bins_[i];
    total_ += other.total_;
    max_ = std::max(max_, other.max_);
  }

  /// Zero all counts but keep bucket storage (cheap per-window reuse).
  void reset() {
    std::fill(bins_.begin(), bins_.end(), 0);
    total_ = 0;
    max_ = 0;
  }

  std::uint64_t count() const noexcept { return total_; }
  std::uint64_t max_value() const noexcept { return max_; }

  /// Value at quantile q in [0, 1]: the upper bound of the first bucket
  /// whose cumulative count reaches ceil(q * total). Integer-exact for
  /// values below kSubBuckets; within one sub-bucket otherwise.
  std::uint64_t quantile(double q) const {
    if (total_ == 0) return 0;
    double target_f = std::ceil(q * static_cast<double>(total_));
    auto target = static_cast<std::uint64_t>(target_f);
    target = std::clamp<std::uint64_t>(target, 1, total_);
    std::uint64_t cum = 0;
    for (std::size_t i = 0; i < bins_.size(); ++i) {
      cum += bins_[i];
      if (cum >= target) return std::min(bucket_high(i), max_);
    }
    return max_;
  }

  /// Visit non-empty buckets in increasing value order.
  template <typename Fn>
  void for_each_bucket(Fn&& fn) const {
    for (std::size_t i = 0; i < bins_.size(); ++i) {
      if (bins_[i] != 0)
        fn(Bucket{bucket_low(i), bucket_high(i), bins_[i]});
    }
  }

  bool operator==(const LogHistogram& other) const {
    if (total_ != other.total_ || max_ != other.max_) return false;
    const std::size_t n = std::max(bins_.size(), other.bins_.size());
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t a = i < bins_.size() ? bins_[i] : 0;
      const std::uint64_t b = i < other.bins_.size() ? other.bins_[i] : 0;
      if (a != b) return false;
    }
    return true;
  }

  static std::size_t bucket_index(std::uint64_t v) noexcept {
    if (v < kSubBuckets) return static_cast<std::size_t>(v);
    const unsigned shift =
        static_cast<unsigned>(std::bit_width(v)) - 1 - kSubBits;
    const std::uint64_t sub = v >> shift;  // in [kSubBuckets, 2*kSubBuckets)
    return static_cast<std::size_t>(shift * kSubBuckets + sub);
  }

  static std::uint64_t bucket_low(std::size_t i) noexcept {
    if (i < 2 * kSubBuckets) return i;
    const std::uint64_t shift = i / kSubBuckets - 1;
    const std::uint64_t sub = kSubBuckets + i % kSubBuckets;
    return sub << shift;
  }

  static std::uint64_t bucket_high(std::size_t i) noexcept {
    if (i < 2 * kSubBuckets) return i;
    const std::uint64_t shift = i / kSubBuckets - 1;
    const std::uint64_t sub = kSubBuckets + i % kSubBuckets;
    return ((sub + 1) << shift) - 1;
  }

 private:
  std::vector<std::uint64_t> bins_;
  std::uint64_t total_ = 0;
  std::uint64_t max_ = 0;
};

}  // namespace wormsim::metrics
