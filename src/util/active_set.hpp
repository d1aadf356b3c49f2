// Dense-bitmap index set for the simulator's active-set core.
//
// Tracks which members of a fixed index range [0, capacity) are
// "active" so per-cycle loops can visit only those, in ascending index
// order — the same order a dense scan would visit them, which is what
// keeps the active-set core bit-identical to the dense reference core.
//
// Costs: insert / erase / contains are O(1) bit operations; iteration
// is O(capacity / 64 + members). In the spirit of util::SmallVector this
// is deliberately minimal, allocation-free after construction/resize,
// and assert-checked rather than exception-throwing on misuse.
#pragma once

#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace wormsim::util {

class ActiveSet {
 public:
  ActiveSet() = default;
  explicit ActiveSet(std::size_t capacity) { reset(capacity); }

  /// Resize to [0, capacity) and clear all membership.
  void reset(std::size_t capacity) {
    capacity_ = capacity;
    words_.assign((capacity + 63) / 64, 0);
    count_ = 0;
  }

  std::size_t capacity() const noexcept { return capacity_; }
  std::size_t size() const noexcept { return count_; }
  bool empty() const noexcept { return count_ == 0; }

  bool contains(std::size_t i) const noexcept {
    assert(i < capacity_);
    return (words_[i >> 6] >> (i & 63)) & 1u;
  }

  /// Idempotent: inserting a member again is a no-op.
  void insert(std::size_t i) noexcept {
    assert(i < capacity_);
    std::uint64_t& w = words_[i >> 6];
    const std::uint64_t bit = std::uint64_t{1} << (i & 63);
    count_ += !(w & bit);
    w |= bit;
  }

  /// Idempotent: erasing a non-member is a no-op.
  void erase(std::size_t i) noexcept {
    assert(i < capacity_);
    std::uint64_t& w = words_[i >> 6];
    const std::uint64_t bit = std::uint64_t{1} << (i & 63);
    count_ -= !!(w & bit);
    w &= ~bit;
  }

  void clear() noexcept {
    words_.assign(words_.size(), 0);
    count_ = 0;
  }

  /// Visit every member in ascending order. The callback may erase the
  /// member being visited and may insert/erase indices in either
  /// direction; the iteration works on a snapshot of each word taken
  /// when that word is reached, so members inserted into an
  /// already-passed word (or the snapshot word itself) are simply not
  /// visited until the next call — exactly the semantics the simulator's
  /// phase loops need (activations always target a *later* phase).
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (std::size_t w = 0; w < words_.size(); ++w) {
      std::uint64_t bits = words_[w];  // snapshot
      while (bits) {
        const unsigned b = static_cast<unsigned>(std::countr_zero(bits));
        bits &= bits - 1;
        fn(w * 64 + b);
      }
    }
  }

  /// for_each whose callback also receives the member that follows the
  /// visited one (capacity() after the last), so it can prefetch that
  /// member's data. Same visits and snapshot semantics as for_each; the
  /// look-ahead is only a hint — a later word is peeked at before it is
  /// reached, so it may name a member the real visit will skip.
  template <typename Fn>
  void for_each_with_next(Fn&& fn) const {
    const std::size_t n = words_.size();
    for (std::size_t w = 0; w < n; ++w) {
      std::uint64_t bits = words_[w];  // snapshot
      while (bits) {
        const unsigned b = static_cast<unsigned>(std::countr_zero(bits));
        bits &= bits - 1;
        std::size_t next = capacity_;
        if (bits) {
          next = w * 64 + static_cast<unsigned>(std::countr_zero(bits));
        } else {
          for (std::size_t v = w + 1; v < n; ++v) {
            if (words_[v]) {
              next = v * 64 +
                     static_cast<unsigned>(std::countr_zero(words_[v]));
              break;
            }
          }
        }
        fn(w * 64 + b, next);
      }
    }
  }

  /// Membership count recomputed from the bitmap (coherence checks).
  std::size_t recount() const noexcept {
    std::size_t n = 0;
    for (const std::uint64_t w : words_) n += static_cast<std::size_t>(std::popcount(w));
    return n;
  }

 private:
  std::vector<std::uint64_t> words_;
  std::size_t capacity_ = 0;
  std::size_t count_ = 0;
};

}  // namespace wormsim::util
