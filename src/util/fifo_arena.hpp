// Many FIFOs, one storage pool: one queue per owner (a node), with every
// owner's entries held in a shared arena of singly linked slots.
//
// An owner costs only its {head, tail, size} triple, so a network of
// mostly empty queues pays nothing per node for storage it does not use
// (a std::deque allocates a map and a 512-byte node even when empty).
// Slots live in fixed blocks of kBlockSlots that are never moved or
// returned: growth never copies, and a queue that drains hands its slots
// to a LIFO free list that the next push anywhere reuses. Capacity is
// therefore the high-water mark of entries over all owners together.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <type_traits>
#include <vector>

namespace wormsim::util {

template <typename T>
class FifoArena {
  static_assert(std::is_trivially_copyable_v<T>,
                "FifoArena stores plain records in reused slots");

  static constexpr std::uint32_t kNil = ~std::uint32_t{0};
  struct List {
    std::uint32_t head = kNil;
    std::uint32_t tail = kNil;
    std::uint32_t size = 0;
  };
  struct Slot {
    T value;
    std::uint32_t next;
  };

 public:
  static constexpr std::uint32_t kBlockSlots = 1024;
  /// Bookkeeping per owner: the arena's only cost that scales with the
  /// number of owners rather than with the entries queued.
  static constexpr std::size_t kOwnerBytes = sizeof(List);

  explicit FifoArena(std::size_t owners) : lists_(owners) {}

  std::size_t owners() const noexcept { return lists_.size(); }
  bool empty(std::size_t q) const noexcept { return lists_[q].size == 0; }
  std::size_t size(std::size_t q) const noexcept { return lists_[q].size; }
  /// Entries queued over all owners.
  std::size_t total() const noexcept { return total_; }
  /// Slots allocated so far (whole blocks).
  std::size_t capacity() const noexcept {
    return blocks_.size() * std::size_t{kBlockSlots};
  }

  T& front(std::size_t q) noexcept {
    assert(!empty(q));
    return slot(lists_[q].head).value;
  }
  const T& front(std::size_t q) const noexcept {
    assert(!empty(q));
    return slot(lists_[q].head).value;
  }

  void push_back(std::size_t q, const T& value) {
    const std::uint32_t i = acquire();
    Slot& s = slot(i);
    s.value = value;
    s.next = kNil;
    List& l = lists_[q];
    if (l.size == 0) {
      l.head = i;
    } else {
      slot(l.tail).next = i;
    }
    l.tail = i;
    ++l.size;
    ++total_;
  }

  void pop_front(std::size_t q) noexcept {
    List& l = lists_[q];
    assert(l.size > 0);
    const std::uint32_t i = l.head;
    l.head = slot(i).next;
    if (--l.size == 0) l.tail = kNil;
    --total_;
    release(i);
  }

  /// Empty every queue, keeping the blocks for reuse.
  void clear() noexcept {
    for (List& l : lists_) l = List{};
    free_ = kNil;
    fresh_ = 0;
    total_ = 0;
  }

  /// `fn(const T&)` for each entry of `q`, front to back.
  template <typename Fn>
  void for_each(std::size_t q, Fn&& fn) const {
    for (std::uint32_t i = lists_[q].head; i != kNil; i = slot(i).next) {
      fn(slot(i).value);
    }
  }

  /// Remove every entry of `q` for which `drop(const T&)` is true. `drop`
  /// sees each entry exactly once, front to back, and the kept entries
  /// keep their order. Returns true when the front entry was removed.
  template <typename Pred>
  bool erase_if(std::size_t q, Pred&& drop) {
    List& l = lists_[q];
    bool front_removed = false;
    std::uint32_t prev = kNil;
    for (std::uint32_t i = l.head; i != kNil;) {
      const std::uint32_t next = slot(i).next;
      if (drop(static_cast<const T&>(slot(i).value))) {
        if (prev == kNil) {
          l.head = next;
          front_removed = true;
        } else {
          slot(prev).next = next;
        }
        if (l.tail == i) l.tail = prev;
        --l.size;
        --total_;
        release(i);
      } else {
        prev = i;
      }
      i = next;
    }
    return front_removed;
  }

  /// Cache hint: start loading `q`'s front entry.
  void prefetch_front(std::size_t q) const noexcept {
    const List& l = lists_[q];
    if (l.size != 0) __builtin_prefetch(&slot(l.head));
  }

 private:
  Slot& slot(std::uint32_t i) noexcept {
    return blocks_[i / kBlockSlots][i % kBlockSlots];
  }
  const Slot& slot(std::uint32_t i) const noexcept {
    return blocks_[i / kBlockSlots][i % kBlockSlots];
  }

  std::uint32_t acquire() {
    if (free_ != kNil) {
      const std::uint32_t i = free_;
      free_ = slot(i).next;
      return i;
    }
    if (fresh_ == capacity()) {
      if (capacity() >= kNil - kBlockSlots) {
        throw std::length_error("FifoArena: slot index space exhausted");
      }
      blocks_.push_back(std::make_unique_for_overwrite<Slot[]>(kBlockSlots));
    }
    return fresh_++;
  }
  void release(std::uint32_t i) noexcept {
    slot(i).next = free_;
    free_ = i;
  }

  std::vector<List> lists_;
  std::vector<std::unique_ptr<Slot[]>> blocks_;
  std::uint32_t free_ = kNil;  // head of the free list, linked by next
  std::uint32_t fresh_ = 0;    // slots [fresh_, capacity()) never used
  std::size_t total_ = 0;
};

}  // namespace wormsim::util
