#include "util/fifo_arena.hpp"

#include <gtest/gtest.h>

#include <deque>
#include <vector>

namespace wormsim::util {
namespace {

std::vector<int> contents(const FifoArena<int>& a, std::size_t q) {
  std::vector<int> out;
  a.for_each(q, [&](int v) { out.push_back(v); });
  return out;
}

TEST(FifoArena, StartsEmpty) {
  FifoArena<int> a(3);
  EXPECT_EQ(a.owners(), 3u);
  EXPECT_EQ(a.total(), 0u);
  EXPECT_EQ(a.capacity(), 0u);  // nothing allocated per owner
  for (std::size_t q = 0; q < 3; ++q) {
    EXPECT_TRUE(a.empty(q));
    EXPECT_EQ(a.size(q), 0u);
  }
}

TEST(FifoArena, InterleavedOwnersKeepTheirOwnOrder) {
  FifoArena<int> a(3);
  for (int i = 0; i < 30; ++i) {
    a.push_back(static_cast<std::size_t>(i) % 3, i);
  }
  EXPECT_EQ(a.total(), 30u);
  for (std::size_t q = 0; q < 3; ++q) {
    ASSERT_EQ(a.size(q), 10u);
    for (int k = 0; k < 10; ++k) {
      EXPECT_EQ(a.front(q), static_cast<int>(q) + 3 * k);
      a.pop_front(q);
      // Refill the drained owner 0 while popping owner 1: order within
      // each owner is unaffected by what the others do.
      if (q == 1) a.push_back(0, 100 + k);
    }
  }
  EXPECT_EQ(contents(a, 0), std::vector<int>({100, 101, 102, 103, 104, 105,
                                              106, 107, 108, 109}));
  EXPECT_EQ(a.total(), 10u);
}

TEST(FifoArena, EraseIfKeepsOrderAndReportsTheFront) {
  FifoArena<int> a(2);
  for (int i = 0; i < 10; ++i) a.push_back(0, i);
  a.push_back(1, 7);

  std::vector<int> seen;
  const bool front = a.erase_if(0, [&](int v) {
    seen.push_back(v);
    return v % 3 == 1;  // 1, 4, 7: not the front
  });
  EXPECT_FALSE(front);
  EXPECT_EQ(seen, std::vector<int>({0, 1, 2, 3, 4, 5, 6, 7, 8, 9}));
  EXPECT_EQ(contents(a, 0), std::vector<int>({0, 2, 3, 5, 6, 8, 9}));
  EXPECT_EQ(a.total(), 8u);

  // Removing the front and the tail: the front is reported and pushes
  // still append after the new tail.
  EXPECT_TRUE(a.erase_if(0, [](int v) { return v == 0 || v == 9; }));
  EXPECT_EQ(a.front(0), 2);
  a.push_back(0, 42);
  EXPECT_EQ(contents(a, 0), std::vector<int>({2, 3, 5, 6, 8, 42}));

  // Removing everything leaves a usable empty queue.
  EXPECT_TRUE(a.erase_if(0, [](int) { return true; }));
  EXPECT_TRUE(a.empty(0));
  a.push_back(0, 5);
  EXPECT_EQ(contents(a, 0), std::vector<int>({5}));
  EXPECT_EQ(contents(a, 1), std::vector<int>({7}));  // other owner intact
  EXPECT_EQ(a.total(), 2u);
}

TEST(FifoArena, FreedSlotsAreReused) {
  FifoArena<int> a(4);
  // Churn far more entries than one block through a bounded backlog:
  // popped and erased slots serve later pushes, so capacity stays at
  // one block.
  for (int round = 0; round < 50; ++round) {
    for (int i = 0; i < 100; ++i) {
      a.push_back(static_cast<std::size_t>(i) % 4, i);
    }
    while (!a.empty(0)) a.pop_front(0);
    for (std::size_t q = 1; q < 4; ++q) a.erase_if(q, [](int) { return true; });
  }
  EXPECT_EQ(a.total(), 0u);
  EXPECT_EQ(a.capacity(), FifoArena<int>::kBlockSlots);
}

TEST(FifoArena, QueuesCrossBlockBoundaries) {
  constexpr int kN = 3 * FifoArena<int>::kBlockSlots + 17;
  FifoArena<int> a(2);
  std::deque<int> ref0, ref1;
  for (int i = 0; i < kN; ++i) {
    a.push_back(static_cast<std::size_t>(i) % 2, i);
    (i % 2 ? ref1 : ref0).push_back(i);
    if (i % 5 == 0) {  // pop now and then, so slots get reused mid-run
      a.pop_front(0);
      ref0.pop_front();
    }
  }
  EXPECT_GE(a.capacity(), a.total());
  EXPECT_GT(a.capacity(), FifoArena<int>::kBlockSlots);
  EXPECT_EQ(contents(a, 0), std::vector<int>(ref0.begin(), ref0.end()));
  EXPECT_EQ(contents(a, 1), std::vector<int>(ref1.begin(), ref1.end()));
}

TEST(FifoArena, ClearEmptiesEveryOwnerAndKeepsTheBlocks) {
  FifoArena<int> a(3);
  for (int i = 0; i < 2000; ++i) {
    a.push_back(static_cast<std::size_t>(i) % 3, i);
  }
  a.pop_front(1);  // leave a free-list entry behind too

  const std::size_t cap = a.capacity();
  a.clear();
  EXPECT_EQ(a.total(), 0u);
  for (std::size_t q = 0; q < 3; ++q) EXPECT_TRUE(a.empty(q));
  EXPECT_EQ(a.capacity(), cap);  // blocks are kept for reuse
  a.push_back(1, 11);
  a.push_back(1, 12);
  EXPECT_EQ(contents(a, 1), std::vector<int>({11, 12}));
  EXPECT_EQ(a.capacity(), cap);
}

}  // namespace
}  // namespace wormsim::util
