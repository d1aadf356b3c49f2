// ActiveSet: membership bookkeeping, iteration order, and the snapshot
// semantics the simulator's phase loops rely on.
#include <gtest/gtest.h>

#include <vector>

#include "util/active_set.hpp"

namespace wormsim::util {
namespace {

TEST(ActiveSet, StartsEmpty) {
  ActiveSet s(100);
  EXPECT_EQ(s.capacity(), 100u);
  EXPECT_EQ(s.size(), 0u);
  EXPECT_TRUE(s.empty());
  for (std::size_t i = 0; i < 100; ++i) EXPECT_FALSE(s.contains(i));
}

TEST(ActiveSet, InsertEraseContains) {
  ActiveSet s(130);  // spans three words
  s.insert(0);
  s.insert(63);
  s.insert(64);
  s.insert(129);
  EXPECT_EQ(s.size(), 4u);
  EXPECT_TRUE(s.contains(0));
  EXPECT_TRUE(s.contains(63));
  EXPECT_TRUE(s.contains(64));
  EXPECT_TRUE(s.contains(129));
  EXPECT_FALSE(s.contains(1));
  EXPECT_FALSE(s.contains(65));

  s.erase(63);
  EXPECT_EQ(s.size(), 3u);
  EXPECT_FALSE(s.contains(63));
}

TEST(ActiveSet, InsertAndEraseAreIdempotent) {
  ActiveSet s(64);
  s.insert(7);
  s.insert(7);
  s.insert(7);
  EXPECT_EQ(s.size(), 1u);
  s.erase(7);
  s.erase(7);
  EXPECT_EQ(s.size(), 0u);
  s.erase(13);  // never inserted
  EXPECT_EQ(s.size(), 0u);
}

TEST(ActiveSet, ForEachVisitsAscending) {
  ActiveSet s(200);
  const std::vector<std::size_t> members = {5, 0, 199, 64, 63, 128, 100};
  for (const auto m : members) s.insert(m);
  std::vector<std::size_t> visited;
  s.for_each([&](std::size_t i) { visited.push_back(i); });
  const std::vector<std::size_t> expected = {0, 5, 63, 64, 100, 128, 199};
  EXPECT_EQ(visited, expected);
}

TEST(ActiveSet, CallbackMayEraseCurrentMember) {
  ActiveSet s(128);
  for (std::size_t i = 0; i < 128; i += 3) s.insert(i);
  std::vector<std::size_t> visited;
  s.for_each([&](std::size_t i) {
    visited.push_back(i);
    s.erase(i);  // lazy retirement, as the phase loops do
  });
  EXPECT_EQ(visited.size(), 43u);
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.recount(), 0u);
}

TEST(ActiveSet, InsertIntoSnapshotWordIsDeferredToNextPass) {
  ActiveSet s(64);  // single word: every insert hits the snapshot word
  s.insert(10);
  std::vector<std::size_t> first_pass;
  s.for_each([&](std::size_t i) {
    first_pass.push_back(i);
    if (i == 10) s.insert(20);  // must not be visited this pass
  });
  EXPECT_EQ(first_pass, (std::vector<std::size_t>{10}));
  std::vector<std::size_t> second_pass;
  s.for_each([&](std::size_t i) { second_pass.push_back(i); });
  EXPECT_EQ(second_pass, (std::vector<std::size_t>{10, 20}));
}

TEST(ActiveSet, InsertIntoLaterWordIsVisitedSamePass) {
  ActiveSet s(256);
  s.insert(3);
  std::vector<std::size_t> visited;
  s.for_each([&](std::size_t i) {
    visited.push_back(i);
    if (i == 3) s.insert(200);  // word 3: still ahead of the cursor
  });
  EXPECT_EQ(visited, (std::vector<std::size_t>{3, 200}));
}

TEST(ActiveSet, ForEachWithNextNamesTheFollowingMember) {
  ActiveSet s(400);
  const std::vector<std::size_t> members = {0, 5, 63, 64, 200, 399};
  for (const std::size_t i : members) s.insert(i);
  std::vector<std::size_t> seen, nexts;
  s.for_each_with_next([&](std::size_t i, std::size_t next) {
    seen.push_back(i);
    nexts.push_back(next);
  });
  EXPECT_EQ(seen, members);
  // The successor, across empty words too; capacity() after the last.
  EXPECT_EQ(nexts, (std::vector<std::size_t>{5, 63, 64, 200, 399, 400}));
}

TEST(ActiveSet, ForEachWithNextVisitsLikeForEachUnderMutation) {
  // Same callback mutations (erase self, erase a later member, insert a
  // later one) must produce the same visit sequence in both walks.
  const auto walk = [](bool with_next) {
    ActiveSet s(300);
    for (const std::size_t i : {3u, 10u, 70u, 130u, 250u}) s.insert(i);
    std::vector<std::size_t> seen;
    const auto body = [&](std::size_t i) {
      seen.push_back(i);
      s.erase(i);
      if (i == 10) s.erase(130);
      if (i == 70) s.insert(260);
    };
    if (with_next) {
      s.for_each_with_next([&](std::size_t i, std::size_t) { body(i); });
    } else {
      s.for_each(body);
    }
    return seen;
  };
  EXPECT_EQ(walk(true), walk(false));
  EXPECT_EQ(walk(true), (std::vector<std::size_t>{3, 10, 70, 250, 260}));
}

TEST(ActiveSet, ClearAndReset) {
  ActiveSet s(64);
  s.insert(1);
  s.insert(2);
  s.clear();
  EXPECT_TRUE(s.empty());
  EXPECT_FALSE(s.contains(1));

  s.insert(5);
  s.reset(32);
  EXPECT_EQ(s.capacity(), 32u);
  EXPECT_TRUE(s.empty());
  EXPECT_FALSE(s.contains(5));
}

TEST(ActiveSet, RecountMatchesSize) {
  ActiveSet s(300);
  for (std::size_t i = 0; i < 300; i += 7) s.insert(i);
  EXPECT_EQ(s.recount(), s.size());
  for (std::size_t i = 0; i < 300; i += 14) s.erase(i);
  EXPECT_EQ(s.recount(), s.size());
}

}  // namespace
}  // namespace wormsim::util
