// parallel_for: every index runs exactly once, a thread that runs dry
// takes indices from another thread's share, the first body exception
// reaches the calling thread after all indices ran, and the
// WORMSIM_JOBS=1 serial degeneration runs inline in index order.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "util/parallel_for.hpp"

namespace wormsim::util {
namespace {

/// Scoped WORMSIM_JOBS override (restores the previous value on exit so
/// tests cannot leak environment into each other).
class ScopedJobsEnv {
 public:
  explicit ScopedJobsEnv(const char* value) {
    const char* old = std::getenv("WORMSIM_JOBS");
    had_old_ = old != nullptr;
    if (had_old_) old_ = old;
    if (value) {
      ::setenv("WORMSIM_JOBS", value, 1);
    } else {
      ::unsetenv("WORMSIM_JOBS");
    }
  }
  ~ScopedJobsEnv() {
    if (had_old_) {
      ::setenv("WORMSIM_JOBS", old_.c_str(), 1);
    } else {
      ::unsetenv("WORMSIM_JOBS");
    }
  }

 private:
  bool had_old_ = false;
  std::string old_;
};

TEST(ParallelFor, DefaultJobsHonoursEnvOverride) {
  {
    ScopedJobsEnv env("3");
    EXPECT_EQ(default_jobs(), 3u);
    EXPECT_EQ(resolve_jobs(0), 3u);
    EXPECT_EQ(resolve_jobs(7), 7u);  // explicit wins
  }
  {
    ScopedJobsEnv env("5000");
    EXPECT_EQ(default_jobs(), 1024u);  // capped
  }
  {
    // Garbage and non-positive values fall back to hardware concurrency.
    ScopedJobsEnv env("not-a-number");
    EXPECT_GE(default_jobs(), 1u);
  }
  {
    ScopedJobsEnv env("0");
    EXPECT_GE(default_jobs(), 1u);
  }
}

TEST(ParallelFor, Jobs1DegeneratesToSerialOnCallingThread) {
  ScopedJobsEnv env("1");
  ASSERT_EQ(default_jobs(), 1u);
  // jobs=0 resolves to the env override of 1 -> inline execution, in
  // order, on the calling thread, with no thread started.
  std::vector<std::thread::id> ids;
  std::vector<std::size_t> order;
  parallel_for(8, 0, [&](std::size_t i) {
    ids.push_back(std::this_thread::get_id());
    order.push_back(i);
  });
  ASSERT_EQ(ids.size(), 8u);
  for (const auto id : ids) EXPECT_EQ(id, std::this_thread::get_id());
  for (std::size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  std::vector<std::atomic<int>> hits(257);
  parallel_for(hits.size(), 4, [&](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, IdleThreadsTakeUnstartedIndices) {
  // With two threads, index 0's thread also owns 2, 4, 6 and 8. Index 0
  // waits until every other index has run, so the other thread must take
  // them (bounded wait: a scheduler that never does fails, not hangs).
  constexpr std::size_t kN = 9;
  std::atomic<std::size_t> done{0};
  parallel_for(kN, 2, [&](std::size_t i) {
    if (i != 0) {
      done.fetch_add(1);
      return;
    }
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (done.load() < kN - 1 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
    EXPECT_EQ(done.load(), kN - 1);
  });
}

TEST(ParallelFor, PropagatesBodyException) {
  EXPECT_THROW(
      parallel_for(16, 4,
                   [](std::size_t i) {
                     if (i == 5) throw std::logic_error("bad index");
                   }),
      std::logic_error);
}

TEST(ParallelFor, RunsEveryIndexAndRethrowsFirstError) {
  // An exception cancels nothing: the other 63 indices still run, and
  // the calling thread sees the body's own exception and message.
  std::vector<std::atomic<int>> hits(64);
  try {
    parallel_for(hits.size(), 4, [&](std::size_t i) {
      hits[i].fetch_add(1, std::memory_order_relaxed);
      if (i == 3) throw std::runtime_error("index 3 failed");
    });
    FAIL() << "parallel_for should have rethrown";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "index 3 failed");
  }
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, ZeroAndSingleElementRunInline) {
  int calls = 0;
  parallel_for(0, 4, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  std::thread::id id;
  parallel_for(1, 4, [&](std::size_t) { id = std::this_thread::get_id(); });
  EXPECT_EQ(id, std::this_thread::get_id());
}

}  // namespace
}  // namespace wormsim::util
