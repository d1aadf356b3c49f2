// Work-stealing thread pool: completion under contention, exception
// propagation to the joining thread, graceful shutdown with queued
// tasks, and the WORMSIM_JOBS=1 serial degeneration.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/thread_pool.hpp"

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

TEST(ThreadPool, CompletesEveryTaskUnderContention) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  std::atomic<int> count{0};
  constexpr int kTasks = 2000;
  for (int i = 0; i < kTasks; ++i) {
    pool.submit([&count] { count.fetch_add(1, std::memory_order_relaxed); });
  }
  pool.wait();
  EXPECT_EQ(count.load(), kTasks);
}

TEST(ThreadPool, StealsWorkWhenOneQueueIsLong) {
  // Round-robin submission puts slow tasks on every queue; with one
  // worker artificially delayed, the others must steal its backlog for
  // the batch to finish promptly. Correctness (not timing) is asserted.
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 64; ++i) {
    pool.submit([&count, i] {
      if (i == 0) std::this_thread::sleep_for(std::chrono::milliseconds(50));
      count.fetch_add(1, std::memory_order_relaxed);
    });
  }
  pool.wait();
  EXPECT_EQ(count.load(), 64);
}

TEST(ThreadPool, WaitRethrowsFirstTaskException) {
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  for (int i = 0; i < 8; ++i) {
    pool.submit([&ran, i] {
      ++ran;
      if (i == 3) throw std::runtime_error("task 3 failed");
    });
  }
  EXPECT_THROW(pool.wait(), std::runtime_error);
  // All tasks still ran (an exception cancels nothing)...
  EXPECT_EQ(ran.load(), 8);
  // ...and the error slot is cleared: the pool remains usable.
  pool.submit([&ran] { ++ran; });
  EXPECT_NO_THROW(pool.wait());
  EXPECT_EQ(ran.load(), 9);
}

TEST(ThreadPool, ExceptionMessageSurvivesPropagation) {
  ThreadPool pool(2);
  pool.submit([] { throw std::runtime_error("boom"); });
  try {
    pool.wait();
    FAIL() << "wait() should have rethrown";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "boom");
  }
}

TEST(ThreadPool, DestructorDrainsQueuedTasks) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 64; ++i) {
      pool.submit([&count] {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
        count.fetch_add(1, std::memory_order_relaxed);
      });
    }
    // No wait(): destruction must still run everything queued.
  }
  EXPECT_EQ(count.load(), 64);
}

TEST(ThreadPool, DefaultJobsHonoursEnvOverride) {
  {
    ScopedJobsEnv env("3");
    EXPECT_EQ(ThreadPool::default_jobs(), 3u);
    EXPECT_EQ(ThreadPool::resolve_jobs(0), 3u);
    EXPECT_EQ(ThreadPool::resolve_jobs(7), 7u);  // explicit wins
  }
  {
    // Garbage and non-positive values fall back to hardware concurrency.
    ScopedJobsEnv env("not-a-number");
    EXPECT_GE(ThreadPool::default_jobs(), 1u);
  }
  {
    ScopedJobsEnv env("0");
    EXPECT_GE(ThreadPool::default_jobs(), 1u);
  }
}

TEST(ThreadPool, Jobs1DegeneratesToSerialOnCallingThread) {
  ScopedJobsEnv env("1");
  ASSERT_EQ(ThreadPool::default_jobs(), 1u);
  // jobs=0 resolves to the env override of 1 -> inline execution, in
  // order, on the calling thread, with no pool constructed.
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

TEST(ParallelFor, PropagatesBodyException) {
  EXPECT_THROW(
      parallel_for(16, 4,
                   [](std::size_t i) {
                     if (i == 5) throw std::logic_error("bad index");
                   }),
      std::logic_error);
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
