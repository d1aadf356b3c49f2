// Work-stealing thread pool for embarrassingly parallel simulation work.
//
// The sweep harness runs one full simulation per task (milliseconds to
// seconds each), so the design optimises for correctness and clean
// semantics rather than nanosecond dispatch: per-worker deques guarded
// by one pool mutex, round-robin submission, and workers that steal
// from a sibling's queue when their own runs dry. Tasks this coarse
// never contend meaningfully on the lock.
//
// Semantics that callers rely on:
//  - `wait()` blocks until every submitted task has finished and
//    rethrows the first exception any task threw (later exceptions of
//    the same batch are dropped; the error slot is cleared so the pool
//    stays usable).
//  - The destructor drains queued tasks gracefully (runs them, then
//    joins); exceptions raised during destruction are swallowed — call
//    `wait()` if you care about them.
//  - Worker count: `default_jobs()` honours the WORMSIM_JOBS
//    environment variable (>= 1) and falls back to
//    std::thread::hardware_concurrency().
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace wormsim::util {

class ThreadPool {
 public:
  using Task = std::function<void()>;

  /// `workers == 0` means `default_jobs()`.
  explicit ThreadPool(unsigned workers = 0);

  /// Drains queued tasks, joins all workers. Swallows task exceptions.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueue a task (round-robin across worker deques). Thread-safe.
  void submit(Task task);

  /// Block until all submitted tasks completed; rethrow the first
  /// captured task exception, if any, and clear it.
  void wait();

  unsigned size() const noexcept {
    return static_cast<unsigned>(workers_.size());
  }

  /// WORMSIM_JOBS if set to a positive integer, else
  /// hardware_concurrency(), never less than 1.
  static unsigned default_jobs();

  /// 0 -> default_jobs(); anything else passes through.
  static unsigned resolve_jobs(unsigned requested) {
    return requested == 0 ? default_jobs() : requested;
  }

 private:
  void worker_loop(std::size_t self);
  /// Pop a task for worker `self`: own deque first (front), then steal
  /// from siblings. Caller holds `mu_`. Returns false if none queued.
  bool take_task(std::size_t self, Task& out);

  mutable std::mutex mu_;
  std::condition_variable work_ready_;
  std::condition_variable all_done_;
  std::vector<std::deque<Task>> queues_;  // one per worker, guarded by mu_
  std::size_t next_queue_ = 0;            // round-robin submission cursor
  std::size_t in_flight_ = 0;             // queued + currently running
  bool stopping_ = false;
  std::exception_ptr first_error_;
  std::vector<std::thread> workers_;
};

/// Run `body(0..n-1)`, distributing indices over `jobs` workers
/// (0 = default_jobs()). With one job — or one index — the body runs
/// inline on the calling thread with no pool at all, so WORMSIM_JOBS=1
/// degenerates to the exact serial code path. Rethrows the first body
/// exception.
void parallel_for(std::size_t n, unsigned jobs,
                  const std::function<void(std::size_t)>& body);

}  // namespace wormsim::util
