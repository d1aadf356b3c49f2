#include "util/thread_pool.hpp"

#include <algorithm>
#include <cstdlib>

namespace wormsim::util {

unsigned ThreadPool::default_jobs() {
  if (const char* env = std::getenv("WORMSIM_JOBS")) {
    char* end = nullptr;
    const unsigned long v = std::strtoul(env, &end, 10);
    if (end != env && *end == '\0' && v >= 1) {
      return static_cast<unsigned>(std::min<unsigned long>(v, 1024));
    }
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw ? hw : 1;
}

ThreadPool::ThreadPool(unsigned workers) {
  const unsigned count = resolve_jobs(workers);
  queues_.resize(count);
  workers_.reserve(count);
  for (unsigned i = 0; i < count; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  work_ready_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::submit(Task task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    queues_[next_queue_].push_back(std::move(task));
    next_queue_ = (next_queue_ + 1) % queues_.size();
    ++in_flight_;
  }
  work_ready_.notify_one();
}

bool ThreadPool::take_task(std::size_t self, Task& out) {
  if (!queues_[self].empty()) {
    out = std::move(queues_[self].front());
    queues_[self].pop_front();
    return true;
  }
  // Steal from the back of a sibling's deque (classic work stealing:
  // owner takes the front, thieves take the opposite end).
  for (std::size_t k = 1; k < queues_.size(); ++k) {
    auto& victim = queues_[(self + k) % queues_.size()];
    if (!victim.empty()) {
      out = std::move(victim.back());
      victim.pop_back();
      return true;
    }
  }
  return false;
}

void ThreadPool::worker_loop(std::size_t self) {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    Task task;
    if (take_task(self, task)) {
      lock.unlock();
      try {
        task();
      } catch (...) {
        lock.lock();
        if (!first_error_) first_error_ = std::current_exception();
        lock.unlock();
      }
      task = nullptr;  // destroy captures outside the lock
      lock.lock();
      if (--in_flight_ == 0) all_done_.notify_all();
      continue;
    }
    // Even when stopping, drain every queued task first (graceful
    // shutdown); exit only once nothing is left to run.
    if (stopping_) return;
    work_ready_.wait(lock);
  }
}

void ThreadPool::wait() {
  std::unique_lock<std::mutex> lock(mu_);
  all_done_.wait(lock, [this] { return in_flight_ == 0; });
  if (first_error_) {
    std::exception_ptr err = first_error_;
    first_error_ = nullptr;
    std::rethrow_exception(err);
  }
}

void parallel_for(std::size_t n, unsigned jobs,
                  const std::function<void(std::size_t)>& body) {
  const unsigned resolved = ThreadPool::resolve_jobs(jobs);
  if (resolved <= 1 || n <= 1) {
    for (std::size_t i = 0; i < n; ++i) body(i);
    return;
  }
  ThreadPool pool(static_cast<unsigned>(
      std::min<std::size_t>(resolved, n)));
  for (std::size_t i = 0; i < n; ++i) {
    pool.submit([i, &body] { body(i); });
  }
  pool.wait();
}

}  // namespace wormsim::util
