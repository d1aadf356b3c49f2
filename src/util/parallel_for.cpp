#include "util/parallel_for.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace wormsim::util {

unsigned default_jobs() {
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

void parallel_for(std::size_t n, unsigned jobs,
                  const std::function<void(std::size_t)>& body) {
  const unsigned resolved = resolve_jobs(jobs);
  if (resolved <= 1 || n <= 1) {
    for (std::size_t i = 0; i < n; ++i) body(i);
    return;
  }
  const std::size_t count = std::min<std::size_t>(resolved, n);
  std::vector<std::atomic<bool>> claimed(n);
  std::mutex error_mu;
  std::exception_ptr first_error;
  const auto run = [&](std::size_t i) {
    if (claimed[i].exchange(true)) return;
    try {
      body(i);
    } catch (...) {
      const std::lock_guard<std::mutex> lock(error_mu);
      if (!first_error) first_error = std::current_exception();
    }
  };
  // Thread t first runs its round-robin share t, t + count, ...; then it
  // takes any index no thread has started, from the highest down. Sweep
  // grids list each mechanism's loads in ascending order, so the shares
  // mix light and heavy points. One counter handing out the lowest free
  // index instead starts the grid's last (heaviest) point last: perfbench
  // light_512 (4 x 3 points on 4 threads) ran 19% longer that way.
  const auto worker = [&](std::size_t t) {
    for (std::size_t i = t; i < n; i += count) run(i);
    for (std::size_t i = n; i-- > 0;) run(i);
  };
  {
    // jthread joins on destruction, so the threads already running finish
    // before the locals they use go, even if starting another one throws.
    std::vector<std::jthread> threads;
    threads.reserve(count);
    for (std::size_t t = 0; t < count; ++t) threads.emplace_back(worker, t);
  }
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace wormsim::util
