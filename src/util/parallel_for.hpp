// Parallel loop over independent indices for embarrassingly parallel
// simulation work.
//
// The sweep harness runs one full simulation per index (milliseconds to
// seconds each), so dispatch cost does not matter; what matters is that
// no thread is left running a heavy point alone at the end. Each of
// `parallel_for`'s threads runs its round-robin share of the indices and
// then takes whatever no thread has started yet.
//
// Semantics that callers rely on:
//  - With one resolved job, or n <= 1, the body runs inline on the
//    calling thread in index order and no thread is created, so
//    WORMSIM_JOBS=1 is the exact serial code path.
//  - Otherwise min(jobs, n) threads run the body; every index runs
//    exactly once even after a body throws, and the first exception is
//    rethrown on the calling thread once all threads have joined.
//  - `default_jobs()` honours the WORMSIM_JOBS environment variable
//    (>= 1, capped at 1024) and falls back to
//    std::thread::hardware_concurrency().
#pragma once

#include <cstddef>
#include <functional>

namespace wormsim::util {

/// WORMSIM_JOBS if set to a positive integer, else
/// hardware_concurrency(), never less than 1.
unsigned default_jobs();

/// 0 -> default_jobs(); anything else passes through.
inline unsigned resolve_jobs(unsigned requested) {
  return requested == 0 ? default_jobs() : requested;
}

/// Run `body(0..n-1)` on `jobs` threads (0 = default_jobs()). Rethrows
/// the first body exception.
void parallel_for(std::size_t n, unsigned jobs,
                  const std::function<void(std::size_t)>& body);

}  // namespace wormsim::util
