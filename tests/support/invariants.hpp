// Shared structural-invariant checker for fuzz/soak suites.
//
// The active-set and fault fuzzers each grew their own copy of the
// "assert every check_* the simulator exposes" block, and the copies
// drifted (the active-set fuzzer never ran the fault invariants, the
// fault fuzzer never re-ran them after adding flow control). This is
// the single source of truth: every suite calls check_all_invariants()
// and automatically picks up new simulator invariants.
#pragma once

#include <gtest/gtest.h>

#include <string>

#include "sim/simulator.hpp"

namespace wormsim::sim::testing {

/// Every structural invariant the Simulator exposes, in one assertion:
/// active-set coherence, message/flit conservation (including the
/// lost-to-faults term), fault invariants (trivially true without a
/// schedule), and flow-control invariants (buffer bounds; credit
/// conservation under the Credit scheme).
inline ::testing::AssertionResult check_all_invariants(const Simulator& sim) {
  std::string why;
  if (!sim.check_active_sets(&why)) {
    return ::testing::AssertionFailure() << "active sets: " << why;
  }
  if (!sim.check_conservation(&why)) {
    return ::testing::AssertionFailure() << "conservation: " << why;
  }
  if (!sim.check_fault_invariants(&why)) {
    return ::testing::AssertionFailure() << "fault invariants: " << why;
  }
  if (!sim.check_flow_control(&why)) {
    return ::testing::AssertionFailure() << "flow control: " << why;
  }
  return ::testing::AssertionSuccess();
}

/// Aggregate message conservation through the public counters: every
/// message ever generated is delivered, in flight, source-queued, or
/// lost to faults. (The fuzzers previously disagreed on the lost term;
/// including it is correct in both cases — it is 0 without faults.)
inline ::testing::AssertionResult check_aggregate_conservation(
    const Simulator& sim) {
  const auto r = sim.totals();
  const std::uint64_t accounted = r.messages_delivered +
                                  sim.messages_in_flight() +
                                  sim.source_queue_total() + sim.total_lost();
  if (r.messages_generated != accounted) {
    return ::testing::AssertionFailure()
           << "generated " << r.messages_generated << " != delivered "
           << r.messages_delivered << " + in-flight "
           << sim.messages_in_flight() << " + queued "
           << sim.source_queue_total() << " + lost " << sim.total_lost();
  }
  return ::testing::AssertionSuccess();
}

}  // namespace wormsim::sim::testing
