// Self-tests for the benchmark's own arithmetic (bench_math.hpp). Exits
// non-zero and names every failed check; run.py runs it before every
// measurement so a broken formula never reaches a reported number.
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_math.hpp"
#include "sim/simulator.hpp"

namespace {

int failures = 0;

void check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "self-test FAILED: %s\n", what);
    ++failures;
  }
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-12; }

template <typename Fn>
bool throws(Fn&& fn) {
  try {
    fn();
  } catch (const std::invalid_argument&) {
    return true;
  }
  return false;
}

struct WithShards {
  unsigned shards = 1;
};
struct WithoutShards {
  unsigned jobs = 1;
};

}  // namespace

int main() {
  using namespace perfbench;

  // Percentile: linear interpolation between closest ranks, with count.
  const std::vector<double> five = {5, 1, 4, 2, 3};
  check(near(percentile(five, 50).value, 3.0), "p50 of 1..5 is 3");
  check(percentile(five, 50).count == 5, "p50 reports its sample count");
  check(near(percentile(five, 0).value, 1.0), "p0 is the minimum");
  check(near(percentile(five, 100).value, 5.0), "p100 is the maximum");
  check(near(percentile(five, 25).value, 2.0), "p25 of 1..5 is 2");
  check(near(percentile({10, 20}, 50).value, 15.0), "p50 interpolates");
  check(near(percentile({7}, 99).value, 7.0), "one sample is every rank");
  check(throws([] { percentile({}, 50); }), "empty sample throws");
  check(throws([] { percentile({1}, 101); }), "rank above 100 throws");
  check(near(median({4, 1, 3, 2}), 2.5), "even-count median");
  std::vector<double> thousand;
  for (int i = 1; i <= 1000; ++i) thousand.push_back(i);
  const Percentile p99 = percentile(thousand, 99);
  check(near(p99.value, 990.01), "p99 of 1..1000");
  check(samples_beyond(thousand, p99.value) == 10,
        "ten samples lie beyond p99 of 1000");

  // Parallel efficiency: sum of point walls over jobs x wall.
  check(near(parallel_efficiency(8.0, 4, 2.0), 1.0), "perfectly packed");
  check(near(parallel_efficiency(6.0, 4, 2.0), 0.75), "one idle quarter");
  check(near(parallel_efficiency(1.0, 1, 1.25), 0.8), "serial overhead");
  check(parallel_efficiency(1.0, 0, 1.0) == 0.0, "zero jobs");
  check(parallel_efficiency(1.0, 4, 0.0) == 0.0, "zero wall");

  // Failed fraction.
  check(failed_fraction(0, 8) == 0.0, "no failures");
  check(near(failed_fraction(2, 8), 0.25), "two of eight");
  check(failed_fraction(9, 8) == 1.0, "clamped to one");
  check(failed_fraction(0, 0) == 1.0, "nothing attempted counts as failed");

  // Digests and their comparison.
  check(fnv1a("") == 0xcbf29ce484222325ull, "FNV-1a offset basis");
  check(fnv1a("a") == 0xaf63dc4c8601ec8cull, "FNV-1a of 'a'");
  check(hex64(0xabcull) == "0000000000000abc", "hex is zero-padded");
  const std::vector<std::string> ref = {"a", "b", "c"};
  const std::vector<bool> ok3(3, false);
  check(failed_points(ref, ref, ok3) == 0, "identical digests");
  check(failed_points({"a", "x", "c"}, ref, ok3) == 1, "one point differs");
  check(failed_points({"a", "b"}, ref, ok3) == 1, "missing point fails");
  check(failed_points({"a", "b", "c", "d"}, ref, ok3) == 1,
        "extra point fails");
  check(failed_points({}, ref, {}) == 3, "no points at all");
  check(failed_points(ref, ref, {false, true, false}) == 1,
        "a failed invariant fails its point");
  check(failed_points({"a", "x", "c"}, ref, {false, true, false}) == 1,
        "a point failing both ways counts once");

  // The requires-based shards setter.
  WithShards with;
  check(request_shards(with, 4) && with.shards == 4,
        "struct with shards gets the request");
  WithoutShards without;
  check(!request_shards(without, 4) && without.jobs == 1,
        "struct without shards is left alone");
  wormsim::sim::SimulatorConfig real;
  const bool has = request_shards(real, 3);
  check(!has || real.shards == 3, "simulator config honours the request");

  if (failures) {
    std::fprintf(stderr, "self-test: %d check(s) failed\n", failures);
    return 1;
  }
  std::fprintf(stderr, "self-test: all checks passed\n");
  return 0;
}
