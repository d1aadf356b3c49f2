#include "metrics/collector.hpp"

namespace wormsim::metrics {

Collector::Collector(NodeId num_nodes, Cycle window_start, Cycle window_end)
    : window_start_(window_start),
      window_end_(window_end),
      fairness_(num_nodes) {}

SimResult Collector::finish() const {
  SimResult r;
  r.latency_mean = latency_.mean();
  r.latency_stddev = latency_.stddev();
  r.latency_min = latency_.min();
  r.latency_max = latency_.max();
  r.latency_p50 = latency_hist_.quantile(0.50);
  r.latency_p95 = latency_hist_.quantile(0.95);
  r.latency_p99 = latency_hist_.quantile(0.99);
  r.avg_queue_len = queue_len_.mean();
  r.max_queue_len = static_cast<std::uint64_t>(queue_len_.max());
  return r;
}

}  // namespace wormsim::metrics
