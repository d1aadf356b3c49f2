#include "traffic/workload.hpp"

#include <stdexcept>
#include <string>

namespace wormsim::traffic {

void check_message_length(std::uint64_t flits, const std::string& where) {
  if (flits > kMaxMessageFlits) {
    throw std::invalid_argument(where + "message length " +
                                std::to_string(flits) + " exceeds " +
                                std::to_string(kMaxMessageFlits) + " flits");
  }
}

Workload::Workload(const topo::KAryNCube& topo, const WorkloadConfig& cfg,
                   std::uint64_t seed)
    : topo_(topo), cfg_(cfg) {
  const double mean_len = cfg.length.mean();
  if (mean_len <= 0) throw std::invalid_argument("message length must be > 0");
  check_message_length(cfg.length.longest());
  msg_rate_ = cfg.offered_flits_per_node_cycle / mean_len;
  // Patterns capture a pointer to our owned topology copy, so they stay
  // valid for the Workload's lifetime (Workload is not movable).
  pattern_ = make_pattern(cfg.pattern, topo_, cfg.hotspot);

  util::Rng root(seed);
  nodes_.resize(topo.num_nodes());
  traffic::BurstyProcess::Params bursty = cfg_.bursty;
  std::uint64_t node_index = 0;
  for (auto& n : nodes_) {
    n.rng = root.split();
    // Synchronized bursts: one shared phase schedule for the whole
    // machine; otherwise a distinct schedule per node.
    bursty.phase_seed = cfg_.bursty.synchronized
                            ? seed ^ 0xB0B5ULL
                            : seed ^ (0x9e3779b97f4a7c15ULL * ++node_index);
    n.process = make_process(cfg.process, msg_rate_, bursty);
  }
}

void Workload::poll(topo::NodeId node, std::uint64_t cycle,
                    util::SmallVector<GeneratedMessage, 8>& out) {
  auto& pn = nodes_[node];
  unsigned count = pn.process->arrivals(cycle, pn.rng);
  while (count-- > 0 && !out.full()) {
    const topo::NodeId dst = pattern_->destination(node, pn.rng);
    if (dst == node) continue;  // inactive node under this pattern
    out.push_back({dst, cfg_.length.sample(pn.rng)});
  }
}

void Workload::set_offered_load(double flits_per_node_cycle) {
  cfg_.offered_flits_per_node_cycle = flits_per_node_cycle;
  msg_rate_ = flits_per_node_cycle / cfg_.length.mean();
  for (auto& n : nodes_) n.process->set_rate(msg_rate_);
  ++epoch_;  // outstanding next_poll hints are now stale
}

}  // namespace wormsim::traffic
