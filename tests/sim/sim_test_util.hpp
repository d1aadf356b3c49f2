// Shared helpers for simulator tests.
#pragma once

#include <memory>

#include "sim/simulator.hpp"
#include "traffic/workload.hpp"

namespace wormsim::sim::testing {

inline SimulatorConfig default_config() {
  SimulatorConfig cfg;
  cfg.net.num_vcs = 3;
  cfg.net.buf_flits = 4;
  cfg.net.inj_channels = 4;
  cfg.net.eje_channels = 4;
  cfg.net.link_delay = 2;
  cfg.routing_delay = 1;
  cfg.algorithm = routing::Algorithm::TFAR;
  cfg.selection = routing::SelectionPolicy::MaxFreeVcs;
  cfg.detection.enabled = true;
  cfg.detection.threshold = 32;
  cfg.recovery.base_delay = 32;
  cfg.limiter.kind = core::LimiterKind::None;
  return cfg;
}

/// Simulator over a k-ary n-cube with no autonomous traffic; tests drive
/// it via push_message().
inline std::unique_ptr<Simulator> make_sim(unsigned k, unsigned n,
                                           SimulatorConfig cfg = default_config()) {
  const topo::KAryNCube topo(k, n);
  return std::make_unique<Simulator>(topo, cfg, nullptr);
}

/// Simulator with an autonomous workload (uniform by default).
inline std::unique_ptr<Simulator> make_traffic_sim(
    unsigned k, unsigned n, double offered_flits, std::uint32_t msg_len,
    SimulatorConfig cfg = default_config(),
    traffic::PatternKind pattern = traffic::PatternKind::Uniform,
    std::uint64_t seed = 12345) {
  const topo::KAryNCube topo(k, n);
  traffic::WorkloadConfig wcfg;
  wcfg.pattern = pattern;
  wcfg.offered_flits_per_node_cycle = offered_flits;
  wcfg.length.fixed = msg_len;
  auto workload = std::make_unique<traffic::Workload>(topo, wcfg, seed);
  return std::make_unique<Simulator>(topo, cfg, std::move(workload));
}

/// Step until the simulator has delivered `count` messages or `limit`
/// cycles elapse; returns true on success.
inline bool run_until_delivered(Simulator& sim, std::uint64_t count,
                                std::uint64_t limit = 100000) {
  const std::uint64_t deadline = sim.cycle() + limit;
  while (sim.scan_stats().delivered < count && sim.cycle() < deadline) {
    sim.step();
  }
  return sim.scan_stats().delivered >= count;
}

/// Expected no-contention latency of one message in this codebase's
/// timing model: per hop routing_delay + link_delay, plus routing_delay
/// for the ejection-port binding at the destination, plus `length`
/// cycles of ejection serialization. Valid when the per-VC buffer
/// exceeds the credit round-trip (buf_flits > link_delay); shallower
/// buffers add genuine credit-stall bubbles.
inline std::uint64_t ideal_latency(const Simulator& sim, topo::NodeId src,
                                   topo::NodeId dst, std::uint32_t length) {
  const unsigned hops = sim.topology().distance(src, dst);
  const auto& cfg = sim.config();
  return static_cast<std::uint64_t>(hops) *
             (cfg.routing_delay + cfg.net.link_delay) +
         cfg.routing_delay + length;
}

}  // namespace wormsim::sim::testing
