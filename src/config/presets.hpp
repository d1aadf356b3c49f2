// Whole-experiment configuration and the paper's presets.
#pragma once

#include <cstdint>
#include <string>

#include "sim/simulator.hpp"
#include "traffic/workload.hpp"

namespace wormsim::config {

/// One fully-specified simulation experiment.
struct SimConfig {
  unsigned k = 8;
  unsigned n = 3;
  sim::SimulatorConfig sim{};
  traffic::WorkloadConfig workload{};
  sim::RunProtocol protocol{};
  std::uint64_t seed = 1;
};

/// The paper's §4.1 configuration: bidirectional 8-ary 3-cube (512
/// nodes), 3 VCs per physical channel with 4-flit buffers, 4 injection
/// and ejection channels per node, TFAR routing, FC3D-style detection
/// with a 32-cycle threshold, software-based recovery, exponential
/// per-node injection, uniform destinations, 16-flit messages.
SimConfig paper_base();

/// Reduced-scale variant for fast benches and CI: 8-ary 2-cube (64
/// nodes), same router parameters. The qualitative saturation behaviour
/// is preserved; see EXPERIMENTS.md for the scale note.
SimConfig small_base();

/// Throws std::invalid_argument on inconsistent settings.
void validate(const SimConfig& cfg);

/// Analytic memory footprint of one simulation instance: the large
/// O(nodes) / O(links) arrays, computed from sizeofs without
/// constructing anything. Lets callers (and validate()) reason about
/// 32k-node configs before committing gigabytes.
struct MemoryFootprint {
  std::uint64_t nodes = 0;
  std::uint64_t network_bytes = 0;     // links, VC state, eject ports
  std::uint64_t lut_bytes = 0;         // tabulated routing (0 = passthrough)
  std::uint64_t status_bytes = 0;      // status rows, queue list heads,
                                       // queue-head routes
  std::uint64_t active_set_bytes = 0;  // bitmap index sets + gen bookkeeping
  std::uint64_t total_bytes() const noexcept {
    return network_bytes + lut_bytes + status_bytes + active_set_bytes;
  }
  double bytes_per_node() const noexcept {
    return nodes ? static_cast<double>(total_bytes()) /
                       static_cast<double>(nodes)
                 : 0.0;
  }
};

/// Estimate the footprint of `cfg` (validates nothing; safe on any
/// syntactically sane config).
MemoryFootprint estimate_memory(const SimConfig& cfg);

/// Build a ready-to-run Simulator (topology + workload wired up).
std::unique_ptr<sim::Simulator> build_simulator(const SimConfig& cfg);

/// Optional observers to attach to a run. All are borrowed (caller
/// keeps ownership) and may be null; null hooks leave the simulator's
/// hot path untouched.
struct RunHooks {
  obs::Tracer* tracer = nullptr;
  metrics::SpatialMetrics* spatial = nullptr;
  metrics::OnlineStats* online = nullptr;
};

/// Convenience: build, run the protocol, return the result.
metrics::SimResult run_experiment(const SimConfig& cfg);

/// As above, with observers attached for the duration of the run.
/// `hooks.spatial` must be sized for the config's topology
/// (num_nodes, num_nodes * 2n channels, num_vcs); end-of-run link
/// counters are copied into it before returning.
metrics::SimResult run_experiment(const SimConfig& cfg,
                                  const RunHooks& hooks);

}  // namespace wormsim::config
