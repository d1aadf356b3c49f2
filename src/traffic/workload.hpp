// Workload = destination pattern + arrival process + message length,
// instantiated per node with independent RNG substreams.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "topology/kary_ncube.hpp"
#include "traffic/injection_process.hpp"
#include "traffic/patterns.hpp"
#include "util/rng.hpp"
#include "util/small_vector.hpp"

namespace wormsim::traffic {

/// Longest message the simulator carries (its per-VC flit counters are
/// 16-bit). check_message_length throws std::invalid_argument, prefixed
/// by `where`, for anything longer.
inline constexpr std::uint32_t kMaxMessageFlits = 65535;
void check_message_length(std::uint64_t flits, const std::string& where = "");

/// Message length distributions. The paper uses fixed 16-flit and
/// 64-flit lengths; Bimodal is provided for mixed-size studies.
struct LengthDist {
  enum class Kind { Fixed, Bimodal } kind = Kind::Fixed;
  std::uint32_t fixed = 16;
  std::uint32_t short_len = 16;
  std::uint32_t long_len = 64;
  double long_fraction = 0.1;

  std::uint32_t sample(util::Rng& rng) const {
    if (kind == Kind::Fixed) return fixed;
    return rng.bernoulli(long_fraction) ? long_len : short_len;
  }
  double mean() const {
    if (kind == Kind::Fixed) return fixed;
    return long_fraction * long_len + (1.0 - long_fraction) * short_len;
  }
  std::uint32_t longest() const {
    return kind == Kind::Fixed ? fixed : std::max(short_len, long_len);
  }
};

struct WorkloadConfig {
  PatternKind pattern = PatternKind::Uniform;
  HotspotParams hotspot{};
  ProcessKind process = ProcessKind::Exponential;
  BurstyProcess::Params bursty{};  // read when process == Bursty
  /// Offered load in flits/node/cycle (the paper's traffic unit); the
  /// per-node message rate is load / mean message length.
  double offered_flits_per_node_cycle = 0.1;
  LengthDist length{};
};

struct GeneratedMessage {
  topo::NodeId dst = 0;
  std::uint32_t length_flits = 0;
};

/// Drives message generation for every node. Deterministic given the
/// seed: node i's stream does not depend on how other nodes are polled.
class Workload {
 public:
  Workload(const topo::KAryNCube& topo, const WorkloadConfig& cfg,
           std::uint64_t seed);
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  /// Messages generated by `node` during `cycle` (polled once per node
  /// per cycle, in non-decreasing cycle order). Self-addressed pattern
  /// results are dropped here (the node is inactive under the pattern).
  void poll(topo::NodeId node, std::uint64_t cycle,
            util::SmallVector<GeneratedMessage, 8>& out);

  /// Earliest cycle > `now` at which polling `node` could produce a
  /// message or advance its process state (see
  /// InjectionProcess::next_poll_hint). Valid immediately after
  /// poll(node, now); invalidated by set_offered_load (watch
  /// mutation_epoch). The active-set core skips polls up to this cycle.
  std::uint64_t next_poll(topo::NodeId node, std::uint64_t now) const {
    return nodes_[node].process->next_poll_hint(now);
  }

  /// Incremented by every mutation that invalidates outstanding
  /// next_poll hints (currently set_offered_load).
  std::uint64_t mutation_epoch() const noexcept { return epoch_; }

  /// Change offered load (flits/node/cycle) for all nodes mid-run.
  void set_offered_load(double flits_per_node_cycle);

  double message_rate() const noexcept { return msg_rate_; }
  const WorkloadConfig& config() const noexcept { return cfg_; }
  const TrafficPattern& pattern() const noexcept { return *pattern_; }

 private:
  topo::KAryNCube topo_;  // owned copy: patterns keep pointers into it
  WorkloadConfig cfg_;
  double msg_rate_;
  std::unique_ptr<TrafficPattern> pattern_;
  struct PerNode {
    util::Rng rng{1};
    std::unique_ptr<InjectionProcess> process;
  };
  std::vector<PerNode> nodes_;
  std::uint64_t epoch_ = 0;
};

}  // namespace wormsim::traffic
