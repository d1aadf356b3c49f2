// Deterministic fault schedules: an ordered list of link/node kill and
// restore events with absolute cycle timestamps. Schedules come from
// three sources, all reproducible from (spec, seed):
//
//   * a schedule file, one event per line:
//         <cycle> kill-link <node> <channel>
//         <cycle> restore-link <node> <channel>
//         <cycle> kill-node <node>
//         <cycle> restore-node <node>
//     with '#' comments and blank lines ignored;
//   * the CLI preset "transient:<links>@<cycle>[+<duration>]", which
//     kills <links> seed-chosen distinct physical links at <cycle> and
//     restores them <duration> cycles later (omitted = never);
//   * tests constructing event vectors directly.
//
// Link events name a directed channel (node, channel); the FaultMask
// applies them to both directions of the physical link.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "topology/kary_ncube.hpp"

namespace wormsim::fault {

using topo::ChannelId;
using topo::NodeId;
using Cycle = std::uint64_t;

enum class FaultKind : std::uint8_t {
  LinkKill,
  LinkRestore,
  NodeKill,
  NodeRestore,
};

std::string_view fault_kind_name(FaultKind kind) noexcept;

struct FaultEvent {
  Cycle cycle = 0;
  FaultKind kind = FaultKind::LinkKill;
  NodeId node = 0;
  ChannelId channel = 0;  // link events only; 0 for node events

  friend bool operator==(const FaultEvent&, const FaultEvent&) = default;
};

/// Immutable-after-construction event sequence, stable-sorted by cycle
/// (input order preserved among same-cycle events).
class FaultSchedule {
 public:
  FaultSchedule() = default;
  explicit FaultSchedule(std::vector<FaultEvent> events);

  bool empty() const noexcept { return events_.empty(); }
  std::size_t size() const noexcept { return events_.size(); }
  const std::vector<FaultEvent>& events() const noexcept { return events_; }

  /// Serialize in the schedule-file format; parse_schedule round-trips.
  void write(std::ostream& out) const;

 private:
  std::vector<FaultEvent> events_;
};

/// Parse the schedule-file format above. Throws std::invalid_argument
/// on malformed input (with a line number).
FaultSchedule parse_schedule(std::istream& in);

/// Seed-chosen transient: `links` distinct physical links killed at
/// `at`, each restored `duration` cycles later (duration 0 = never).
FaultSchedule make_transient(const topo::KAryNCube& topo, std::uint64_t links,
                             Cycle at, Cycle duration, std::uint64_t seed);

/// Resolve a --faults spec: the "transient:..." preset, else a path to
/// a schedule file. The result is validated against `topo`.
FaultSchedule load_faults(std::string_view spec, const topo::KAryNCube& topo,
                          std::uint64_t seed);

/// Throws std::invalid_argument when an event references a node or
/// channel outside `topo`.
void validate(const FaultSchedule& schedule, const topo::KAryNCube& topo);

}  // namespace wormsim::fault
