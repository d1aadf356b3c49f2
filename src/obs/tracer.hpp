// Low-overhead structured event tracing for one simulation, with a
// Chrome trace-event (Perfetto-loadable) JSON exporter.
//
// Design constraints (the core-equivalence guarantees depend on them):
//   * Observation only — recording never touches simulation state, so
//     sweep CSVs are byte-identical with tracing on or off.
//   * Zero cost when disabled — every hook in the simulator is a
//     branch-on-null pointer check; no Tracer exists unless a harness
//     attaches one (gated by bench/micro_mechanism --obs-overhead-json).
//   * One ring per simulation — a Tracer is a fixed-capacity ring
//     recorded by the one thread that runs its simulation, so it needs
//     no lock. When the ring wraps, the oldest events are overwritten
//     and counted as dropped (keep-latest is the right policy for
//     post-mortems of a saturation collapse).
//
// Sweep integration: the harness gives every sweep point its own
// Tracer. The exporter writes each point as one trace "process" (pid =
// sweep-point index, named after its mechanism/load) with a `simulate`
// span over its cycles and category lanes (gate / queue / vc /
// deadlock / fault) as threads underneath, so a whole sweep opens as a
// navigable timeline in chrome://tracing or https://ui.perfetto.dev.
// Timestamps are simulated cycles expressed as microseconds. Nothing in
// the export depends on which worker ran a point, so it is
// byte-identical for any --jobs count.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace wormsim::obs {

enum class EventKind : std::uint8_t {
  GateAllow,         // injection limiter admitted the queue head
  GateBlock,         // injection limiter refused the queue head
  AloProbe,          // ALO condition sampled (aux8: bit0 rule a, bit1 rule b)
  VcAlloc,           // virtual channel claimed (node=link, aux8=vc, aux32=msg)
  VcRelease,         // virtual channel freed (node=link, aux8=vc, aux32=msg)
  DeadlockDetect,    // message presumed deadlocked and absorbed
  RecoveryReinject,  // absorbed message re-entered an injection channel
  QueueEnqueue,      // message generated into a source queue
  QueueDequeue,      // message left a source queue for the network
  FaultLinkKill,     // physical link failed (node, aux8 = channel)
  FaultLinkRestore,  // physical link repaired (node, aux8 = channel)
  FaultNodeKill,     // node failed
  FaultNodeRestore,  // node repaired
  FaultLutRebuild,   // routing table rebuilt (aux32 = dead directed
                     // links, aux16 = dead nodes after the rebuild)
};

std::string_view event_kind_name(EventKind kind) noexcept;

/// One recorded event; aux fields are kind-specific (see EventKind).
struct TraceEvent {
  std::uint64_t cycle = 0;
  std::uint32_t node = 0;  // node id, or link id for VC events
  std::uint32_t aux32 = 0;
  std::uint16_t aux16 = 0;
  EventKind kind = EventKind::GateAllow;
  std::uint8_t aux8 = 0;
};

/// The keep-latest event ring of one simulation.
class Tracer {
 public:
  /// Retains the newest `capacity` events (at least 1). Ring memory
  /// grows with the events recorded, up to the capacity.
  explicit Tracer(std::size_t capacity = std::size_t{1} << 16);

  void record(std::uint64_t cycle, EventKind kind, std::uint32_t node,
              std::uint8_t aux8 = 0, std::uint16_t aux16 = 0,
              std::uint32_t aux32 = 0);

  /// The retained events, oldest first.
  std::vector<TraceEvent> events() const;
  std::uint64_t events_recorded() const noexcept { return recorded_; }
  std::uint64_t events_dropped() const noexcept {
    return recorded_ - ring_.size();
  }

 private:
  std::size_t cap_;
  std::size_t oldest_ = 0;  // ring slot of the oldest event once full
  std::uint64_t recorded_ = 0;
  std::vector<TraceEvent> ring_;
};

/// One traced simulation as a trace process.
struct TraceProcess {
  std::string label;
  std::uint64_t total_cycles = 0;  // length of the `simulate` span
  const Tracer* tracer = nullptr;  // null: label and span only
};

/// Emit the Chrome trace-event JSON document, one process per entry
/// (pid = index): every process name, then each process's lane names,
/// then each process's events, oldest first, and its `simulate` span.
void write_chrome_trace(std::ostream& out,
                        const std::vector<TraceProcess>& processes);

}  // namespace wormsim::obs
