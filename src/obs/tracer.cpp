#include "obs/tracer.hpp"

#include <algorithm>

#include "util/json.hpp"

namespace wormsim::obs {

std::string_view event_kind_name(EventKind kind) noexcept {
  switch (kind) {
    case EventKind::GateAllow: return "gate_allow";
    case EventKind::GateBlock: return "gate_block";
    case EventKind::AloProbe: return "alo_probe";
    case EventKind::VcAlloc: return "vc_alloc";
    case EventKind::VcRelease: return "vc_release";
    case EventKind::DeadlockDetect: return "deadlock_detect";
    case EventKind::RecoveryReinject: return "recovery_reinject";
    case EventKind::QueueEnqueue: return "queue_enqueue";
    case EventKind::QueueDequeue: return "queue_dequeue";
    case EventKind::FaultLinkKill: return "fault_link_kill";
    case EventKind::FaultLinkRestore: return "fault_link_restore";
    case EventKind::FaultNodeKill: return "fault_node_kill";
    case EventKind::FaultNodeRestore: return "fault_node_restore";
    case EventKind::FaultLutRebuild: return "fault_lut_rebuild";
  }
  return "unknown";
}

Tracer::Tracer(std::size_t capacity) : cap_(capacity ? capacity : 1) {}

void Tracer::record(std::uint64_t cycle, EventKind kind, std::uint32_t node,
                    std::uint8_t aux8, std::uint16_t aux16,
                    std::uint32_t aux32) {
  const TraceEvent e{cycle, node, aux32, aux16, kind, aux8};
  if (ring_.size() < cap_) {
    ring_.push_back(e);
  } else {
    ring_[oldest_] = e;
    if (++oldest_ == cap_) oldest_ = 0;
  }
  ++recorded_;
}

std::vector<TraceEvent> Tracer::events() const {
  const auto oldest = ring_.begin() + static_cast<std::ptrdiff_t>(oldest_);
  std::vector<TraceEvent> out(oldest, ring_.end());
  out.insert(out.end(), ring_.begin(), oldest);
  return out;
}

namespace {

/// Category lane ("thread" row) each event kind renders on.
struct Lane {
  int tid;
  const char* name;
  const char* category;
};

/// The lane of each point's `simulate` span.
constexpr Lane kPointLane{0, "sweep point", "sweep"};

Lane lane_of(EventKind kind) noexcept {
  switch (kind) {
    case EventKind::GateAllow:
    case EventKind::GateBlock:
    case EventKind::AloProbe: return {1, "injection gate", "gate"};
    case EventKind::QueueEnqueue:
    case EventKind::QueueDequeue: return {2, "source queues", "queue"};
    case EventKind::VcAlloc:
    case EventKind::VcRelease: return {3, "virtual channels", "vc"};
    case EventKind::DeadlockDetect:
    case EventKind::RecoveryReinject: return {4, "deadlock", "deadlock"};
    case EventKind::FaultLinkKill:
    case EventKind::FaultLinkRestore:
    case EventKind::FaultNodeKill:
    case EventKind::FaultNodeRestore:
    case EventKind::FaultLutRebuild: return {5, "faults", "fault"};
  }
  return kPointLane;
}

void emit_args(util::JsonWriter& w, const TraceEvent& e) {
  w.key("args");
  w.begin_object();
  switch (e.kind) {
    case EventKind::GateAllow:
    case EventKind::GateBlock:
      w.field("node", e.node);
      w.field("limiter", static_cast<unsigned>(e.aux8));
      w.field("head_wait", e.aux32);
      break;
    case EventKind::AloProbe:
      w.field("node", e.node);
      w.field("rule_a", (e.aux8 & 1u) != 0);
      w.field("rule_b", (e.aux8 & 2u) != 0);
      break;
    case EventKind::VcAlloc:
    case EventKind::VcRelease:
      w.field("link", e.node);
      w.field("vc", static_cast<unsigned>(e.aux8));
      w.field("msg", e.aux32);
      break;
    case EventKind::DeadlockDetect:
      w.field("node", e.node);
      w.field("msg", e.aux32);
      w.field("length", static_cast<unsigned>(e.aux16));
      break;
    case EventKind::RecoveryReinject:
      w.field("node", e.node);
      w.field("msg", e.aux32);
      break;
    case EventKind::QueueEnqueue:
    case EventKind::QueueDequeue:
      w.field("node", e.node);
      w.field("queue_len", e.aux32);
      w.field("length", static_cast<unsigned>(e.aux16));
      break;
    case EventKind::FaultLinkKill:
    case EventKind::FaultLinkRestore:
      w.field("node", e.node);
      w.field("channel", static_cast<unsigned>(e.aux8));
      break;
    case EventKind::FaultNodeKill:
    case EventKind::FaultNodeRestore:
      w.field("node", e.node);
      break;
    case EventKind::FaultLutRebuild:
      w.field("dead_links", e.aux32);
      w.field("dead_nodes", static_cast<unsigned>(e.aux16));
      break;
  }
  w.end_object();
}

}  // namespace

void write_chrome_trace(std::ostream& out,
                        const std::vector<TraceProcess>& processes) {
  // Copied one process at a time, so the export holds one extra ring.
  const auto events_of = [&](std::size_t pid) {
    const Tracer* t = processes[pid].tracer;
    return t ? t->events() : std::vector<TraceEvent>{};
  };
  util::JsonWriter w(out);
  const auto metadata = [&](const char* name, std::uint64_t pid, int tid,
                            std::string_view value) {
    w.begin_object();
    w.field("ph", "M");
    w.field("name", name);
    w.field("pid", pid);
    w.field("tid", tid);
    w.key("args");
    w.begin_object();
    w.field("name", value);
    w.end_object();
    w.end_object();
  };

  w.begin_object();
  w.key("traceEvents");
  w.begin_array();
  for (std::size_t pid = 0; pid < processes.size(); ++pid) {
    metadata("process_name", pid, 0, processes[pid].label);
  }
  // Each process's lanes are named in order of first use, the span's
  // lane first.
  for (std::size_t pid = 0; pid < processes.size(); ++pid) {
    std::vector<int> named{kPointLane.tid};
    metadata("thread_name", pid, kPointLane.tid, kPointLane.name);
    for (const TraceEvent& e : events_of(pid)) {
      const Lane lane = lane_of(e.kind);
      if (std::find(named.begin(), named.end(), lane.tid) != named.end()) {
        continue;
      }
      named.push_back(lane.tid);
      metadata("thread_name", pid, lane.tid, lane.name);
    }
  }
  std::uint64_t recorded = 0;
  std::uint64_t dropped = 0;
  for (std::size_t pid = 0; pid < processes.size(); ++pid) {
    if (const Tracer* t = processes[pid].tracer) {
      recorded += t->events_recorded();
      dropped += t->events_dropped();
    }
    for (const TraceEvent& e : events_of(pid)) {
      const Lane lane = lane_of(e.kind);
      w.begin_object();
      w.field("name", event_kind_name(e.kind));
      w.field("cat", lane.category);
      w.field("ph", "i");
      w.field("s", "t");
      w.field("ts", e.cycle);
      w.field("pid", pid);
      w.field("tid", lane.tid);
      emit_args(w, e);
      w.end_object();
    }
    // One "complete" span covering the whole simulation.
    w.begin_object();
    w.field("name", "simulate");
    w.field("cat", kPointLane.category);
    w.field("ph", "X");
    w.field("ts", std::uint64_t{0});
    w.field("dur", processes[pid].total_cycles);
    w.field("pid", pid);
    w.field("tid", kPointLane.tid);
    w.key("args");
    w.begin_object();
    w.end_object();
    w.end_object();
  }
  w.end_array();
  w.field("displayTimeUnit", "ms");
  w.key("otherData");
  w.begin_object();
  w.field("schema", "wormsim.trace/2");
  w.field("timestamp_unit", "simulated cycles (shown as us)");
  w.field("events_recorded", recorded);
  w.field("events_dropped", dropped);
  w.end_object();
  w.end_object();
  out << "\n";
}

}  // namespace wormsim::obs
