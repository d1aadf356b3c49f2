// Per-node queues of absorbed (deadlocked) messages awaiting software
// re-injection.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "deadlock/detection.hpp"
#include "util/fifo_arena.hpp"

namespace wormsim::deadlock {

using MsgId = std::uint32_t;
using NodeId = std::uint32_t;
using Cycle = std::uint64_t;

class RecoveryManager {
 public:
  explicit RecoveryManager(NodeId num_nodes) : queues_(num_nodes) {}

  /// Absorbed message becomes re-injectable at `ready` (absorption +
  /// software handling cost already added by the caller).
  void enqueue(NodeId node, MsgId msg, Cycle ready) {
    queues_.push_back(node, {msg, ready});
  }

  /// Is the oldest absorbed message at `node` ready for re-injection?
  bool has_ready(NodeId node, Cycle now) const noexcept {
    return !queues_.empty(node) && queues_.front(node).ready <= now;
  }

  MsgId pop(NodeId node) {
    const MsgId id = queues_.front(node).msg;
    queues_.pop_front(node);
    return id;
  }

  std::size_t pending(NodeId node) const noexcept {
    return queues_.size(node);
  }
  std::size_t pending_total() const noexcept { return queues_.total(); }

  void clear() { queues_.clear(); }

  /// Remove every queued entry for which `drop(node, msg)` returns true
  /// (fault reconfiguration: the re-injection node died or the
  /// destination became unreachable from it). Removed (node, msg) pairs
  /// are appended to `removed` in deterministic node-then-FIFO order.
  template <typename Pred>
  void purge(Pred&& drop, std::vector<std::pair<NodeId, MsgId>>& removed) {
    for (NodeId node = 0; node < queues_.owners(); ++node) {
      queues_.erase_if(node, [&](const Entry& e) {
        if (!drop(node, e.msg)) return false;
        removed.emplace_back(node, e.msg);
        return true;
      });
    }
  }

 private:
  struct Entry {
    MsgId msg;
    Cycle ready;
  };
  /// Per-node queues in one shared slot arena.
  util::FifoArena<Entry> queues_;
};

}  // namespace wormsim::deadlock
