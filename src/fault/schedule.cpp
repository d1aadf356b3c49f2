#include "fault/schedule.hpp"

#include <algorithm>
#include <charconv>
#include <fstream>
#include <ostream>
#include <set>
#include <sstream>
#include <stdexcept>

#include "util/read_uint.hpp"
#include "util/rng.hpp"

namespace wormsim::fault {

std::string_view fault_kind_name(FaultKind kind) noexcept {
  switch (kind) {
    case FaultKind::LinkKill:
      return "kill-link";
    case FaultKind::LinkRestore:
      return "restore-link";
    case FaultKind::NodeKill:
      return "kill-node";
    case FaultKind::NodeRestore:
      return "restore-node";
  }
  return "?";
}

FaultSchedule::FaultSchedule(std::vector<FaultEvent> events)
    : events_(std::move(events)) {
  std::stable_sort(events_.begin(), events_.end(),
                   [](const FaultEvent& a, const FaultEvent& b) {
                     return a.cycle < b.cycle;
                   });
}

void FaultSchedule::write(std::ostream& out) const {
  for (const FaultEvent& e : events_) {
    out << e.cycle << ' ' << fault_kind_name(e.kind) << ' ' << e.node;
    if (e.kind == FaultKind::LinkKill || e.kind == FaultKind::LinkRestore) {
      out << ' ' << static_cast<unsigned>(e.channel);
    }
    out << '\n';
  }
}

FaultSchedule parse_schedule(std::istream& in) {
  std::vector<FaultEvent> events;
  std::string line;
  std::size_t lineno = 0;
  const auto bad = [&lineno](const std::string& what) {
    throw std::invalid_argument("fault schedule line " +
                                std::to_string(lineno) + ": " + what);
  };
  while (std::getline(in, line)) {
    ++lineno;
    if (const auto hash = line.find('#'); hash != std::string::npos) {
      line.erase(hash);
    }
    std::istringstream ls(line);
    FaultEvent e;
    std::string word;
    if ((ls >> std::ws).eof()) continue;  // blank / comment-only line
    if (!util::read_uint(ls, e.cycle)) bad("expected an unsigned cycle");
    if (!(ls >> word)) bad("expected an event kind after the cycle");
    bool link_event = false;
    if (word == "kill-link") {
      e.kind = FaultKind::LinkKill;
      link_event = true;
    } else if (word == "restore-link") {
      e.kind = FaultKind::LinkRestore;
      link_event = true;
    } else if (word == "kill-node") {
      e.kind = FaultKind::NodeKill;
    } else if (word == "restore-node") {
      e.kind = FaultKind::NodeRestore;
    } else {
      bad("unknown event kind '" + word + "'");
    }
    if (!util::read_uint(ls, e.node)) bad("expected an unsigned node id");
    if (link_event) {
      unsigned channel = 0;
      if (!util::read_uint(ls, channel)) {
        bad("expected an unsigned channel after the node");
      }
      if (channel > 0xFFu) bad("channel out of range");
      e.channel = static_cast<ChannelId>(channel);
    }
    if (ls >> word) bad("trailing text '" + word + "'");
    events.push_back(e);
  }
  return FaultSchedule(std::move(events));
}

FaultSchedule make_transient(const topo::KAryNCube& topo, std::uint64_t links,
                             Cycle at, Cycle duration, std::uint64_t seed) {
  // Physical (undirected) links: each directed (node, c) pairs with
  // (neighbor, c ^ 1), except k = 2 where both directions of a
  // dimension reach the same neighbor yet are still distinct cables.
  const std::size_t physical =
      static_cast<std::size_t>(topo.num_nodes()) * topo.num_channels() / 2;
  if (links > physical) {
    throw std::invalid_argument("transient preset: asked for " +
                                std::to_string(links) + " links but topology has " +
                                std::to_string(physical));
  }
  util::SplitMix64 rng(seed);
  std::set<std::uint64_t> chosen;  // canonical directed index per physical link
  std::vector<FaultEvent> events;
  while (chosen.size() < links) {
    const auto node = static_cast<NodeId>(rng.next() % topo.num_nodes());
    const auto channel =
        static_cast<ChannelId>(rng.next() % topo.num_channels());
    const std::uint64_t fwd =
        static_cast<std::uint64_t>(node) * topo.num_channels() + channel;
    const std::uint64_t rev =
        static_cast<std::uint64_t>(topo.neighbor(node, channel)) *
            topo.num_channels() +
        (channel ^ 1u);
    if (!chosen.insert(std::min(fwd, rev)).second) continue;
    events.push_back({at, FaultKind::LinkKill, node, channel});
    if (duration > 0) {
      events.push_back({at + duration, FaultKind::LinkRestore, node, channel});
    }
  }
  return FaultSchedule(std::move(events));
}

namespace {

Cycle parse_number(std::string_view text, const char* what) {
  Cycle value = 0;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc{} || ptr != text.data() + text.size()) {
    throw std::invalid_argument(std::string("--faults transient preset: bad ") +
                                what + " '" + std::string(text) + "'");
  }
  return value;
}

}  // namespace

FaultSchedule load_faults(std::string_view spec, const topo::KAryNCube& topo,
                          std::uint64_t seed) {
  constexpr std::string_view kTransient = "transient:";
  FaultSchedule schedule;
  if (spec.substr(0, kTransient.size()) == kTransient) {
    std::string_view rest = spec.substr(kTransient.size());
    const auto at_pos = rest.find('@');
    if (at_pos == std::string_view::npos) {
      throw std::invalid_argument(
          "--faults: expected transient:<links>@<cycle>[+<duration>]");
    }
    std::string_view cycle_part = rest.substr(at_pos + 1);
    Cycle duration = 0;
    if (const auto plus = cycle_part.find('+');
        plus != std::string_view::npos) {
      duration = parse_number(cycle_part.substr(plus + 1), "duration");
      cycle_part = cycle_part.substr(0, plus);
    }
    const Cycle links = parse_number(rest.substr(0, at_pos), "link count");
    const Cycle at = parse_number(cycle_part, "cycle");
    schedule = make_transient(topo, links, at, duration, seed);
  } else {
    std::ifstream in{std::string(spec)};
    if (!in) {
      throw std::invalid_argument("--faults: cannot open schedule file '" +
                                  std::string(spec) + "'");
    }
    schedule = parse_schedule(in);
  }
  validate(schedule, topo);
  return schedule;
}

void validate(const FaultSchedule& schedule, const topo::KAryNCube& topo) {
  for (const FaultEvent& e : schedule.events()) {
    if (e.node >= topo.num_nodes()) {
      throw std::invalid_argument(
          "fault schedule: node " + std::to_string(e.node) +
          " out of range for " + std::to_string(topo.num_nodes()) + " nodes");
    }
    if ((e.kind == FaultKind::LinkKill || e.kind == FaultKind::LinkRestore) &&
        e.channel >= topo.num_channels()) {
      throw std::invalid_argument(
          "fault schedule: channel " + std::to_string(e.channel) +
          " out of range for " + std::to_string(topo.num_channels()) +
          " channels");
    }
  }
}

}  // namespace wormsim::fault
