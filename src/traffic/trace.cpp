#include "traffic/trace.hpp"

#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "util/read_uint.hpp"

namespace wormsim::traffic {

namespace {
constexpr const char* kHeader = "#wormsim-trace v1";
}

void Trace::add(const TraceRecord& r) {
  if (!records_.empty() && r.cycle < records_.back().cycle) {
    throw std::invalid_argument("trace records must be added in cycle order");
  }
  records_.push_back(r);
}

void Trace::validate(const topo::KAryNCube& topo) const {
  std::uint64_t last = 0;
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const TraceRecord& r = records_[i];
    const auto where = " at record " + std::to_string(i);
    if (r.src >= topo.num_nodes() || r.dst >= topo.num_nodes()) {
      throw std::invalid_argument("trace node id out of range" + where);
    }
    if (r.src == r.dst) {
      throw std::invalid_argument("trace record is self-addressed" + where);
    }
    if (r.length == 0) {
      throw std::invalid_argument("trace record has zero length" + where);
    }
    if (r.cycle < last) {
      throw std::invalid_argument("trace records out of order" + where);
    }
    last = r.cycle;
  }
}

void Trace::save(std::ostream& out) const {
  out << kHeader << '\n';
  for (const TraceRecord& r : records_) {
    out << r.cycle << ' ' << r.src << ' ' << r.dst << ' ' << r.length << '\n';
  }
}

Trace Trace::load(std::istream& in) {
  Trace trace;
  std::string line;
  bool saw_header = false;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty()) continue;
    if (line[0] == '#') {
      if (line == kHeader) saw_header = true;
      continue;
    }
    std::istringstream ls(line);
    TraceRecord r;
    std::string rest;
    if (!(util::read_uint(ls, r.cycle) && util::read_uint(ls, r.src) &&
          util::read_uint(ls, r.dst) && util::read_uint(ls, r.length)) ||
        ls >> rest) {
      throw std::invalid_argument("malformed trace line " +
                                  std::to_string(lineno) + ": " + line);
    }
    check_message_length(r.length,
                         "trace line " + std::to_string(lineno) + ": ");
    trace.add(r);
  }
  if (!saw_header) {
    throw std::invalid_argument("missing '#wormsim-trace v1' header");
  }
  return trace;
}

Trace Trace::from_workload(const topo::KAryNCube& topo,
                           const WorkloadConfig& cfg, std::uint64_t seed,
                           std::uint64_t cycles) {
  Workload workload(topo, cfg, seed);
  Trace trace;
  util::SmallVector<GeneratedMessage, 8> buf;
  for (std::uint64_t t = 0; t < cycles; ++t) {
    for (NodeId node = 0; node < topo.num_nodes(); ++node) {
      buf.clear();
      workload.poll(node, t, buf);
      for (const auto& g : buf) {
        trace.add({t, node, g.dst, g.length_flits});
      }
    }
  }
  return trace;
}

}  // namespace wormsim::traffic
