// The limiters' one interface, allow(req, ChannelStatus&) over a free-VC
// row, checked against plain predicates written here from the mechanism
// definitions: one VC at a time, no bit tricks shared with src/core.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/alo.hpp"
#include "core/alo_gates.hpp"
#include "core/dril.hpp"
#include "core/linear_function.hpp"
#include "fake_status.hpp"
#include "util/rng.hpp"

namespace wormsim::core {
namespace {

using testing::FakeStatus;
using testing::make_request;

bool vc_free(const std::uint8_t* row, unsigned c, unsigned v) {
  return ((row[c] >> v) & 1u) != 0;
}

/// ALO rules over the useful channels. `usable[c]` lists the VCs the
/// route offers on channel c (rule (a) looks only at those; 0 = all);
/// rule (b) always asks for every VC of the channel.
AloConditions reference_alo(const std::uint8_t* row, unsigned chans,
                            unsigned vcs, std::uint32_t useful,
                            const std::vector<std::uint32_t>& usable) {
  AloConditions cond;
  cond.all_useful_partially_free = true;
  for (unsigned c = 0; c < chans; ++c) {
    if (((useful >> c) & 1u) == 0) continue;
    bool some_usable_free = false;
    bool all_free = true;
    for (unsigned v = 0; v < vcs; ++v) {
      const bool offered = usable[c] == 0 || ((usable[c] >> v) & 1u) != 0;
      if (offered && vc_free(row, c, v)) some_usable_free = true;
      if (!vc_free(row, c, v)) all_free = false;
    }
    if (!some_usable_free) cond.all_useful_partially_free = false;
    if (all_free) cond.any_useful_completely_free = true;
  }
  return cond;
}

/// LF counts: busy and total VCs over the useful channels.
LinearFunctionLimiter::Counts reference_lf_counts(const std::uint8_t* row,
                                                  unsigned chans, unsigned vcs,
                                                  std::uint32_t useful) {
  LinearFunctionLimiter::Counts counts;
  for (unsigned c = 0; c < chans; ++c) {
    if (((useful >> c) & 1u) == 0) continue;
    for (unsigned v = 0; v < vcs; ++v) {
      ++counts.total;
      if (!vc_free(row, c, v)) ++counts.busy;
    }
  }
  return counts;
}

/// LF: busy useful VCs at most alpha times the useful VCs.
bool reference_lf(const std::uint8_t* row, unsigned chans, unsigned vcs,
                  std::uint32_t useful, double alpha) {
  const auto counts = reference_lf_counts(row, chans, vcs, useful);
  return static_cast<double>(counts.busy) <=
         alpha * static_cast<double>(counts.total);
}

/// Busy VCs over every channel of the row (what DRIL monitors).
unsigned reference_busy_total(const std::uint8_t* row, unsigned chans,
                              unsigned vcs) {
  unsigned busy = 0;
  for (unsigned c = 0; c < chans; ++c) {
    for (unsigned v = 0; v < vcs; ++v) {
      if (!vc_free(row, c, v)) ++busy;
    }
  }
  return busy;
}

/// DRIL as dril.hpp defines it: unrestricted until the head waits more
/// than `detect_wait`, then a threshold frozen at busy - margin (at
/// least 1, at most every VC), relaxed by one every `relax_period`
/// cycles until it reaches every VC, which unfreezes the node.
class ReferenceDril {
 public:
  ReferenceDril(unsigned nodes, std::uint64_t detect_wait, unsigned margin,
                std::uint64_t relax_period)
      : detect_wait_(detect_wait),
        margin_(margin),
        relax_period_(relax_period),
        state_(nodes) {}

  bool allow(NodeId node, std::uint64_t cycle, std::uint64_t head_wait,
             const std::uint8_t* row, unsigned chans, unsigned vcs) {
    const unsigned busy = reference_busy_total(row, chans, vcs);
    const unsigned total = chans * vcs;
    State& st = state_[node];
    if (!st.frozen) {
      if (head_wait <= detect_wait_) return true;
      st.frozen = true;
      st.threshold = busy > margin_ ? busy - margin_ : 1;
      if (st.threshold > total) st.threshold = total;
      if (st.threshold < 1) st.threshold = 1;
      st.last_relax = cycle;
    }
    while (cycle - st.last_relax >= relax_period_) {
      st.last_relax += relax_period_;
      ++st.threshold;
      if (st.threshold >= total) {
        st.frozen = false;
        return true;
      }
    }
    return busy < st.threshold;
  }
  bool frozen(NodeId node) const { return state_[node].frozen; }
  unsigned threshold(NodeId node) const { return state_[node].threshold; }

 private:
  struct State {
    bool frozen = false;
    unsigned threshold = 0;
    std::uint64_t last_relax = 0;
  };
  std::uint64_t detect_wait_;
  unsigned margin_;
  std::uint64_t relax_period_;
  std::vector<State> state_;
};

/// Random rows at 1-8 VCs and 1-16 channels; random routes with an
/// adaptive candidate per chosen channel (random VC subset) and, half
/// the time, a trailing escape candidate (the Duato shape). Every test
/// below walks the same stream: 60 shapes of 300 steps each.
class RandomStream {
 public:
  static constexpr unsigned kNodes = 4;

  /// Draws the next shape; false once all shapes are done.
  bool next_shape() {
    if (shape_ == kShapes) return false;
    ++shape_;
    step_ = 0;
    vcs = static_cast<unsigned>(rng_.between(1, 8));
    chans = static_cast<unsigned>(rng_.between(1, 16));
    all_vcs = (1u << vcs) - 1u;
    detect_wait = static_cast<std::uint64_t>(rng_.between(1, 20));
    margin = static_cast<unsigned>(rng_.below(6));
    relax = static_cast<std::uint64_t>(rng_.between(5, 60));
    status = FakeStatus(kNodes, chans, vcs);
    return true;
  }

  /// Draws the next step of the current shape; false once it is done.
  bool next_step() {
    if (step_ == kSteps) return false;
    t = step_++;
    node = static_cast<NodeId>(rng_.below(kNodes));
    // Skewed towards busy VCs so both ALO rules flip often.
    for (unsigned c = 0; c < chans; ++c) {
      const auto free = static_cast<std::uint32_t>(
          rng_.bits() & rng_.bits() & all_vcs);
      const bool whole = rng_.bernoulli(0.1);
      status.set_free(node, static_cast<ChannelId>(c), whole ? all_vcs : free);
    }
    row = status.free_row(node);

    route = routing::RouteResult{};
    usable.assign(chans, 0);
    for (unsigned c = 0; c < chans; ++c) {
      if (!rng_.bernoulli(0.4)) continue;
      const auto vc_mask = static_cast<std::uint32_t>(rng_.between(1, all_vcs));
      route.candidates.push_back({static_cast<ChannelId>(c), vc_mask, false});
      route.useful_phys_mask |= 1u << c;
      usable[c] |= vc_mask;
    }
    if (!route.candidates.empty() && rng_.bernoulli(0.5)) {
      const auto c = static_cast<unsigned>(rng_.below(chans));
      const auto vc_mask = static_cast<std::uint32_t>(rng_.between(1, all_vcs));
      route.candidates.push_back({static_cast<ChannelId>(c), vc_mask, true});
      route.useful_phys_mask |= 1u << c;
      usable[c] |= vc_mask;
    }
    req = make_request(node, route);
    req.cycle = t;
    req.head_wait = rng_.below(2 * detect_wait + 2);

    useful = static_cast<std::uint32_t>(rng_.below(std::uint64_t{1} << chans));
    alpha = static_cast<double>(rng_.below(11)) / 10.0;
    return true;
  }

  // Current shape.
  unsigned vcs = 0;
  unsigned chans = 0;
  std::uint32_t all_vcs = 0;
  std::uint64_t detect_wait = 0;
  unsigned margin = 0;
  std::uint64_t relax = 0;
  FakeStatus status{kNodes, 1, 1};

  // Current step.
  std::uint64_t t = 0;
  NodeId node = 0;
  const std::uint8_t* row = nullptr;
  routing::RouteResult route;
  /// VCs the route offers per channel (0 = channel not in the route).
  std::vector<std::uint32_t> usable;
  InjectionRequest req;
  /// A random useful mask for the unrouted ALO probe.
  std::uint32_t useful = 0;
  /// A random LF alpha in {0, 0.1, ..., 1}.
  double alpha = 0.0;

 private:
  static constexpr int kShapes = 60;
  static constexpr std::uint64_t kSteps = 300;
  util::Rng rng_{0x0A10};
  int shape_ = 0;
  std::uint64_t step_ = 0;
};

std::string shape_trace(const RandomStream& s) {
  return "chans " + std::to_string(s.chans) + " vcs " + std::to_string(s.vcs);
}

/// Every limiter through the one interface, InjectionLimiter::allow over
/// a ChannelStatus row, built by make_limiter: None always admits, ALO
/// is the routed gate, LF is alpha in {0, 0.1, ..., 1}, DRIL is a
/// reference model fed the same request stream.
TEST(Limiter, RowInterfaceMatchesReference) {
  RandomStream s;
  while (s.next_shape()) {
    SCOPED_TRACE(shape_trace(s));
    LimiterConfig cfg;
    cfg.dril_detect_wait = s.detect_wait;
    cfg.dril_margin = s.margin;
    cfg.dril_relax_period = s.relax;
    cfg.kind = LimiterKind::None;
    const auto none = make_limiter(cfg, RandomStream::kNodes);
    cfg.kind = LimiterKind::ALO;
    const auto alo = make_limiter(cfg, RandomStream::kNodes);
    cfg.kind = LimiterKind::DRIL;
    const auto dril = make_limiter(cfg, RandomStream::kNodes);
    ReferenceDril ref_dril(RandomStream::kNodes, s.detect_wait, s.margin,
                           s.relax);
    while (s.next_step()) {
      ASSERT_TRUE(none->allow(s.req, s.status)) << "t " << s.t;
      ASSERT_EQ(alo->allow(s.req, s.status),
                reference_alo(s.row, s.chans, s.vcs, s.route.useful_phys_mask,
                              s.usable)
                    .allow())
          << "t " << s.t;
      cfg.kind = LimiterKind::LF;
      cfg.lf_alpha = s.alpha;
      ASSERT_EQ(make_limiter(cfg, RandomStream::kNodes)->allow(s.req, s.status),
                reference_lf(s.row, s.chans, s.vcs, s.route.useful_phys_mask,
                             s.alpha))
          << "t " << s.t << " alpha " << s.alpha;
      ASSERT_EQ(dril->allow(s.req, s.status),
                ref_dril.allow(s.node, s.t, s.req.head_wait, s.row, s.chans,
                               s.vcs))
          << "t " << s.t << " node " << s.node;
    }
  }
}

/// The ALO evaluators over the row: both rules of the routed gate, the
/// unrouted Figure-2 probe, and the Figure-3 gate circuit (zero useful
/// channels included: vacuous).
TEST(AloRowTwin, MatchesChannelStatusEvaluatorsOnRandomState) {
  RandomStream s;
  while (s.next_shape()) {
    SCOPED_TRACE(shape_trace(s));
    const bool gates_fit = s.chans * s.vcs <= 64;
    const AloGateCircuit circuit(gates_fit ? s.chans : 1,
                                 gates_fit ? s.vcs : 1);
    while (s.next_step()) {
      const AloConditions want_routed = reference_alo(
          s.row, s.chans, s.vcs, s.route.useful_phys_mask, s.usable);
      const AloConditions routed = evaluate_alo_routed(s.row, s.vcs, s.route);
      ASSERT_EQ(routed.all_useful_partially_free,
                want_routed.all_useful_partially_free)
          << "t " << s.t;
      ASSERT_EQ(routed.any_useful_completely_free,
                want_routed.any_useful_completely_free)
          << "t " << s.t;

      const AloConditions want =
          reference_alo(s.row, s.chans, s.vcs, s.useful,
                        std::vector<std::uint32_t>(s.chans, 0));
      const AloConditions plain = evaluate_alo(s.row, s.vcs, s.useful);
      ASSERT_EQ(plain.all_useful_partially_free,
                want.all_useful_partially_free)
          << "t " << s.t;
      ASSERT_EQ(plain.any_useful_completely_free,
                want.any_useful_completely_free)
          << "t " << s.t;
      if (gates_fit) {
        ASSERT_EQ(circuit.evaluate(circuit.pack_busy_bits(s.row), s.useful),
                  want.allow())
            << "t " << s.t;
      }
    }
  }
}

/// LF's evaluator over the row: busy and total useful VCs, for the
/// route's useful channels and for a random useful mask.
TEST(LinearFunctionRowTwin, MatchesChannelStatusPathOnRandomState) {
  RandomStream s;
  while (s.next_shape()) {
    SCOPED_TRACE(shape_trace(s));
    while (s.next_step()) {
      for (const std::uint32_t useful : {s.route.useful_phys_mask, s.useful}) {
        const auto got =
            LinearFunctionLimiter::count_useful(s.row, s.vcs, useful);
        const auto want = reference_lf_counts(s.row, s.chans, s.vcs, useful);
        ASSERT_EQ(got.busy, want.busy) << "t " << s.t << " useful " << useful;
        ASSERT_EQ(got.total, want.total)
            << "t " << s.t << " useful " << useful;
      }
    }
  }
}

/// DRIL is stateful, so the limiter and the reference model see the same
/// request stream and must agree on every decision and every node's
/// frozen state and threshold; its busy count reads the whole row.
TEST(DrilRowTwin, LockStepWithChannelStatusPathOnRandomStream) {
  RandomStream s;
  while (s.next_shape()) {
    SCOPED_TRACE(shape_trace(s));
    DrilLimiter dril(RandomStream::kNodes, s.detect_wait, s.margin, s.relax);
    ReferenceDril ref_dril(RandomStream::kNodes, s.detect_wait, s.margin,
                           s.relax);
    while (s.next_step()) {
      ASSERT_EQ(DrilLimiter::busy_total(s.row, s.chans, s.vcs),
                reference_busy_total(s.row, s.chans, s.vcs))
          << "t " << s.t;
      ASSERT_EQ(dril.allow(s.req, s.status),
                ref_dril.allow(s.node, s.t, s.req.head_wait, s.row, s.chans,
                               s.vcs))
          << "t " << s.t << " node " << s.node;
      for (NodeId n = 0; n < RandomStream::kNodes; ++n) {
        ASSERT_EQ(dril.frozen(n), ref_dril.frozen(n)) << "t " << s.t;
        if (dril.frozen(n)) {
          ASSERT_EQ(dril.threshold(n), ref_dril.threshold(n)) << "t " << s.t;
        }
      }
    }
  }
}

}  // namespace
}  // namespace wormsim::core
