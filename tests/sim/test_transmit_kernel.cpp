// The transmit kernel against a plain reference arbiter. On random VC
// rows (tenancy, occupancy, a feeder or none, the feeder's backlog,
// rr_next and, under Credit, outstanding credits) every link's send, or
// no send, must be the reference loop's, and so must the state the phase
// leaves behind. This checks the kernel's pick against the arbitration
// rule itself; tests/reference/ checks the whole cycle around it.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <ostream>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "sim/flow_control.hpp"
#include "sim/network.hpp"
#include "util/rng.hpp"

namespace wormsim::sim {
namespace {

struct Send {
  VcRef to, up;
  bool freed = false;
  friend bool operator==(const Send&, const Send&) = default;
  friend void PrintTo(const Send& s, std::ostream* os) {
    *os << "{to " << s.to.link << "/" << s.to.vc << ", up " << s.up.link
        << "/" << s.up.vc << (s.freed ? ", tail}" : "}");
  }
};

/// How often the reference took each branch, summed over trials, so a
/// draw that never reaches one of them shows up.
struct Outcomes {
  unsigned full = 0, no_feeder = 0, empty_feeder = 0, vetoed = 0, sent = 0,
           freed = 0;
};

/// The credit loop's half of a send, as the simulator's after-send hook
/// runs it.
void credit_send(const Network& net, CreditFlowControl& credit, VcRef to,
                 VcRef up, Cycle now) {
  credit.on_flit_sent(net.vc_flat_index(to));
  if (!net.is_injection(up.link)) {
    credit.on_flit_drained(net.vc_flat_index(up), now);
  }
}

/// The arbitration rule as a plain loop: links in ascending order; on
/// each, its tenant VCs in round-robin order from rr_next, skipping a
/// full VC, one with no feeder, one whose feeder is empty and, last, one
/// the credits veto; the first that passes sends, and rr_next moves past
/// it.
std::vector<Send> reference_transmit(Network& net, CreditFlowControl* credit,
                                     Cycle now, Outcomes& seen) {
  const unsigned vcs = net.params().num_vcs;
  const unsigned cap = net.params().buf_flits;
  std::vector<Send> sends;
  for (LinkId l = 0; l < net.num_net_links(); ++l) {
    Link& link = net.link(l);
    for (unsigned i = 0; i < vcs; ++i) {
      const unsigned v = (link.rr_next + i) % vcs;
      if ((unsigned{link.active_vc_mask} >> v & 1u) == 0) continue;
      const VcRef to{l, v};
      VcState& d = net.vc(to);
      if (d.occupancy >= cap) {
        ++seen.full;
        continue;
      }
      if (!d.upstream.valid()) {
        ++seen.no_feeder;
        continue;
      }
      const VcRef up = d.upstream;
      VcState& u = net.vc(up);
      if (u.buffered() == 0) {
        ++seen.empty_feeder;
        continue;
      }
      if (credit && !credit->may_send(net.vc_flat_index(to), cap)) {
        ++seen.vetoed;
        continue;
      }
      ++d.occupancy;
      net.mark_progress(to, now);
      ++u.out_count;
      --u.occupancy;
      u.last_activity = now;
      const bool freed = u.out_count == d.msg_length;
      if (freed) {
        d.upstream = VcRef{};
        net.set_active(up, false);
        u.clear();
      }
      if (credit) credit_send(net, *credit, to, up, now);
      sends.push_back({to, up, freed});
      ++seen.sent;
      seen.freed += freed;
      link.rr_next = static_cast<std::uint8_t>((v + 1) % vcs);
      break;
    }
  }
  return sends;
}

std::vector<Send> kernel_transmit(Network& net, CreditFlowControl* credit,
                                  Cycle now) {
  std::vector<Send> sends;
  const auto after_send = [&](VcRef to, VcRef up, bool freed) {
    if (credit) credit_send(net, *credit, to, up, now);
    sends.push_back({to, up, freed});
  };
  net.transmit(now, static_cast<const CreditFlowControl*>(credit), &after_send);
  return sends;
}

/// Draw the same random state into `net` (and `credit`) for one seed:
/// three quarters of all VCs (injection VCs included) hold a tenant with
/// a random backlog and occupancy, three quarters of the network-link
/// tenants get a feeder among the free-to-feed tenants of the links into
/// their source, and every credit count lies in [occupancy, buf_flits].
void draw_state(Network& net, CreditFlowControl* credit, std::uint64_t seed) {
  util::SplitMix64 rng(seed);
  const auto pick = [&rng](unsigned n) {
    return static_cast<unsigned>(rng.next() % n);
  };
  const unsigned cap = net.params().buf_flits;
  const auto length = static_cast<std::uint16_t>(1 + pick(4));
  MsgId msg = 0;
  for (LinkId l = 0; l < net.num_links(); ++l) {
    for (unsigned v = 0; v < net.vcs_on(l); ++v) {
      if (pick(4) == 0) continue;
      const VcRef ref{l, v};
      VcState& s = net.vc(ref);
      s.msg = msg++;
      s.msg_length = length;
      s.in_count = static_cast<std::uint16_t>(pick(length + 1u));
      const unsigned room = net.is_injection(l) ? s.in_count : cap;
      const unsigned buffered = pick(std::min<unsigned>(s.in_count, room) + 1);
      s.out_count = static_cast<std::uint16_t>(s.in_count - buffered);
      s.occupancy =
          static_cast<std::uint8_t>(buffered + pick(room - buffered + 1));
      net.set_active(ref, true);
    }
    if (!net.is_injection(l)) {
      net.link(l).rr_next = static_cast<std::uint8_t>(pick(net.vcs_on(l)));
    }
  }
  std::vector<std::vector<LinkId>> into(net.topology().num_nodes());
  for (LinkId f = 0; f < net.num_links(); ++f) into[net.link(f).dst].push_back(f);
  for (LinkId l = 0; l < net.num_net_links(); ++l) {
    for (unsigned v = 0; v < net.vcs_on(l); ++v) {
      VcState& d = net.vc(VcRef{l, v});
      if (d.free() || pick(4) == 0) continue;
      std::vector<VcRef> feeders;
      for (const LinkId f : into[net.link(l).src]) {
        for (unsigned fv = 0; fv < net.vcs_on(f); ++fv) {
          const VcState& u = net.vc(VcRef{f, fv});
          if (!u.free() && u.out_kind == VcState::OutKind::None) {
            feeders.push_back(VcRef{f, fv});
          }
        }
      }
      if (feeders.empty()) continue;
      const VcRef up = feeders[pick(static_cast<unsigned>(feeders.size()))];
      net.vc(up).out_kind = VcState::OutKind::Vc;
      net.vc(up).out = VcRef{l, v};
      d.upstream = up;
    }
  }
  if (credit == nullptr) return;
  for (LinkId l = 0; l < net.num_net_links(); ++l) {
    for (unsigned v = 0; v < net.vcs_on(l); ++v) {
      const VcRef ref{l, v};
      const unsigned occupancy = net.vc(ref).occupancy;
      const unsigned in_use = occupancy + pick(cap - occupancy + 1);
      for (unsigned c = 0; c < in_use; ++c) {
        credit->on_flit_sent(net.vc_flat_index(ref));
      }
    }
  }
}

void expect_same_state(const Network& a, const Network& b,
                       const CreditFlowControl* ca,
                       const CreditFlowControl* cb) {
  for (LinkId l = 0; l < a.num_links(); ++l) {
    ASSERT_EQ(a.link(l).rr_next, b.link(l).rr_next) << "link " << l;
    ASSERT_EQ(a.link(l).active_vc_mask, b.link(l).active_vc_mask)
        << "link " << l;
    if (!a.is_injection(l)) {
      ASSERT_EQ(a.tenant_links().contains(l), b.tenant_links().contains(l));
    }
    for (unsigned v = 0; v < a.vcs_on(l); ++v) {
      const VcRef ref{l, v};
      const auto fields = [](const VcState& s) {
        return std::tuple(s.msg, s.in_count, s.out_count, s.occupancy,
                          s.out_kind, s.out, s.upstream, s.last_activity);
      };
      ASSERT_EQ(fields(a.vc(ref)), fields(b.vc(ref)))
          << "link " << l << " vc " << v;
      ASSERT_EQ(a.progress(ref), b.progress(ref)) << "link " << l << " vc " << v;
    }
  }
  if (ca == nullptr) return;
  const unsigned chans = a.num_phys_channels();
  for (NodeId node = 0; node < a.topology().num_nodes(); ++node) {
    const std::vector<std::uint8_t> row(ca->free_row(node),
                                        ca->free_row(node) + chans);
    ASSERT_EQ(row, std::vector<std::uint8_t>(cb->free_row(node),
                                             cb->free_row(node) + chans))
        << "credit row of node " << node;
  }
}

/// Two cycles of the transmit phase on each of many random states, at
/// every VC count the kernel is instantiated for, with or without the
/// credit veto (an ideal credit loop, so a drain returns its credit
/// within the phase).
void check_against_reference(bool with_credit) {
  const topo::KAryNCube topo(4, 2);
  Outcomes seen;
  for (unsigned vcs = 1; vcs <= 8; ++vcs) {
    for (std::uint64_t seed = 0; seed < 24; ++seed) {
      SCOPED_TRACE("vcs=" + std::to_string(vcs) +
                   " seed=" + std::to_string(seed));
      NetworkParams p;
      p.num_vcs = vcs;
      p.buf_flits = 1u << (seed % 3);  // 1, 2 or 4
      p.inj_channels = 2;
      p.eje_channels = 2;
      p.link_delay = 2;
      Network kernel_net(topo, p);
      Network reference_net(topo, p);
      std::unique_ptr<CreditFlowControl> kernel_credit;
      std::unique_ptr<CreditFlowControl> reference_credit;
      if (with_credit) {
        kernel_credit = std::make_unique<CreditFlowControl>(kernel_net, 0);
        reference_credit =
            std::make_unique<CreditFlowControl>(reference_net, 0);
      }
      draw_state(kernel_net, kernel_credit.get(), seed * 9 + vcs);
      draw_state(reference_net, reference_credit.get(), seed * 9 + vcs);
      for (Cycle now = 0; now < 2; ++now) {
        kernel_net.process_arrivals(now, [](VcRef) {});
        const std::vector<Send> got =
            kernel_transmit(kernel_net, kernel_credit.get(), now);
        const std::vector<Send> want = reference_transmit(
            reference_net, reference_credit.get(), now, seen);
        ASSERT_EQ(got.size(), want.size()) << "cycle " << now;
        for (std::size_t i = 0; i < got.size(); ++i) {
          ASSERT_EQ(got[i], want[i]) << "cycle " << now << ", send " << i
                                     << " to link " << want[i].to.link;
        }
        const std::span<const VcRef> wire =
            kernel_net.wire_bucket(static_cast<unsigned>(
                (now + p.link_delay) % (p.link_delay + 1)));
        ASSERT_EQ(wire.size(), want.size());
        for (std::size_t i = 0; i < wire.size(); ++i) {
          ASSERT_EQ(wire[i], want[i].to);
        }
        expect_same_state(kernel_net, reference_net, kernel_credit.get(),
                          reference_credit.get());
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
  }
  EXPECT_GT(seen.full, 0u);
  EXPECT_GT(seen.no_feeder, 0u);
  EXPECT_GT(seen.empty_feeder, 0u);
  EXPECT_GT(seen.sent, 0u);
  EXPECT_GT(seen.freed, 0u);
  if (with_credit) {
    EXPECT_GT(seen.vetoed, 0u);
  }
}

TEST(TransmitKernel, PicksLikeTheReferenceArbiterUnderWormhole) {
  check_against_reference(/*with_credit=*/false);
}

TEST(TransmitKernel, PicksLikeTheReferenceArbiterUnderCredit) {
  check_against_reference(/*with_credit=*/true);
}

}  // namespace
}  // namespace wormsim::sim
