#include "sim/network.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "sim/flow_control.hpp"

namespace wormsim::sim {
namespace {

NetworkParams small_params() {
  NetworkParams p;
  p.num_vcs = 3;
  p.buf_flits = 4;
  p.inj_channels = 2;
  p.eje_channels = 2;
  p.link_delay = 2;
  return p;
}

/// One send of the transmit phase: the VC the flit went to, and whether
/// its tail left the feeder.
struct Sent {
  VcRef to;
  bool freed = false;
};

/// Run the transmit phase once in cycle `now` (the cycle already open on
/// the wire), with no credit veto, and return its sends in link order.
std::vector<Sent> transmit(Network& net, Cycle now) {
  std::vector<Sent> sent;
  const auto record = [&](VcRef to, VcRef, bool freed) {
    sent.push_back({to, freed});
  };
  net.transmit(now, static_cast<const CreditFlowControl*>(nullptr), &record);
  return sent;
}

class NetworkTest : public ::testing::Test {
 protected:
  /// Send one flit from `from` along its allocated output in cycle
  /// `now` through the transmit phase, which must find no other flit to
  /// send. The cycle opens on the wire first, as the simulator's
  /// arrivals phase does. Returns true if the tail left `from`.
  bool send(VcRef from, Cycle now) {
    net_.process_arrivals(now, [](VcRef) {});
    const VcRef out = net_.vc(from).out;
    const std::vector<Sent> sent = transmit(net_, now);
    EXPECT_EQ(sent.size(), 1u);
    if (sent.empty()) return false;
    EXPECT_EQ(sent[0].to, out);
    return sent[0].freed;
  }

  topo::KAryNCube topo_{4, 2};
  Network net_{topo_, small_params()};
};

TEST_F(NetworkTest, LinkCounts) {
  EXPECT_EQ(net_.num_net_links(), 16u * 4u);
  EXPECT_EQ(net_.num_inj_links(), 16u * 2u);
  EXPECT_EQ(net_.num_links(), 96u);
}

TEST_F(NetworkTest, ParamsValidation) {
  NetworkParams bad = small_params();
  bad.num_vcs = 0;
  EXPECT_THROW(Network(topo_, bad), std::invalid_argument);
  bad = small_params();
  bad.num_vcs = 9;
  EXPECT_THROW(Network(topo_, bad), std::invalid_argument);
  bad = small_params();
  bad.link_delay = 0;
  EXPECT_THROW(Network(topo_, bad), std::invalid_argument);
  bad = small_params();
  bad.buf_flits = 0;
  EXPECT_THROW(Network(topo_, bad), std::invalid_argument);
}

/// VcState is 32-aligned so each record stays within one cache line;
/// the hand-aligned storage must deliver that for any row count.
TEST(NetworkLimits, VcStorageIs32ByteAligned) {
  for (const auto& [k, n] : {std::pair{4u, 2u}, {3u, 1u}, {8u, 3u}}) {
    const topo::KAryNCube topo(k, n);
    for (unsigned inj = 1; inj <= 3; ++inj) {
      NetworkParams p = small_params();
      p.inj_channels = inj;
      Network net(topo, p);
      EXPECT_EQ(reinterpret_cast<std::uintptr_t>(&net.vc(VcRef{0, 0})) % 32,
                0u);
      EXPECT_EQ(reinterpret_cast<std::uintptr_t>(net.inj_vc_row(0)) % 32, 0u);
      EXPECT_TRUE(net.vc(VcRef{0, 0}).free());
      EXPECT_TRUE(net.inj_vc_row(topo.num_nodes() - 1)[inj - 1].free());
    }
  }
}

/// The constructor's 29-bit link-id budget, through its counting helper
/// (a network that large cannot be built in a test).
TEST(NetworkLimits, LinkCountBudget) {
  EXPECT_EQ(Network::count_links(16, 4, 2), 96u);
  // 2^26 nodes of an 8-ary 3-cube-like degree 6 plus 2 injection
  // channels need 2^29 links: one more than VcRef can name.
  EXPECT_GE(Network::count_links(std::uint64_t{1} << 26, 6, 2), kNoLink);
  EXPECT_LT(Network::count_links((std::uint64_t{1} << 26) - 1, 6, 2),
            kNoLink);
  // Products past 32 bits are counted, not wrapped.
  EXPECT_EQ(Network::count_links(std::uint64_t{1} << 32, 6, 2),
            std::uint64_t{1} << 35);
}

TEST_F(NetworkTest, LinkEndpointsMatchTopology) {
  for (topo::NodeId node = 0; node < topo_.num_nodes(); ++node) {
    for (unsigned c = 0; c < topo_.num_channels(); ++c) {
      const Link& l = net_.link(net_.net_link(node, static_cast<topo::ChannelId>(c)));
      EXPECT_EQ(l.src, node);
      EXPECT_EQ(l.dst, topo_.neighbor(node, static_cast<topo::ChannelId>(c)));
      EXPECT_EQ(l.src_channel, c);
    }
    for (unsigned i = 0; i < 2; ++i) {
      const Link& l = net_.link(net_.inj_link(node, i));
      EXPECT_EQ(l.src, topo::kInvalidNode);
      EXPECT_EQ(l.dst, node);
      EXPECT_TRUE(net_.is_injection(net_.inj_link(node, i)));
    }
  }
}

TEST_F(NetworkTest, FreshNetworkFullyFree) {
  EXPECT_TRUE(net_.quiescent());
  EXPECT_EQ(net_.flits_in_network(), 0u);
  for (topo::NodeId node = 0; node < topo_.num_nodes(); ++node) {
    for (unsigned c = 0; c < topo_.num_channels(); ++c) {
      EXPECT_EQ(net_.free_vc_mask(node, static_cast<topo::ChannelId>(c)),
                0b111u);
    }
    EXPECT_EQ(net_.find_free_eject_port(node), 0);
    EXPECT_EQ(net_.find_free_inj_channel(node), 0);
  }
}

TEST_F(NetworkTest, AllocationUpdatesStatusRegister) {
  const VcRef from{net_.inj_link(0, 0), 0};
  net_.vc(from).msg = 7;
  net_.set_active(from, true);

  const VcRef out{net_.net_link(0, 2), 1};
  net_.allocate_out_vc(from, out, 7, /*now=*/5);

  EXPECT_EQ(net_.free_vc_mask(0, 2), 0b101u);  // VC 1 now busy
  EXPECT_EQ(net_.vc(out).msg, 7u);
  EXPECT_EQ(net_.vc(out).upstream.link, from.link);
  EXPECT_EQ(net_.vc(from).out_kind, VcState::OutKind::Vc);
  EXPECT_FALSE(net_.quiescent());
}

TEST_F(NetworkTest, TransmitMovesOneFlitAndReservesSpace) {
  const VcRef from{net_.inj_link(0, 0), 0};
  VcState& u = net_.vc(from);
  u.msg = 3;
  u.msg_length = 16;
  u.in_count = 4;  // four flits written, 16 total
  u.occupancy = 4;
  net_.set_active(from, true);

  const VcRef out{net_.net_link(0, 0), 0};
  net_.allocate_out_vc(from, out, 3, 0);
  EXPECT_EQ(net_.vc(out).msg_length, 16u);  // mirrored down the worm
  EXPECT_EQ(net_.progress(out), 0u);        // new tenancy stamped

  EXPECT_FALSE(send(from, /*now=*/10));
  EXPECT_EQ(u.out_count, 1u);
  EXPECT_EQ(u.occupancy, 3u);
  EXPECT_EQ(net_.vc(out).occupancy, 1u);   // reserved while in flight
  EXPECT_EQ(net_.vc(out).in_count, 0u);    // not arrived yet
  EXPECT_EQ(net_.wire_flits(), 1u);
  // Due in cycle 12: bucket 12 mod (link_delay + 1).
  ASSERT_EQ(net_.wire_bucket(0).size(), 1u);
  EXPECT_EQ(net_.wire_bucket(0)[0], out);
  EXPECT_EQ(net_.progress(out), 10u);  // the send stamps the served VC
  EXPECT_EQ(u.last_activity, 10u);

  // Arrival lands after link_delay.
  bool header_seen = false;
  net_.process_arrivals(11, [&](VcRef) { header_seen = true; });
  EXPECT_FALSE(header_seen);
  EXPECT_EQ(net_.vc(out).in_count, 0u);
  net_.process_arrivals(12, [&](VcRef r) {
    header_seen = true;
    EXPECT_EQ(r.link, out.link);
    EXPECT_EQ(r.vc, out.vc);
  });
  EXPECT_TRUE(header_seen);
  EXPECT_EQ(net_.vc(out).in_count, 1u);
  EXPECT_EQ(net_.vc(out).buffered(), 1u);
  EXPECT_EQ(net_.vc(out).last_activity, 12u);
  EXPECT_EQ(net_.wire_flits(), 0u);
  EXPECT_TRUE(net_.wire_bucket(0).empty());
}

/// absorb_drop removes exactly the absorbed VC's flits from the wire,
/// from every arrival bucket, and leaves every other entry in place and
/// in order; the survivors still arrive on time. Four worms, two of them
/// sharing a link, send for link_delay cycles, so every bucket but the
/// due one holds flits when one worm is absorbed (at link_delay 1 the
/// second of the pair has sent nothing yet).
TEST(WireTest, AbsorbDropRemovesOnlyThatVc) {
  const topo::KAryNCube topo(4, 2);
  for (const unsigned delay : {1u, 2u, 4u, 7u}) {
    for (unsigned victim = 0; victim < 4; ++victim) {
      SCOPED_TRACE("delay=" + std::to_string(delay) +
                   " victim=" + std::to_string(victim));
      NetworkParams p = small_params();
      p.link_delay = delay;
      p.buf_flits = 8;  // room for a flit sent every cycle
      Network net(topo, p);
      struct Worm {
        VcRef from, out;
        unsigned sent = 0;
      };
      std::vector<Worm> worms = {
          {{net.inj_link(0, 0), 0}, {net.net_link(0, 0), 0}},
          {{net.inj_link(0, 1), 0}, {net.net_link(0, 0), 2}},
          {{net.inj_link(1, 0), 0}, {net.net_link(1, 2), 1}},
          {{net.inj_link(2, 0), 0}, {net.net_link(2, 1), 0}},
      };
      MsgId id = 1;
      for (Worm& w : worms) {
        VcState& u = net.vc(w.from);
        u.msg = id;
        u.msg_length = 16;
        u.in_count = 16;
        u.occupancy = 16;
        net.set_active(w.from, true);
        net.allocate_out_vc(w.from, w.out, id++, 0);
      }
      // Worms 0 and 1 share a link, so round robin alternates them; worm
      // 3's source writes one flit every third cycle.
      net.vc(worms[3].from).in_count = 0;
      const auto sends_in = [](unsigned worm, Cycle t) {
        return worm == 0 ? t % 2 == 0
             : worm == 1 ? t % 2 == 1
             : worm == 2 ? true
                         : t % 3 == 0;
      };
      std::vector<std::vector<VcRef>> expect(delay + 1);
      for (Cycle t = 0; t < delay; ++t) {
        net.process_arrivals(t, [](VcRef) { FAIL() << "nothing is due"; });
        if (t % 3 == 0) ++net.vc(worms[3].from).in_count;
        std::vector<VcRef> want;
        for (unsigned k = 0; k < worms.size(); ++k) {
          if (!sends_in(k, t)) continue;
          Worm& w = worms[k];
          want.push_back(w.out);
          ++w.sent;
          if (k != victim) expect[(t + delay) % (delay + 1)].push_back(w.out);
        }
        std::vector<VcRef> got;
        for (const Sent& s : transmit(net, t)) got.push_back(s.to);
        ASSERT_EQ(got, want) << "cycle " << t;
      }
      const VcRef gone = worms[victim].out;
      // A VC with nothing on the wire (every injection VC) is a no-op.
      const std::uint64_t before = net.wire_flits();
      net.absorb_drop(worms[victim].from);
      EXPECT_EQ(net.wire_flits(), before);

      net.absorb_drop(gone);
      EXPECT_EQ(net.wire_flits(), before - worms[victim].sent);
      for (unsigned b = 0; b < net.wire_buckets(); ++b) {
        const std::span<const VcRef> bucket = net.wire_bucket(b);
        EXPECT_EQ(std::vector<VcRef>(bucket.begin(), bucket.end()),
                  expect[b])
            << "bucket " << b;
      }
      // Freed, the victim's slot must receive nothing more (arrivals
      // asserts a live tenant); the others receive every flit sent.
      net.force_free(gone);
      for (Cycle t = delay; t < 2 * delay; ++t) {
        net.process_arrivals(t, [](VcRef) {});
      }
      EXPECT_EQ(net.wire_flits(), 0u);
      EXPECT_TRUE(net.vc(gone).free());
      for (unsigned k = 0; k < worms.size(); ++k) {
        if (k == victim) continue;
        EXPECT_EQ(net.vc(worms[k].out).in_count, worms[k].sent) << "worm " << k;
      }
    }
  }
}

TEST_F(NetworkTest, TailDepartureFreesVc) {
  const VcRef from{net_.inj_link(0, 0), 0};
  VcState& u = net_.vc(from);
  u.msg = 3;
  u.msg_length = 2;
  u.in_count = 2;  // a 2-flit message fully buffered
  u.occupancy = 2;
  net_.set_active(from, true);

  const VcRef out{net_.net_link(0, 0), 2};
  net_.allocate_out_vc(from, out, 3, 0);

  EXPECT_FALSE(send(from, 0));
  EXPECT_TRUE(send(from, 1));  // tail left
  EXPECT_EQ(net_.progress(out), 1u);
  EXPECT_TRUE(net_.vc(from).free());
  EXPECT_EQ(net_.find_free_inj_channel(0), 0);
  // Downstream keeps its tenancy but loses the upstream reference.
  EXPECT_EQ(net_.vc(out).msg, 3u);
  EXPECT_FALSE(net_.vc(out).upstream.valid());
}

/// A worm's progress is the maximum stamp over its chain, so a stamp on
/// an upstream VC counts until that VC's tail leaves — and the tail's
/// send stamps the downstream VC in the same call.
TEST_F(NetworkTest, WormProgressIsChainMaximum) {
  const VcRef a{net_.inj_link(0, 0), 0};
  VcState& u = net_.vc(a);
  u.msg = 4;
  u.msg_length = 3;
  u.in_count = 3;
  u.occupancy = 3;
  net_.set_active(a, true);
  net_.mark_progress(a, 2);
  const VcRef b{net_.net_link(0, 1), 1};
  net_.allocate_out_vc(a, b, 4, 5);
  EXPECT_EQ(net_.worm_progress(b), 5u);
  net_.mark_progress(a, 9);  // e.g. injection streaming upstream
  EXPECT_EQ(net_.progress(b), 5u);
  EXPECT_EQ(net_.worm_progress(b), 9u);
  EXPECT_FALSE(send(a, 10));
  EXPECT_FALSE(send(a, 11));
  EXPECT_TRUE(send(a, 12));  // tail left: `a` drops out of the chain
  EXPECT_FALSE(net_.vc(b).upstream.valid());
  EXPECT_EQ(net_.worm_progress(b), 12u);
}

TEST_F(NetworkTest, ForceFreeClearsDownstreamBacklink) {
  const VcRef a{net_.inj_link(0, 0), 0};
  net_.vc(a).msg = 9;
  net_.vc(a).in_count = 1;
  net_.vc(a).occupancy = 1;
  net_.set_active(a, true);
  const VcRef b{net_.net_link(0, 1), 0};
  net_.allocate_out_vc(a, b, 9, 0);

  net_.force_free(a);
  EXPECT_TRUE(net_.vc(a).free());
  EXPECT_FALSE(net_.vc(b).upstream.valid());
  EXPECT_EQ(net_.vc(b).msg, 9u);  // b itself untouched
}

TEST_F(NetworkTest, EjectPortBinding) {
  const VcRef from{net_.net_link(1, 0), 0};
  net_.vc(from).msg = 5;
  net_.set_active(from, true);
  const topo::NodeId node = net_.link(from.link).dst;
  net_.bind_eject(from, node, 1, 5);
  EXPECT_TRUE(net_.eject_port(node, 1).busy());
  EXPECT_EQ(net_.eject_port(node, 1).msg, 5u);
  EXPECT_EQ(net_.find_free_eject_port(node), 0);
  EXPECT_EQ(net_.vc(from).out_kind, VcState::OutKind::Eject);
}

/// rr_rotate's set-bit walk is the round-robin loop it replaced: VCs
/// first, first + 1, ... with wrap, skipping those not in the mask.
TEST(RoundRobin, RotationMatchesSequentialScan) {
  for (unsigned vcs = 1; vcs <= 8; ++vcs) {
    for (unsigned mask = 0; mask < (1u << vcs); ++mask) {
      for (unsigned first = 0; first < vcs; ++first) {
        std::vector<unsigned> scan, rotated;
        for (unsigned j = 0, v = first; j < vcs;
             ++j, v = v + 1 == vcs ? 0 : v + 1) {
          if (mask & (1u << v)) scan.push_back(v);
        }
        for (unsigned m = rr_rotate(mask, first, vcs); m != 0; m &= m - 1) {
          const auto bit = static_cast<unsigned>(std::countr_zero(m));
          rotated.push_back(bit < vcs ? bit : bit - vcs);
        }
        ASSERT_EQ(rotated, scan)
            << "vcs=" << vcs << " mask=" << mask << " first=" << first;
      }
    }
  }
}

/// Under Credit the limiters read the Network's free row with every VC
/// bit cleared whose slot still has credits out, and nothing else: with
/// no credits out, or once they all came home, it is the raw row.
TEST(CreditStatus, FreeRowMasksVcsWithOutstandingCredits) {
  const topo::KAryNCube topo(4, 2);
  Network net(topo, small_params());
  const unsigned chans = topo.num_channels();
  net.set_active({net.net_link(5, 1), 0}, true);  // raw row is not all-free
  const auto expect_row = [&](const CreditFlowControl& credit, NodeId node,
                              const std::vector<std::uint8_t>& want) {
    const std::uint8_t* row = credit.free_row(node);
    for (unsigned c = 0; c < chans; ++c) {
      EXPECT_EQ(row[c], want[c]) << "node " << node << " channel " << c;
    }
  };
  const auto raw = [&](NodeId node) {
    const std::uint8_t* row = net.free_mask_row(node);
    return std::vector<std::uint8_t>(row, row + chans);
  };
  // Credits out on node 5: channel 2 VC 1, channel 3 VCs 0 and 2.
  const VcRef owed[] = {{net.net_link(5, 2), 1},
                        {net.net_link(5, 3), 0},
                        {net.net_link(5, 3), 2}};
  std::vector<std::uint8_t> masked = raw(5);
  masked[2] = static_cast<std::uint8_t>(masked[2] & ~0b010u);
  masked[3] = static_cast<std::uint8_t>(masked[3] & ~0b101u);

  for (const unsigned delay : {0u, 2u}) {
    SCOPED_TRACE("delay " + std::to_string(delay));
    CreditFlowControl credit(net, delay);
    EXPECT_EQ(credit.num_phys_channels(), chans);
    EXPECT_EQ(credit.num_vcs(), 3u);
    for (NodeId node = 0; node < topo.num_nodes(); ++node) {
      expect_row(credit, node, raw(node));
    }

    for (const VcRef ref : owed) credit.on_flit_sent(net.vc_flat_index(ref));
    expect_row(credit, 5, masked);
    expect_row(credit, 4, raw(4));  // neighbouring rows untouched
    expect_row(credit, 6, raw(6));

    for (const VcRef ref : owed) {
      credit.on_flit_drained(net.vc_flat_index(ref), 10);
    }
    if (delay == 0) {
      expect_row(credit, 5, raw(5));  // ideal loop: credits already home
      continue;
    }
    credit.begin_cycle(11);
    expect_row(credit, 5, masked);  // returns still on the wire
    credit.begin_cycle(12);
    expect_row(credit, 5, raw(5));
  }
}

}  // namespace
}  // namespace wormsim::sim
