#include "sim/network.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <deque>
#include <string>
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

class NetworkTest : public ::testing::Test {
 protected:
  /// Send one flit from `from` along its allocated output, handing
  /// transmit_flit the records the simulator's transmit phase holds.
  bool send(VcRef from, Cycle now) {
    const VcRef out = net_.vc(from).out;
    return net_.transmit_flit(net_.link(out.link), out.link,
                              static_cast<std::uint8_t>(out.vc),
                              net_.vc(out), net_.vc(from), now);
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
  EXPECT_EQ(net_.link(out.link).in_flight.size(), 1u);
  EXPECT_EQ(net_.link(out.link).in_flight.front().vc, out.vc);
  EXPECT_EQ(net_.link(out.link).flits_carried, 1u);
  EXPECT_TRUE(net_.arrival_links().contains(out.link));
  EXPECT_EQ(net_.progress(out), 10u);  // the send stamps the served VC
  EXPECT_EQ(u.last_activity, 10u);

  // Arrival lands after link_delay.
  bool header_seen = false;
  net_.process_arrivals(out.link, 11, [&](VcRef) { header_seen = true; });
  EXPECT_FALSE(header_seen);
  EXPECT_EQ(net_.vc(out).in_count, 0u);
  net_.process_arrivals(out.link, 12, [&](VcRef r) {
    header_seen = true;
    EXPECT_EQ(r.link, out.link);
    EXPECT_EQ(r.vc, out.vc);
  });
  EXPECT_TRUE(header_seen);
  EXPECT_EQ(net_.vc(out).in_count, 1u);
  EXPECT_EQ(net_.vc(out).buffered(), 1u);
  EXPECT_EQ(net_.vc(out).last_activity, 12u);
  EXPECT_FALSE(net_.arrival_links().contains(out.link));
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

TEST(InFlightQueueTest, FifoOrder) {
  InFlightQueue q;
  q.push(10, 0);
  q.push(11, 1);
  q.push(12, 2);
  EXPECT_EQ(q.size(), 3u);
  EXPECT_EQ(q.front().arrival, 10u);
  q.pop();
  EXPECT_EQ(q.front().vc, 1u);
  EXPECT_EQ(q.front().arrival, 11u);
}

// A message's in-flight flits on a link are exactly those toward the VC
// it holds there, so absorbing it drops that VC's entries.
TEST(InFlightQueueTest, DropMessageKeepsOthersInOrder) {
  InFlightQueue q;
  q.push(10, 1);
  q.push(11, 2);
  q.push(12, 1);
  q.push(13, 0);
  EXPECT_EQ(q.drop_vc(1), 2u);
  ASSERT_EQ(q.size(), 2u);
  EXPECT_EQ(q.front().vc, 2u);
  EXPECT_EQ(q.front().arrival, 11u);
  q.pop();
  EXPECT_EQ(q.front().vc, 0u);
  EXPECT_EQ(q.front().arrival, 13u);
}

TEST(InFlightQueueTest, DropOnEmptyIsZero) {
  InFlightQueue q;
  EXPECT_EQ(q.drop_vc(1), 0u);
}

/// drop_vc on a ring whose live entries straddle the storage end: every
/// other VC's entries survive in push order, for each VC dropped.
TEST(InFlightQueueTest, DropVcKeepsOtherVcsInOrder) {
  constexpr unsigned kSlots = InFlightQueue::kMaxDelay + 1;
  for (unsigned rotate = 0; rotate < kSlots; ++rotate) {
    for (std::uint8_t drop = 0; drop < 4; ++drop) {
      InFlightQueue q;
      for (unsigned i = 0; i < rotate; ++i) q.push(i, 7);
      for (unsigned i = 0; i < rotate; ++i) q.pop();
      std::deque<InFlightQueue::Entry> expect;
      for (unsigned i = 0; i < kSlots; ++i) {
        const auto vc = static_cast<std::uint8_t>((i * 5 + rotate) % 4);
        q.push(100 + i, vc);
        if (vc != drop) {
          expect.push_back({static_cast<std::uint16_t>(100 + i), vc});
        }
      }
      EXPECT_EQ(q.drop_vc(drop), kSlots - expect.size());
      ASSERT_EQ(q.size(), expect.size());
      for (const InFlightQueue::Entry& e : expect) {
        EXPECT_EQ(q.front().vc, e.vc);
        EXPECT_EQ(q.front().arrival, e.arrival);
        q.pop();
      }
      // The compacted ring keeps working as a FIFO.
      q.push(200, 3);
      EXPECT_EQ(q.front().arrival, 200u);
    }
  }
}

/// Entries keep only the low 16 bits of their arrival cycle. Drive one
/// link pipeline the way the simulator does (arrivals drain due flits,
/// then at most one flit enters with arrival = now + delay) across the
/// 65,535 -> 65,536 wrap and a later one, and check every pop and every
/// due() verdict against a 64-bit reference queue.
TEST(InFlightQueueTest, ArrivalWrapMatches64BitReference) {
  struct Ref {
    Cycle arrival;
    std::uint8_t tag;  // carried in the entry's vc byte
  };
  for (const unsigned delay : {1u, 2u, 4u, 7u}) {
    for (const Cycle start : {Cycle{65536 - 40}, Cycle{3 * 65536 - 40}}) {
      SCOPED_TRACE("delay=" + std::to_string(delay) +
                   " start=" + std::to_string(start));
      InFlightQueue q;
      std::deque<Ref> ref;
      std::uint8_t next_tag = 0;
      for (Cycle now = start; now < start + 80; ++now) {
        while (!ref.empty() && ref.front().arrival <= now) {
          ASSERT_TRUE(q.due(now)) << "now=" << now;
          EXPECT_EQ(q.front().vc, ref.front().tag) << "now=" << now;
          EXPECT_EQ(q.front().arrival,
                    static_cast<std::uint16_t>(ref.front().arrival));
          q.pop();
          ref.pop_front();
        }
        ASSERT_FALSE(q.due(now)) << "now=" << now;
        ASSERT_EQ(q.size(), ref.size());
        // Leave a gap every fifth cycle so the ring also sees partial
        // occupancy straddling the wrap.
        if (now % 5 != 0) {
          q.push(now + delay, next_tag);
          ref.push_back({now + delay, next_tag});
          ++next_tag;
        }
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
  const auto expect_row = [&](const CreditChannelStatus& status,
                              NodeId node,
                              const std::vector<std::uint8_t>& want) {
    const std::uint8_t* row = status.free_row(node);
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
    CreditFlowControl credit(net.num_vc_slots(), delay);
    const CreditChannelStatus status(net, credit);
    EXPECT_EQ(status.num_phys_channels(), chans);
    EXPECT_EQ(status.num_vcs(), 3u);
    for (NodeId node = 0; node < topo.num_nodes(); ++node) {
      expect_row(status, node, raw(node));
    }

    for (const VcRef ref : owed) credit.on_flit_sent(net.vc_flat_index(ref), 0);
    expect_row(status, 5, masked);
    expect_row(status, 4, raw(4));  // neighbouring rows untouched
    expect_row(status, 6, raw(6));

    for (const VcRef ref : owed) {
      credit.on_flit_drained(net.vc_flat_index(ref), 10);
    }
    if (delay == 0) {
      expect_row(status, 5, raw(5));  // ideal loop: credits already home
      continue;
    }
    credit.begin_cycle(11);
    expect_row(status, 5, masked);  // returns still on the wire
    credit.begin_cycle(12);
    expect_row(status, 5, raw(5));
  }
}

}  // namespace
}  // namespace wormsim::sim
