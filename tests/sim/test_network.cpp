#include "sim/network.hpp"

#include <gtest/gtest.h>

#include <deque>
#include <string>

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
  u.in_count = 4;  // four flits written, 16 total
  u.occupancy = 4;
  net_.set_active(from, true);

  const VcRef out{net_.net_link(0, 0), 0};
  net_.allocate_out_vc(from, out, 3, 0);

  EXPECT_FALSE(net_.transmit_flit(from, /*msg_length=*/16, /*now=*/10));
  EXPECT_EQ(u.out_count, 1u);
  EXPECT_EQ(u.occupancy, 3u);
  EXPECT_EQ(net_.vc(out).occupancy, 1u);   // reserved while in flight
  EXPECT_EQ(net_.vc(out).in_count, 0u);    // not arrived yet
  EXPECT_EQ(net_.link(out.link).in_flight.size(), 1u);

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
  EXPECT_EQ(net_.vc(out).header_arrival, 12u);
}

TEST_F(NetworkTest, TailDepartureFreesVc) {
  const VcRef from{net_.inj_link(0, 0), 0};
  VcState& u = net_.vc(from);
  u.msg = 3;
  u.in_count = 2;  // a 2-flit message fully buffered
  u.occupancy = 2;
  net_.set_active(from, true);

  const VcRef out{net_.net_link(0, 0), 2};
  net_.allocate_out_vc(from, out, 3, 0);

  EXPECT_FALSE(net_.transmit_flit(from, 2, 0));
  EXPECT_TRUE(net_.transmit_flit(from, 2, 1));  // tail left
  EXPECT_TRUE(net_.vc(from).free());
  EXPECT_EQ(net_.find_free_inj_channel(0), 0);
  // Downstream keeps its tenancy but loses the upstream reference.
  EXPECT_EQ(net_.vc(out).msg, 3u);
  EXPECT_FALSE(net_.vc(out).upstream.valid());
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

TEST(InFlightQueueTest, FifoOrder) {
  InFlightQueue q;
  q.push(10, 0, 1);
  q.push(11, 1, 2);
  q.push(12, 2, 3);
  EXPECT_EQ(q.size(), 3u);
  EXPECT_EQ(q.front().arrival, 10u);
  q.pop();
  EXPECT_EQ(q.front().msg, 2u);
}

TEST(InFlightQueueTest, DropMessageKeepsOthersInOrder) {
  InFlightQueue q;
  q.push(10, 0, 1);
  q.push(11, 1, 2);
  q.push(12, 2, 1);
  q.push(13, 0, 3);
  EXPECT_EQ(q.drop_message(1), 2u);
  ASSERT_EQ(q.size(), 2u);
  EXPECT_EQ(q.front().msg, 2u);
  q.pop();
  EXPECT_EQ(q.front().msg, 3u);
  EXPECT_EQ(q.front().arrival, 13u);
}

TEST(InFlightQueueTest, DropOnEmptyIsZero) {
  InFlightQueue q;
  EXPECT_EQ(q.drop_message(1), 0u);
}

/// Entries keep only the low 16 bits of their arrival cycle. Drive one
/// link pipeline the way the simulator does (arrivals drain due flits,
/// then at most one flit enters with arrival = now + delay) across the
/// 65,535 -> 65,536 wrap and a later one, and check every pop and every
/// due() verdict against a 64-bit reference queue.
TEST(InFlightQueueTest, ArrivalWrapMatches64BitReference) {
  struct Ref {
    Cycle arrival;
    MsgId msg;
  };
  for (const unsigned delay : {1u, 2u, 4u, 7u}) {
    for (const Cycle start : {Cycle{65536 - 40}, Cycle{3 * 65536 - 40}}) {
      SCOPED_TRACE("delay=" + std::to_string(delay) +
                   " start=" + std::to_string(start));
      InFlightQueue q;
      std::deque<Ref> ref;
      MsgId next_msg = 0;
      for (Cycle now = start; now < start + 80; ++now) {
        while (!ref.empty() && ref.front().arrival <= now) {
          ASSERT_TRUE(q.due(now)) << "now=" << now;
          EXPECT_EQ(q.front().msg, ref.front().msg) << "now=" << now;
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
          q.push(now + delay, static_cast<std::uint8_t>(now % 3), next_msg);
          ref.push_back({now + delay, next_msg});
          ++next_msg;
        }
      }
    }
  }
}

}  // namespace
}  // namespace wormsim::sim
