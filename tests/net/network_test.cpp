#include <gtest/gtest.h>

#include "net/network.hpp"
#include "net/routing.hpp"

namespace trim::net {
namespace {

// Minimal agent that counts arrivals.
class CountingAgent : public Agent {
 public:
  void on_packet(const Packet&) override { ++count; }
  int count = 0;
};

LinkSpec gig_link() {
  return LinkSpec{kGbps, sim::SimTime::micros(10), QueueConfig{}};
}

TEST(Network, HostToHostThroughSwitch) {
  sim::Simulator sim;
  Network net{&sim};
  auto* a = net.add_host("a");
  auto* b = net.add_host("b");
  auto* sw = net.add_switch("sw");
  net.connect(*a, *sw, gig_link());
  net.connect(*b, *sw, gig_link());
  net.build_routes();

  CountingAgent agent;
  const auto flow = net.new_flow_id();
  b->register_agent(flow, &agent);

  Packet p;
  p.dst = b->id();
  p.flow = flow;
  p.payload_bytes = 100;
  a->send(std::move(p));
  sim.run();
  EXPECT_EQ(agent.count, 1);
  EXPECT_EQ(sw->forwarded_packets(), 1u);
}

TEST(Network, MultiHopLinearChain) {
  sim::Simulator sim;
  Network net{&sim};
  auto* a = net.add_host("a");
  auto* s1 = net.add_switch("s1");
  auto* s2 = net.add_switch("s2");
  auto* s3 = net.add_switch("s3");
  auto* b = net.add_host("b");
  net.connect(*a, *s1, gig_link());
  net.connect(*s1, *s2, gig_link());
  net.connect(*s2, *s3, gig_link());
  net.connect(*s3, *b, gig_link());
  net.build_routes();

  CountingAgent agent;
  const auto flow = net.new_flow_id();
  b->register_agent(flow, &agent);
  Packet p;
  p.dst = b->id();
  p.flow = flow;
  a->send(std::move(p));
  sim.run();
  EXPECT_EQ(agent.count, 1);
  // Propagation: 4 links x 10 us + 4 serializations of a 40 B ACK-sized
  // packet (0.32 us each).
  EXPECT_GT(sim.now(), sim::SimTime::micros(40));
}

TEST(Network, EcmpSpreadsFlowsAcrossEqualPaths) {
  sim::Simulator sim;
  Network net{&sim};
  auto* a = net.add_host("a");
  auto* b = net.add_host("b");
  auto* in = net.add_switch("in");
  auto* out = net.add_switch("out");
  auto* mid1 = net.add_switch("mid1");
  auto* mid2 = net.add_switch("mid2");
  net.connect(*a, *in, gig_link());
  net.connect(*in, *mid1, gig_link());
  net.connect(*in, *mid2, gig_link());
  net.connect(*mid1, *out, gig_link());
  net.connect(*mid2, *out, gig_link());
  net.connect(*out, *b, gig_link());
  net.build_routes();

  CountingAgent agent_b;
  // Many flows: both middle switches should see traffic.
  for (FlowId f = 1; f <= 64; ++f) {
    b->register_agent(f, &agent_b);
    Packet p;
    p.dst = b->id();
    p.flow = f;
    a->send(std::move(p));
  }
  sim.run();
  EXPECT_EQ(agent_b.count, 64);
  EXPECT_GT(mid1->forwarded_packets(), 10u);
  EXPECT_GT(mid2->forwarded_packets(), 10u);
  // A given flow always takes the same path (per-flow consistency).
  const auto& table = in->routes();
  EXPECT_EQ(table.select_port(b->id(), 7), table.select_port(b->id(), 7));
}

TEST(Network, UnroutablePacketIsCountedNotCrashed) {
  sim::Simulator sim;
  Network net{&sim};
  auto* a = net.add_host("a");
  auto* sw = net.add_switch("sw");
  net.connect(*a, *sw, gig_link());
  net.build_routes();
  Packet p;
  p.dst = 999;  // no such node
  a->send(std::move(p));
  sim.run();
  EXPECT_EQ(sw->unroutable_packets(), 1u);
}

TEST(Network, HostWithoutAgentCountsUnroutable) {
  sim::Simulator sim;
  Network net{&sim};
  auto* a = net.add_host("a");
  auto* b = net.add_host("b");
  auto* sw = net.add_switch("sw");
  net.connect(*a, *sw, gig_link());
  net.connect(*b, *sw, gig_link());
  net.build_routes();
  Packet p;
  p.dst = b->id();
  p.flow = 42;  // nobody registered
  a->send(std::move(p));
  sim.run();
  EXPECT_EQ(b->unroutable_packets(), 1u);
}

TEST(Network, DuplicateAgentRegistrationThrows) {
  sim::Simulator sim;
  Network net{&sim};
  auto* a = net.add_host("a");
  CountingAgent x, y;
  a->register_agent(1, &x);
  EXPECT_THROW(a->register_agent(1, &y), std::logic_error);
  a->unregister_agent(1);
  a->register_agent(1, &y);  // fine after unregister
}

TEST(Network, FlowIdsAreUnique) {
  sim::Simulator sim;
  Network net{&sim};
  const auto a = net.new_flow_id();
  const auto b = net.new_flow_id();
  EXPECT_NE(a, b);
}

TEST(Network, PacketUidsAreUniquePerHost) {
  sim::Simulator sim;
  Network net{&sim};
  auto* a = net.add_host("a");
  auto* b = net.add_host("b");
  net.connect(*a, *b, gig_link());
  net.build_routes();
  CountingAgent agent;
  b->register_agent(1, &agent);
  Packet p1, p2;
  p1.dst = p2.dst = b->id();
  p1.flow = p2.flow = 1;
  a->send(std::move(p1));
  a->send(std::move(p2));
  sim.run();
  EXPECT_EQ(agent.count, 2);
}

TEST(Mix64, IsDeterministicAndSpreads) {
  EXPECT_EQ(mix64(1), mix64(1));
  EXPECT_NE(mix64(1), mix64(2));
  // Consecutive inputs should not map to consecutive outputs.
  EXPECT_GT(std::max(mix64(1), mix64(2)) - std::min(mix64(1), mix64(2)), 1000ull);
}

TEST(RoutingTable, ThrowsWithoutRoute) {
  // Four destinations; none has a route.
  const RoutingTable empty{{0, 0, 0, 0, 0}, {}};
  EXPECT_EQ(empty.select_port(2, 1234), RoutingTable::kNoRoute);
  EXPECT_THROW(empty.ports_for(2), std::out_of_range);
  // Destination 2 routes through port 0; ids past the table have no route.
  const RoutingTable table{{0, 0, 0, 1, 1}, {0}};
  EXPECT_EQ(table.select_port(2, 1234), 0u);
  EXPECT_EQ(table.ports_for(2).size(), 1u);
  EXPECT_EQ(table.select_port(4, 1234), RoutingTable::kNoRoute);
  EXPECT_EQ(table.select_port(kInvalidNode, 1234), RoutingTable::kNoRoute);
  EXPECT_THROW(table.ports_for(kInvalidNode), std::out_of_range);
  EXPECT_EQ(RoutingTable{}.select_port(0, 1234), RoutingTable::kNoRoute);
  // Offsets must rise from 0 to the port count.
  EXPECT_THROW((RoutingTable{{}, {}}), std::invalid_argument);
  EXPECT_THROW((RoutingTable{{0, 2, 1}, {0}}), std::invalid_argument);
  EXPECT_THROW((RoutingTable{{0, 0}, {0}}), std::invalid_argument);
}

}  // namespace
}  // namespace trim::net
