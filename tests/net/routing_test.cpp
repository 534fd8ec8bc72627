// Route equivalence: Network::build_routes against a reference model of the
// original per-destination builder, port for port and in order, on every
// topology the experiments build. select_port takes the flow hash modulo the
// ECMP set, so a reordered set would move flows even with the same ports.
#include <gtest/gtest.h>

#include <deque>
#include <functional>
#include <limits>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "net/network.hpp"
#include "net/routing.hpp"
#include "sim/config_error.hpp"
#include "topo/fat_tree.hpp"
#include "topo/many_to_one.hpp"
#include "topo/multi_hop.hpp"
#include "topo/two_tier.hpp"

namespace trim::net {
namespace {

using Ports = std::vector<std::size_t>;
using Tables = std::vector<std::vector<Ports>>;  // [switch node id][dst] -> ports

// Reference model: one BFS from every destination node over all links
// (hosts included), then, for every switch, each port whose peer is one hop
// closer to the destination, in port order.
Tables reference_routes(const Network& net) {
  const std::size_t n = net.node_count();
  std::vector<std::vector<NodeId>> peers(n);  // [node][port] -> peer
  for (NodeId u = 0; u < n; ++u) {
    for (std::size_t p = 0; p < net.node(u).port_count(); ++p) {
      peers[u].push_back(net.node(u).out_link(p).peer()->id());
    }
  }
  Tables routes(n);
  for (NodeId dst = 0; dst < n; ++dst) {
    std::vector<int> dist(n, -1);
    std::deque<NodeId> frontier{dst};
    dist[dst] = 0;
    while (!frontier.empty()) {
      const NodeId u = frontier.front();
      frontier.pop_front();
      for (const NodeId v : peers[u]) {
        if (dist[v] == -1) {
          dist[v] = dist[u] + 1;
          frontier.push_back(v);
        }
      }
    }
    for (NodeId u = 0; u < n; ++u) {
      if (dynamic_cast<const Switch*>(&net.node(u)) == nullptr || u == dst || dist[u] == -1) {
        continue;
      }
      routes[u].resize(n);
      for (std::size_t p = 0; p < peers[u].size(); ++p) {
        if (dist[peers[u][p]] == dist[u] - 1) routes[u][dst].push_back(p);
      }
    }
  }
  return routes;
}

Ports table_ports(const RoutingTable& table, NodeId dst) {
  if (table.select_port(dst, 0) == RoutingTable::kNoRoute) {
    EXPECT_THROW(table.ports_for(dst), std::out_of_range);
    return {};
  }
  const auto ports = table.ports_for(dst);
  return Ports(ports.begin(), ports.end());
}

// Every switch's table as a reference-shaped snapshot; destinations one past
// the last node are included to check they have no route.
Tables built_routes(const Network& net) {
  const std::size_t n = net.node_count();
  Tables routes(n);
  for (NodeId u = 0; u < n; ++u) {
    const auto* sw = dynamic_cast<const Switch*>(&net.node(u));
    if (sw == nullptr) continue;
    for (NodeId dst = 0; dst <= n; ++dst) routes[u].push_back(table_ports(sw->routes(), dst));
  }
  return routes;
}

std::string join(const Ports& ports) {
  std::string out = "{";
  for (const std::size_t p : ports) {
    if (out.size() > 1) out += ',';
    out += std::to_string(p);
  }
  return out + "}";
}

// Compares the built tables with the reference; reports the first few
// differences so a failure names the switch and destination.
void expect_matches_reference(const Network& net) {
  const Tables want = reference_routes(net);
  const Tables got = built_routes(net);
  const std::size_t n = net.node_count();
  std::size_t compared = 0;
  std::size_t mismatches = 0;
  std::ostringstream first;
  for (NodeId u = 0; u < n; ++u) {
    if (got[u].empty()) continue;
    for (NodeId dst = 0; dst <= n; ++dst) {
      const Ports expected = dst < want[u].size() ? want[u][dst] : Ports{};
      ++compared;
      if (got[u][dst] == expected) continue;
      if (++mismatches <= 5) {
        first << " " << net.node(u).name() << "->" << dst << ": ports " << join(got[u][dst])
              << ", reference " << join(expected) << ";";
      }
    }
  }
  EXPECT_GT(compared, 0u);
  EXPECT_EQ(mismatches, 0u) << first.str();
}

struct Case {
  std::string name;
  std::function<void(Network&)> build;
};

void PrintTo(const Case& c, std::ostream* os) { *os << c.name; }

void build_diamond(Network& net) {
  // Two hosts joined by two equal-cost paths (the ECMP case in network_test).
  const LinkSpec gig{kGbps, sim::SimTime::micros(10), QueueConfig{}};
  auto* a = net.add_host("a");
  auto* b = net.add_host("b");
  auto* in = net.add_switch("in");
  auto* out = net.add_switch("out");
  auto* mid1 = net.add_switch("mid1");
  auto* mid2 = net.add_switch("mid2");
  net.connect(*a, *in, gig);
  net.connect(*in, *mid1, gig);
  net.connect(*in, *mid2, gig);
  net.connect(*mid1, *out, gig);
  net.connect(*mid2, *out, gig);
  net.connect(*out, *b, gig);
  net.build_routes();
}

std::vector<Case> cases() {
  return {
      {"TwoTier25x42",
       [](Network& net) {
         topo::TwoTierConfig cfg;
         cfg.num_switches = 25;
         cfg.servers_per_switch = 42;
         topo::build_two_tier(net, cfg);
       }},
      {"FatTreeK4",
       [](Network& net) {
         topo::FatTreeConfig cfg;
         cfg.k = 4;
         topo::build_fat_tree(net, cfg);
       }},
      {"FatTreeK8",
       [](Network& net) {
         topo::FatTreeConfig cfg;
         cfg.k = 8;
         topo::build_fat_tree(net, cfg);
       }},
      {"MultiHop", [](Network& net) { topo::build_multi_hop(net, topo::MultiHopConfig{}); }},
      {"ManyToOne", [](Network& net) { topo::build_many_to_one(net, topo::ManyToOneConfig{}); }},
      {"Diamond", build_diamond},
  };
}

class RouteEquivalence : public ::testing::TestWithParam<Case> {};

TEST_P(RouteEquivalence, EveryPortSetMatchesReferenceInOrder) {
  sim::Simulator sim;
  Network net{&sim};
  GetParam().build(net);
  expect_matches_reference(net);
}

TEST_P(RouteEquivalence, RebuildGivesTheSameTables) {
  sim::Simulator sim;
  Network net{&sim};
  GetParam().build(net);
  const Tables once = built_routes(net);
  net.build_routes();
  EXPECT_EQ(built_routes(net), once);
}

INSTANTIATE_TEST_SUITE_P(Topologies, RouteEquivalence, ::testing::ValuesIn(cases()),
                         [](const auto& info) { return info.param.name; });

LinkSpec gig_link() { return LinkSpec{kGbps, sim::SimTime::micros(10), QueueConfig{}}; }

TEST(Routing, DualHomedHostMergesItsAccessSwitchesInPortOrder) {
  // h hangs off both s1 and s2, which are each one hop from s0; s0 reaches
  // h through either, so its set is both ports, in port order.
  sim::Simulator sim;
  Network net{&sim};
  auto* s0 = net.add_switch("s0");
  auto* s1 = net.add_switch("s1");
  auto* s2 = net.add_switch("s2");
  auto* h = net.add_host("h");
  net.connect(*s0, *s2, gig_link());  // port 0 of s0
  net.connect(*s0, *s1, gig_link());  // port 1 of s0
  net.connect(*h, *s1, gig_link());
  net.connect(*h, *s2, gig_link());
  net.build_routes();
  EXPECT_EQ(table_ports(s0->routes(), h->id()), (Ports{0, 1}));
  EXPECT_EQ(table_ports(s1->routes(), h->id()), (Ports{1}));
  // Toward s1, s2 goes through s0 only: the path through h is as short,
  // but h does not forward.
  EXPECT_EQ(table_ports(s2->routes(), s1->id()), (Ports{0}));
}

TEST(Routing, HostsCarryNoTransit) {
  // s1 and s2 meet only through host h. A host does not forward, so neither
  // switch has a route to the other.
  sim::Simulator sim;
  Network net{&sim};
  auto* s1 = net.add_switch("s1");
  auto* s2 = net.add_switch("s2");
  auto* h = net.add_host("h");
  net.connect(*h, *s1, gig_link());
  net.connect(*h, *s2, gig_link());
  net.build_routes();
  EXPECT_EQ(s1->routes().select_port(s2->id(), 1), RoutingTable::kNoRoute);
  EXPECT_EQ(s2->routes().select_port(s1->id(), 1), RoutingTable::kNoRoute);
  EXPECT_EQ(table_ports(s1->routes(), h->id()), (Ports{0}));
}

TEST(Routing, RejectsSwitchWithMorePortsThanATableCanName) {
  sim::Simulator sim;
  Network net{&sim};
  auto* first = net.add_switch("first");
  auto* h0 = net.add_host("h0");
  net.connect(*h0, *first, gig_link());
  net.build_routes();
  const auto* port_to_h0 = first->routes().ports_for(h0->id()).data();

  auto* sw = net.add_switch("sw");
  for (std::size_t i = 0; i <= std::numeric_limits<RoutingTable::Port>::max(); ++i) {
    net.connect(*net.add_host("h"), *sw, gig_link());
  }
  EXPECT_THROW(net.build_routes(), ConfigError);
  // The failed rebuild replaced no table, not even those of earlier switches.
  EXPECT_EQ(first->routes().ports_for(h0->id()).data(), port_to_h0);
}

}  // namespace
}  // namespace trim::net
