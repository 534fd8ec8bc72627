// Owner of a simulated network: nodes, links, adjacency, routing, and flow
// id allocation. Topology builders (src/topo) drive this API.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "net/host.hpp"
#include "net/link.hpp"
#include "net/queue.hpp"
#include "net/switch.hpp"
#include "sim/simulator.hpp"

namespace trim::net {

struct LinkSpec {
  std::uint64_t bits_per_sec = 0;
  sim::SimTime prop_delay;
  QueueConfig queue;

  LinkSpec with_queue(QueueConfig q) const {
    LinkSpec s = *this;
    s.queue = q;
    return s;
  }
};

// Convenience rates.
inline constexpr std::uint64_t kMbps = 1'000'000ull;
inline constexpr std::uint64_t kGbps = 1'000'000'000ull;

class Network {
 public:
  explicit Network(sim::Simulator* sim);

  sim::Simulator* simulator() const { return sim_; }

  Host* add_host(std::string name);
  Switch* add_switch(std::string name);

  // Creates a link in each direction (possibly with distinct specs) and
  // attaches them as egress ports on `a` and `b`.
  struct Duplex {
    Link* a_to_b;
    Link* b_to_a;
  };
  Duplex connect(Node& a, Node& b, const LinkSpec& spec);
  Duplex connect(Node& a, Node& b, const LinkSpec& a_to_b, const LinkSpec& b_to_a);

  // Compute shortest-path ECMP routes for every switch, replacing any
  // earlier tables. Must be called after the last connect() and before
  // traffic starts. Hosts do not forward, so paths transit switches only.
  // Throws ConfigError if a switch has more ports than a table can name.
  void build_routes();

  FlowId new_flow_id() { return next_flow_id_++; }

  std::size_t node_count() const { return nodes_.size(); }
  Node& node(NodeId id) const { return *nodes_.at(id); }
  const std::vector<std::unique_ptr<Link>>& links() const { return links_; }

  // Aggregate drop count across every queue in the network (Fig. 9(c)).
  std::uint64_t total_drops() const;
  std::uint64_t total_ce_marks() const;

 private:
  struct Edge {
    NodeId peer;
    std::size_t port;  // egress port index on the owning node
  };

  sim::Simulator* sim_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::vector<Switch*> switches_;  // in add_switch order
  std::vector<std::unique_ptr<Link>> links_;
  std::vector<std::vector<Edge>> adjacency_;  // node id -> edges
  FlowId next_flow_id_ = 1;
};

}  // namespace trim::net
