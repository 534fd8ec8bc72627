#include "net/network.hpp"

#include "sim/config_error.hpp"

#include <deque>
#include <stdexcept>

namespace trim::net {

Network::Network(sim::Simulator* sim) : sim_{sim} {
  if (sim_ == nullptr) {
    throw ConfigError{"null simulator", "Network", "a live sim::Simulator"};
  }
}

Host* Network::add_host(std::string name) {
  const auto id = static_cast<NodeId>(nodes_.size());
  auto host = std::make_unique<Host>(sim_, id, std::move(name));
  Host* raw = host.get();
  nodes_.push_back(std::move(host));
  adjacency_.emplace_back();
  return raw;
}

Switch* Network::add_switch(std::string name) {
  const auto id = static_cast<NodeId>(nodes_.size());
  auto sw = std::make_unique<Switch>(sim_, id, std::move(name));
  Switch* raw = sw.get();
  nodes_.push_back(std::move(sw));
  adjacency_.emplace_back();
  return raw;
}

Network::Duplex Network::connect(Node& a, Node& b, const LinkSpec& spec) {
  return connect(a, b, spec, spec);
}

Network::Duplex Network::connect(Node& a, Node& b, const LinkSpec& a_to_b,
                                 const LinkSpec& b_to_a) {
  auto make = [this](Node& from, Node& to, const LinkSpec& spec) -> Link* {
    auto link = std::make_unique<Link>(sim_, from.name() + "->" + to.name(),
                                       spec.bits_per_sec, spec.prop_delay,
                                       std::make_unique<Queue>(spec.queue));
    link->set_peer(&to);
    Link* raw = link.get();
    links_.push_back(std::move(link));
    const std::size_t port = from.attach_link(raw);
    adjacency_[from.id()].push_back({to.id(), port});
    return raw;
  };
  return Duplex{make(a, b, a_to_b), make(b, a, b_to_a)};
}

std::vector<int> Network::bfs_distances(NodeId from) const {
  std::vector<int> dist(nodes_.size(), -1);
  std::deque<NodeId> frontier{from};
  dist[from] = 0;
  while (!frontier.empty()) {
    const NodeId u = frontier.front();
    frontier.pop_front();
    for (const Edge& e : adjacency_[u]) {
      if (dist[e.peer] == -1) {
        dist[e.peer] = dist[u] + 1;
        frontier.push_back(e.peer);
      }
    }
  }
  return dist;
}

void Network::build_routes() {
  // One BFS per destination; every experiment in the paper has at most a
  // few thousand nodes, so O(V * (V+E)) is fine.
  for (NodeId dst = 0; dst < nodes_.size(); ++dst) {
    const auto dist = bfs_distances(dst);  // symmetric links => same as to-dst
    for (NodeId u = 0; u < nodes_.size(); ++u) {
      auto* sw = dynamic_cast<Switch*>(nodes_[u].get());
      if (sw == nullptr || u == dst || dist[u] == -1) continue;
      sw->routes().resize(nodes_.size());
      for (const Edge& e : adjacency_[u]) {
        if (dist[e.peer] == dist[u] - 1) sw->routes().add_route(dst, e.port);
      }
    }
  }
}

std::uint64_t Network::total_drops() const {
  std::uint64_t n = 0;
  for (const auto& link : links_) n += link->queue().stats().dropped;
  return n;
}

std::uint64_t Network::total_ce_marks() const {
  std::uint64_t n = 0;
  for (const auto& link : links_) n += link->queue().stats().marked_ce;
  return n;
}

}  // namespace trim::net
