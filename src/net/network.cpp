#include "net/network.hpp"

#include "sim/config_error.hpp"

#include <algorithm>
#include <limits>
#include <string>

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
  switches_.push_back(raw);
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

void Network::build_routes() {
  // Links come in duplex pairs, so hops out of a switch equal hops into it.
  // Hosts do not forward (Host::send uses port 0 only), so one BFS per
  // switch, through switches alone, gives every distance a route needs: a
  // host is one hop past its nearest access switch.
  constexpr std::uint32_t kHost = ~std::uint32_t{0};
  constexpr std::uint32_t kUnreached = ~std::uint32_t{0};
  using Port = RoutingTable::Port;
  const std::size_t n = nodes_.size();
  const std::size_t s = switches_.size();
  std::vector<std::uint32_t> sw_index(n, kHost);
  for (std::size_t j = 0; j < s; ++j) {
    sw_index[switches_[j]->id()] = static_cast<std::uint32_t>(j);
    // Checked before any table is replaced, so a failed rebuild keeps every old table.
    if (adjacency_[switches_[j]->id()].size() > std::numeric_limits<Port>::max()) {
      throw ConfigError{"too many ports", "Network::build_routes, switch " + switches_[j]->name(),
                        "at most " + std::to_string(std::numeric_limits<Port>::max())};
    }
  }

  std::vector<std::uint32_t> dist(s * s, kUnreached);  // [j * s + i]: switch i to switch j
  std::vector<std::uint32_t> frontier;
  for (std::size_t j = 0; j < s; ++j) {
    std::uint32_t* to_j = &dist[j * s];
    to_j[j] = 0;
    frontier.assign(1, static_cast<std::uint32_t>(j));
    for (std::size_t head = 0; head < frontier.size(); ++head) {
      const std::uint32_t x = frontier[head];
      for (const Edge& e : adjacency_[switches_[x]->id()]) {
        const std::uint32_t k = sw_index[e.peer];
        if (k != kHost && to_j[k] == kUnreached) {
          to_j[k] = to_j[x] + 1;
          frontier.push_back(k);
        }
      }
    }
  }

  std::vector<std::uint32_t> via_off;  // switch j -> start of the next hops toward j
  std::vector<Port> via;
  for (std::size_t i = 0; i < s; ++i) {
    const auto& edges = adjacency_[switches_[i]->id()];
    // Next hops toward each switch: the neighbours one hop closer, in port order.
    via_off.assign(1, 0);
    via.clear();
    for (std::size_t j = 0; j < s; ++j) {
      const std::uint32_t d = dist[j * s + i];
      if (d != kUnreached && d > 0) {
        for (const Edge& e : edges) {
          const std::uint32_t k = sw_index[e.peer];
          if (k != kHost && dist[j * s + k] == d - 1) via.push_back(static_cast<Port>(e.port));
        }
      }
      via_off.push_back(static_cast<std::uint32_t>(via.size()));
    }

    std::vector<std::uint32_t> offsets{0};
    offsets.reserve(n + 1);
    std::vector<Port> ports;
    const auto append_via = [&](std::uint32_t j) {
      ports.insert(ports.end(), via.begin() + via_off[j], via.begin() + via_off[j + 1]);
    };
    for (NodeId dst = 0; dst < n; ++dst) {
      if (sw_index[dst] != kHost) {
        append_via(sw_index[dst]);
      } else {
        std::uint32_t nearest = kUnreached;
        for (const Edge& e : adjacency_[dst]) {
          const std::uint32_t k = sw_index[e.peer];
          if (k != kHost) nearest = std::min(nearest, dist[k * s + i]);
        }
        if (nearest == 0) {  // this switch is an access switch of dst
          for (const Edge& e : edges) {
            if (e.peer == dst) ports.push_back(static_cast<Port>(e.port));
          }
        } else if (nearest != kUnreached) {
          // The union over every nearest access switch, in port order.
          const std::size_t first = ports.size();
          for (const Edge& e : adjacency_[dst]) {
            const std::uint32_t k = sw_index[e.peer];
            if (k != kHost && dist[k * s + i] == nearest) append_via(k);
          }
          std::sort(ports.begin() + first, ports.end());
          ports.erase(std::unique(ports.begin() + first, ports.end()), ports.end());
        }
      }
      offsets.push_back(static_cast<std::uint32_t>(ports.size()));
    }
    switches_[i]->routes() = RoutingTable{std::move(offsets), std::move(ports)};
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
