// Base class for hosts and switches: an identity plus attached egress links.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "net/address.hpp"
#include "net/packet.hpp"
#include "sim/simulator.hpp"

namespace trim::net {

class Link;

class Node {
 public:
  Node(sim::Simulator* sim, NodeId id, std::string name);
  virtual ~Node() = default;

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  NodeId id() const { return id_; }
  const std::string& name() const { return name_; }
  sim::Simulator* simulator() const { return sim_; }

  // Registers an egress link; returns its port index on this node.
  std::size_t attach_link(Link* link);
  std::size_t port_count() const { return out_links_.size(); }
  Link& out_link(std::size_t port) const;

  virtual void receive(Packet p) = 0;

 protected:
  sim::Simulator* sim_;
  NodeId id_;
  std::string name_;
  std::vector<Link*> out_links_;
};

}  // namespace trim::net
