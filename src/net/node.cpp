#include "net/node.hpp"

#include <stdexcept>
#include <utility>

#include "net/link.hpp"

namespace trim::net {

Node::Node(sim::Simulator* sim, NodeId id, std::string name)
    : sim_{sim}, id_{id}, name_{std::move(name)} {
  if (sim_ == nullptr) throw std::invalid_argument("Node: null simulator");
}

std::size_t Node::attach_link(Link* link) {
  if (link == nullptr) throw std::invalid_argument("Node::attach_link: null link");
  out_links_.push_back(link);
  return out_links_.size() - 1;
}

Link& Node::out_link(std::size_t port) const {
  if (port >= out_links_.size()) throw std::out_of_range("Node::out_link: bad port");
  return *out_links_[port];
}

}  // namespace trim::net
