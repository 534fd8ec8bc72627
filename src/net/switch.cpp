#include "net/switch.hpp"

#include "net/link.hpp"
#include "sim/logging.hpp"

namespace trim::net {

void Switch::receive(Packet p) {
  const std::size_t port = routes_.select_port(p.dst, p.flow, id_);
  if (port == RoutingTable::kNoRoute) {
    ++unroutable_;
    TRIM_LOG(sim::LogLevel::kWarn, sim_, "switch %s: no route for %s", name_.c_str(),
             p.describe().c_str());
    return;
  }
  ++forwarded_;
  out_links_[port]->send(std::move(p));
}

}  // namespace trim::net
