#include "net/routing.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace trim::net {

std::uint64_t mix64(std::uint64_t x) {
  // splitmix64 finalizer.
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

RoutingTable::RoutingTable(std::vector<std::uint32_t> offsets, std::vector<Port> ports)
    : offsets_{std::move(offsets)}, ports_{std::move(ports)} {
  if (offsets_.empty() || offsets_.front() != 0 || offsets_.back() != ports_.size() ||
      !std::is_sorted(offsets_.begin(), offsets_.end())) {
    throw std::invalid_argument("RoutingTable: offsets must rise from 0 to ports.size()");
  }
}

std::span<const RoutingTable::Port> RoutingTable::ports_for(NodeId dst) const {
  if (select_port(dst, 0) == kNoRoute) {
    throw std::out_of_range("RoutingTable: no route to destination");
  }
  return {ports_.data() + offsets_[dst], ports_.data() + offsets_[dst + 1]};
}

}  // namespace trim::net
