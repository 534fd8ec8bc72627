// Static shortest-path routing with ECMP.
//
// Routes are computed once after the topology is built (data-center fabrics
// are static for the duration of the paper's experiments). For each switch
// and each destination node, the table stores every egress port that lies
// on a shortest path; the forwarding decision hashes the flow id over that
// set, which is exactly per-flow ECMP as deployed in fat-trees.
//
// Layout: one flat table per switch. `offsets[d]..offsets[d + 1]` is the
// slice of `ports` holding destination d's ECMP set, in ascending port
// order; an empty slice means no route. Network::build_routes produces it.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "net/address.hpp"

namespace trim::net {

// 64-bit mix used to decorrelate flow ids before the modulo (consecutive
// flow ids would otherwise all hash to consecutive ports).
std::uint64_t mix64(std::uint64_t x);

class RoutingTable {
 public:
  using Port = std::uint16_t;
  // select_port's answer for a destination with no route.
  static constexpr std::size_t kNoRoute = ~std::size_t{0};

  // An empty table: no destination has a route.
  RoutingTable() = default;
  // Throws std::invalid_argument unless offsets starts at 0, never
  // decreases and ends at ports.size().
  RoutingTable(std::vector<std::uint32_t> offsets, std::vector<Port> ports);

  // Deterministic per-flow ECMP pick, or kNoRoute. `salt` must differ per
  // switch (use the node id): hashing the bare flow id at every hop
  // correlates the choices hop-to-hop and leaves entire core subsets unused.
  std::size_t select_port(NodeId dst, FlowId flow, std::uint64_t salt = 0) const {
    if (std::size_t{dst} + 1 >= offsets_.size()) return kNoRoute;
    const std::uint32_t begin = offsets_[dst];
    const std::uint32_t n = offsets_[dst + 1] - begin;
    if (n <= 1) return n == 0 ? kNoRoute : ports_[begin];
    return ports_[begin + mix64(flow ^ (salt << 32)) % n];
  }

  // The ECMP set select_port indexes. Throws std::out_of_range when there is
  // no route to dst.
  std::span<const Port> ports_for(NodeId dst) const;

 private:
  std::vector<std::uint32_t> offsets_{0};  // destination id -> start in ports_
  std::vector<Port> ports_;
};

}  // namespace trim::net
