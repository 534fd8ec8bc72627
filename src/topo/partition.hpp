// Kept only for the frozen benchmark driver (perfbench/workloads.cpp),
// which calls topo::shard_network after building each topology. Every
// world is one serial Simulator (docs/MODELING.md, "Item 3(d): the
// sharded engine is deleted"), so the call does nothing.
#pragma once

#include "net/network.hpp"
#include "sim/simulator.hpp"

namespace trim::topo {

inline void shard_network(net::Network& /*network*/, sim::Simulator& /*engine*/) {}

}  // namespace trim::topo
