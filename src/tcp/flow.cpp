#include "tcp/flow.hpp"

#include "mem/sim_memory.hpp"
#include "sim/config_error.hpp"

#include <stdexcept>

namespace trim::tcp {

Flow make_flow(net::Network& network, net::Host& src, net::Host& dst,
               const SenderFactory& factory, ReceiverConfig receiver_cfg) {
  if (!factory) {
    throw ConfigError{"null sender factory", "make_flow"};
  }
  Flow flow;
  flow.id = network.new_flow_id();
  // The receiver lives in the destination host's arena; the factory
  // decides where the sender lives — the protocol factories use the
  // source host's arena.
  mem::Arena* arena = nullptr;
  if (mem::SimMemory* m = mem::memory_of(dst.simulator())) arena = &m->arena;
  flow.receiver =
      mem::arena_new<TcpReceiver>(arena, &dst, flow.id, src.id(), receiver_cfg);
  flow.sender = factory(&src, dst.id(), flow.id);
  return flow;
}

}  // namespace trim::tcp
