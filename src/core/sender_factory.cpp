#include "core/sender_factory.hpp"

#include "mem/sim_memory.hpp"
#include "sim/config_error.hpp"

#include <stdexcept>

namespace trim::core {

mem::ArenaPtr<tcp::TcpSender> make_sender(tcp::Protocol protocol, net::Host* src,
                                          net::NodeId dst, net::FlowId flow,
                                          const ProtocolOptions& opts) {
  // Senders are carved from the source host's arena in creation order:
  // the per-ACK virtual dispatch then walks contiguous storage instead of
  // scattered heap objects. Bare simulators (no attached domain) fall back
  // to the heap — arena_new(nullptr) is make_unique.
  mem::Arena* a = nullptr;
  if (src != nullptr) {
    if (mem::SimMemory* m = mem::memory_of(src->simulator())) a = &m->arena;
  }
  switch (protocol) {
    case tcp::Protocol::kReno:
      return mem::arena_new<tcp::RenoSender>(a, src, dst, flow, opts.tcp);
    case tcp::Protocol::kCubic:
      return mem::arena_new<tcp::CubicSender>(a, src, dst, flow, opts.tcp, opts.cubic);
    case tcp::Protocol::kDctcp:
      return mem::arena_new<tcp::DctcpSender>(a, src, dst, flow, opts.tcp, opts.dctcp);
    case tcp::Protocol::kL2dct:
      return mem::arena_new<tcp::L2dctSender>(a, src, dst, flow, opts.tcp, opts.l2dct,
                                              opts.dctcp);
    case tcp::Protocol::kTrim:
      return mem::arena_new<TrimSender>(a, src, dst, flow, opts.tcp, opts.trim);
    case tcp::Protocol::kVegas:
      return mem::arena_new<tcp::VegasSender>(a, src, dst, flow, opts.tcp, opts.vegas);
    case tcp::Protocol::kD2tcp:
      return mem::arena_new<tcp::D2tcpSender>(a, src, dst, flow, opts.tcp, opts.d2tcp,
                                              opts.dctcp);
    case tcp::Protocol::kGip:
      return mem::arena_new<tcp::GipSender>(a, src, dst, flow, opts.tcp, opts.gip);
  }
  throw ConfigError{"unknown protocol", "make_sender"};
}

tcp::Flow make_protocol_flow(net::Network& network, net::Host& src, net::Host& dst,
                             tcp::Protocol protocol, const ProtocolOptions& opts,
                             tcp::ReceiverConfig receiver_cfg) {
  return tcp::make_flow(
      network, src, dst,
      [&](net::Host* s, net::NodeId d, net::FlowId f) {
        return make_sender(protocol, s, d, f, opts);
      },
      receiver_cfg);
}

}  // namespace trim::core
