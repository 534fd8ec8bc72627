// Unidirectional point-to-point link: egress queue -> serialization at the
// configured bandwidth -> fixed propagation delay -> delivery to the peer
// node. Topology helpers create one Link per direction.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "net/packet.hpp"
#include "net/queue.hpp"
#include "sim/simulator.hpp"
#include "stats/rate_meter.hpp"

namespace trim::fault {
class FaultInjector;
}

namespace trim::net {

class Node;

class Link {
 public:
  Link(sim::Simulator* sim, std::string name, std::uint64_t bits_per_sec,
       sim::SimTime prop_delay, std::unique_ptr<Queue> queue);

  Link(const Link&) = delete;
  Link& operator=(const Link&) = delete;

  void set_peer(Node* peer) { peer_ = peer; }
  Node* peer() const { return peer_; }

  // Hand a packet to the link. It is queued (possibly dropped) and
  // serialized in FIFO order.
  void send(Packet p);

  Queue& queue() { return *queue_; }
  const Queue& queue() const { return *queue_; }

  std::uint64_t bits_per_sec() const { return bps_; }
  sim::SimTime prop_delay() const { return delay_; }
  const std::string& name() const { return name_; }

  std::uint64_t bytes_delivered() const { return bytes_delivered_; }
  std::uint64_t packets_delivered() const { return packets_delivered_; }
  // Packets whose arrival event at the peer has fired; delivered - arrived
  // is what is still propagating (the invariant checker reads both).
  std::uint64_t packets_arrived() const { return packets_arrived_; }

  // Optional throughput instrumentation; counts bytes at delivery time.
  void set_delivery_meter(stats::RateMeter* meter) { meter_ = meter; }

  // Optional fault injection (see fault/fault_injector.hpp). Installed by
  // FaultInjector::attach; with no injector (or an all-disabled one) the
  // packet path is untouched.
  void set_fault_injector(fault::FaultInjector* f) { fault_ = f; }
  const fault::FaultInjector* fault_injector() const { return fault_; }

 private:
  void begin_transmission();
  void drain();
  // The delivery leg of one packet (the original or a fault duplicate):
  // count and meter it, then schedule its arrival at the peer `extra`
  // beyond the propagation delay.
  void deliver(Packet&& p, sim::SimTime extra);

  sim::Simulator* sim_;
  std::string name_;
  std::uint64_t bps_;
  sim::SimTime delay_;
  std::unique_ptr<Queue> queue_;
  Node* peer_ = nullptr;
  bool busy_ = false;
  // The packet currently being serialized. Keeping it in the link rather
  // than in the event closure makes the busy-period continuation capture
  // just `this`: one wire slot, refilled in place per drained packet.
  Packet in_flight_;

  std::uint64_t bytes_delivered_ = 0;
  std::uint64_t packets_delivered_ = 0;
  std::uint64_t packets_arrived_ = 0;
  stats::RateMeter* meter_ = nullptr;
  fault::FaultInjector* fault_ = nullptr;
};

}  // namespace trim::net
