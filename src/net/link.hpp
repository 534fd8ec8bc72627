// Unidirectional point-to-point link: egress queue -> serialization at the
// configured bandwidth -> fixed propagation delay -> delivery to the peer
// node. Topology helpers create one Link per direction.
//
// Occupancy is a timestamp, not an event. A packet that starts on an idle
// wire costs one scheduler event, its arrival at the peer, pushed at the
// transmission start. The tx-done ("drain") event that pops the next packet
// is materialized only while a packet waits behind the wire; a back-to-back
// burst of N packets costs 2N-1 events.
//
// The order of events is exactly that of the two-event path, where every
// packet's tx-done pushed its arrival: each transmission draws the key its
// tx-done would have taken, and the arrival is keyed (arrival time, tx end,
// that sequence) — the place the tx-done's push would give it among
// equal-time events. A materialized tx-done runs under that same key. A send
// landing exactly at the tx end compares the running event's key with the
// phantom tx-done's to learn whether the wire is already free. When a key
// with the link's delay as lag is drawn at the tx end before the phantom
// has run (sim::PhantomOwner), the tx-done is materialized and re-keys the
// arrival with a fresh key, as the two-event path's push would have.
//
// A link with a fault injector or a delivery meter keeps the two-event path:
// their hooks depend on the time of the serialization end, so the tx-done is
// always materialized and delivers the packet then.
#pragma once

#include <cstdint>
#include <limits>
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

class Link : private sim::PhantomOwner {
 public:
  Link(sim::Simulator* sim, std::string name, std::uint64_t bits_per_sec,
       sim::SimTime prop_delay, std::unique_ptr<Queue> queue);
  ~Link();

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

  // Packets (and bytes) whose serialization has ended, fault duplicates
  // included: a packet still on the wire does not count yet.
  std::uint64_t bytes_delivered() const {
    return bytes_delivered_ - (prepaid_on_wire() ? wire_bytes_ : 0);
  }
  std::uint64_t packets_delivered() const {
    return packets_delivered_ - (prepaid_on_wire() ? 1 : 0);
  }
  // Packets whose arrival event at the peer has fired; delivered - arrived
  // is what is still propagating (the invariant checker reads both).
  std::uint64_t packets_arrived() const { return packets_arrived_; }

  // When the packet on the wire (or the last one) ends serialization, and
  // the pending tx-done event, if one is materialized. While the queue
  // holds a packet, a tx-done is pending at busy_until().
  sim::SimTime busy_until() const { return sim::SimTime::nanos(tx_done_.at); }
  sim::EventId tx_done_event() const { return drain_; }

  // Optional throughput instrumentation; counts bytes at delivery time.
  // Attach before traffic: a packet already on the wire is not metered.
  void set_delivery_meter(stats::RateMeter* meter) { meter_ = meter; }

  // Optional fault injection (see fault/fault_injector.hpp). Installed by
  // FaultInjector::attach; with no injector (or an all-disabled one) the
  // packet path is untouched. Like the meter, it applies to packets that
  // start serialization after it is attached.
  void set_fault_injector(fault::FaultInjector* f) { fault_ = f; }
  const fault::FaultInjector* fault_injector() const { return fault_; }

 private:
  // True until the tx-done of the packet last put on the wire has run
  // (or would have run, when it was never materialized).
  bool on_wire() const { return sim_->running_key() < tx_done_; }
  // A packet whose delivery was counted at its transmission start is still
  // serializing.
  bool prepaid_on_wire() const { return !held_ && on_wire(); }
  // Fused arrivals need a lag the key can hold; a longer delay keeps the
  // two-event path.
  bool fusable() const { return delay_.ns() < sim::EventKey::kMaxLag; }
  // Put in_flight_ on the free wire at now.
  void begin_transmission();
  void arm_tx_done();
  void tx_done();
  void on_phantom_tie() override;
  // The delivery leg of one held packet (the original or a fault
  // duplicate): count and meter it, then schedule its arrival at the peer
  // `extra` beyond the propagation delay.
  void deliver(Packet&& p, sim::SimTime extra);
  auto arrival(Packet&& p);

  sim::Simulator* sim_;
  std::string name_;
  std::uint64_t bps_;
  sim::SimTime delay_;
  std::unique_ptr<Queue> queue_;
  Node* peer_ = nullptr;
  // The head packet, between its dequeue and its transmission start, and
  // on a held wire until its tx-done.
  Packet in_flight_;
  // Key of the tx-done of the packet last put on the wire, run or not;
  // tx_done_.at is the wire's busy-until time.
  sim::EventKey tx_done_{std::numeric_limits<std::int64_t>::min(), 0, 0};
  sim::EventId drain_;    // the materialized tx-done, while pending
  sim::EventId arrival_; // the fused arrival of the last packet put on the wire
  bool held_ = false;    // the wire packet is delivered at its tx-done
  bool rekey_ = false;   // the tx-done re-keys arrival_ (on_phantom_tie)
  std::uint32_t wire_bytes_ = 0;

  std::uint64_t bytes_delivered_ = 0;
  std::uint64_t packets_delivered_ = 0;
  std::uint64_t packets_arrived_ = 0;
  stats::RateMeter* meter_ = nullptr;
  fault::FaultInjector* fault_ = nullptr;
};

}  // namespace trim::net
