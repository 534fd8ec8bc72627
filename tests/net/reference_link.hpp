// Reference model of the link contract: the two-event path.
//
// net::Link fuses each idle hop into one arrival event and materializes a
// tx-done only behind a busy wire. This link is the direct form it must
// match: every packet costs a tx-done event at its serialization end, and
// that tx-done delivers the packet (counting, metering, fault hooks) and
// pushes its arrival at the peer with a plain schedule. The link
// equivalence tests drive both with the same scripts and compare arrival
// sequences, queue stats and delivery counters. It is not linked into the
// simulator.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>

#include "fault/fault_injector.hpp"
#include "net/node.hpp"
#include "net/packet.hpp"
#include "net/queue.hpp"
#include "obs/events.hpp"
#include "sim/simulator.hpp"

namespace trim::net {

class ReferenceLink {
 public:
  ReferenceLink(sim::Simulator* sim, std::string name, std::uint64_t bits_per_sec,
                sim::SimTime prop_delay, std::unique_ptr<Queue> queue)
      : sim_{sim}, bps_{bits_per_sec}, delay_{prop_delay}, queue_{std::move(queue)} {
    queue_->set_telemetry(sim_, obs::subject_id(name));
  }

  void set_peer(Node* peer) { peer_ = peer; }
  // Installed directly (FaultInjector::attach takes a net::Link); the link
  // calls the same offer / on_deliver / duplicate_now hooks.
  void set_fault_injector(fault::FaultInjector* f) { fault_ = f; }

  void send(Packet p) {
    if (fault_ != nullptr && !fault_->offer(p)) return;
    if (!queue_->enqueue(std::move(p))) return;
    if (!busy_ && queue_->dequeue_into(in_flight_)) {
      busy_ = true;
      begin_transmission();
    }
  }

  const Queue& queue() const { return *queue_; }
  std::uint64_t bytes_delivered() const { return bytes_delivered_; }
  std::uint64_t packets_delivered() const { return packets_delivered_; }
  std::uint64_t packets_arrived() const { return packets_arrived_; }

 private:
  void begin_transmission() {
    sim_->schedule(sim::transmission_time(in_flight_.size_bytes(), bps_),
                   [this] { drain(); });
  }

  void drain() {
    Packet p = std::move(in_flight_);
    auto extra = sim::SimTime::zero();
    if (fault_ != nullptr) {
      extra = fault_->on_deliver(p);
      if (fault_->duplicate_now(p)) deliver(Packet{p}, extra);
    }
    deliver(std::move(p), extra);
    if (queue_->dequeue_into(in_flight_)) {
      begin_transmission();
    } else {
      busy_ = false;
    }
  }

  void deliver(Packet&& p, sim::SimTime extra) {
    bytes_delivered_ += p.size_bytes();
    ++packets_delivered_;
    sim_->schedule(delay_ + extra, [this, p = std::move(p)]() mutable {
      ++packets_arrived_;
      peer_->receive(std::move(p));
    });
  }

  sim::Simulator* sim_;
  std::uint64_t bps_;
  sim::SimTime delay_;
  std::unique_ptr<Queue> queue_;
  Node* peer_ = nullptr;
  fault::FaultInjector* fault_ = nullptr;
  bool busy_ = false;
  Packet in_flight_;
  std::uint64_t bytes_delivered_ = 0;
  std::uint64_t packets_delivered_ = 0;
  std::uint64_t packets_arrived_ = 0;
};

}  // namespace trim::net
