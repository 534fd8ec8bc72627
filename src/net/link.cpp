#include "net/link.hpp"

#include <cassert>
#include <utility>

#include "fault/fault_injector.hpp"
#include "net/node.hpp"
#include "obs/events.hpp"
#include "sim/config_error.hpp"

namespace trim::net {

Link::Link(sim::Simulator* sim, std::string name, std::uint64_t bits_per_sec,
           sim::SimTime prop_delay, std::unique_ptr<Queue> queue)
    : sim_{sim},
      name_{std::move(name)},
      bps_{bits_per_sec},
      delay_{prop_delay},
      queue_{std::move(queue)} {
  if (sim_ == nullptr || queue_ == nullptr) {
    throw ConfigError{"Link: bad construction parameters", "link " + name_,
                      "non-null simulator and queue"};
  }
  if (bps_ == 0) {
    throw ConfigError{"Link: zero bandwidth", "link " + name_, "bits_per_sec > 0"};
  }
  // Queue events (watermarks, drop episodes) report under this link's
  // stable name hash, identical across runs and processes.
  queue_->set_telemetry(sim_, obs::subject_id(name_));
  if (fusable()) sim_->watch_lag(delay_, this);
}

auto Link::arrival(Packet&& p) {
  auto arrive = [this, p = std::move(p)]() mutable {
    ++packets_arrived_;
    peer_->receive(std::move(p));
  };
  static_assert(sizeof(arrive) <= sim::InlineCallback::kInlineBytes);
  return arrive;
}

Link::~Link() {
  if (fusable()) sim_->unwatch_lag(delay_, this);
}

void Link::send(Packet p) {
  // Fault ingress: link-down and random loss remove the packet before the
  // egress queue ever sees it (a cut in front of the interface). The
  // injector counts these drops in its own stats.
  if (fault_ != nullptr && !fault_->offer(p)) return;
  if (!queue_->enqueue(std::move(p))) return;
  if (on_wire()) {
    // The packet waits behind the wire: its tx-done pops it.
    if (!drain_.valid()) arm_tx_done();
  } else if (queue_->dequeue_into(in_flight_)) {
    begin_transmission();
  }
}

void Link::begin_transmission() {
  assert(peer_ != nullptr && "Link::send before set_peer");
  const std::uint32_t size = in_flight_.size_bytes();
  // The key this packet's tx-done takes, materialized or not.
  tx_done_ = sim_->draw_key(sim_->now() + sim::transmission_time(size, bps_));
  held_ = fault_ != nullptr || meter_ != nullptr || !fusable();
  if (held_) {
    arm_tx_done();
    return;
  }
  // Counted now, subtracted again while on the wire (packets_delivered).
  ++packets_delivered_;
  bytes_delivered_ += size;
  wire_bytes_ = size;
  arrival_ = sim_->schedule_keyed(busy_until() + delay_, busy_until(), tx_done_.seq,
                                  arrival(std::move(in_flight_)));
  if (!queue_->empty()) arm_tx_done();
}

void Link::arm_tx_done() {
  // The continuation captures only `this`: the head packet waits in the
  // queue (or, on a held wire, in in_flight_).
  auto done = [this] { tx_done(); };
  static_assert(sizeof(done) <= sim::InlineCallback::kInlineBytes);
  drain_ = sim_->schedule_keyed(tx_done_, std::move(done));
}

void Link::on_phantom_tie() {
  // A key with this link's delay as lag was drawn now. If the packet on the
  // wire ends serialization now and its tx-done has not run, that key sorts
  // before the fused arrival here but after it on the two-event path. The
  // tx-done, materialized, re-keys the arrival as it runs.
  if (held_ || rekey_ || busy_until() != sim_->now() || !on_wire()) return;
  rekey_ = true;
  if (!drain_.valid()) arm_tx_done();
}

void Link::tx_done() {
  drain_ = {};
  if (rekey_) {
    rekey_ = false;
    arrival_ = sim_->rekey(arrival_, sim_->draw_key(busy_until() + delay_));
  }
  if (held_) {
    // Delivery-side faults: corruption marking plus extra delay from
    // jitter, reordering hold-back, or a fixed added delay; possibly a
    // duplicate. The clone consumes no extra serialization time (a dup on
    // the wire), but it is a real delivery, and its arrival is pushed first.
    Packet p = std::move(in_flight_);
    auto extra = sim::SimTime::zero();
    if (fault_ != nullptr) {
      extra = fault_->on_deliver(p);
      if (fault_->duplicate_now(p)) deliver(Packet{p}, extra);
    }
    deliver(std::move(p), extra);
  }
  if (queue_->dequeue_into(in_flight_)) begin_transmission();
}

void Link::deliver(Packet&& p, sim::SimTime extra) {
  bytes_delivered_ += p.size_bytes();
  ++packets_delivered_;
  if (meter_ != nullptr) meter_->add(sim_->now(), p.size_bytes());
  sim_->schedule(delay_ + extra, arrival(std::move(p)));
}

}  // namespace trim::net
