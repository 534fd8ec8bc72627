#include "net/link.hpp"

#include <cassert>
#include <utility>

#include "fault/fault_injector.hpp"
#include "net/node.hpp"
#include "obs/events.hpp"
#include "sim/config_error.hpp"
#include "sim/sharded_engine.hpp"

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
}

void Link::rebind_simulator(sim::Simulator* sim) {
  if (sim == nullptr) {
    throw ConfigError{"Link: null simulator", "link " + name_,
                      "a live shard simulator"};
  }
  if (busy_) {
    throw ConfigError{"Link: rebind while transmitting", "link " + name_,
                      "rebind before traffic starts"};
  }
  sim_ = sim;
  queue_->set_telemetry(sim_, obs::subject_id(name_));
}

void Link::set_cross_shard(sim::ShardedEngine* engine, int src_shard, int dst_shard) {
  engine_ = engine;
  src_shard_ = src_shard;
  dst_shard_ = dst_shard;
}

void Link::send(Packet p) {
  // Fault ingress: link-down and random loss remove the packet before the
  // egress queue ever sees it (a cut in front of the interface). The
  // injector counts these drops in its own stats.
  if (fault_ != nullptr && !fault_->offer(p)) return;
  if (!queue_->enqueue(std::move(p))) return;
  if (!busy_ && queue_->dequeue_into(in_flight_)) {
    busy_ = true;
    begin_transmission();
  }
}

void Link::begin_transmission() {
  // Self-clocked busy period: the continuation captures only `this`; the
  // head packet sits in in_flight_ and drain() refills the slot itself
  // until the queue runs dry. One scheduler touch per packet, no per-event
  // packet moves through the closure.
  const auto tx = sim::transmission_time(in_flight_.size_bytes(), bps_);
  auto done = [this] { drain(); };
  static_assert(sizeof(done) <= sim::InlineCallback::kInlineBytes);
  sim_->schedule(tx, std::move(done));
}

void Link::drain() {
  // Serialization finished: propagate, then hand to the peer. The link is
  // free for the next head-of-line packet immediately.
  Packet p = std::move(in_flight_);
  assert(peer_ != nullptr && "Link::send before set_peer");

  // Delivery-side faults: corruption marking plus extra delay from jitter,
  // reordering hold-back, or a fixed added delay; possibly a duplicate.
  // The clone consumes no extra serialization time (a dup on the wire),
  // but it is a real delivery, and its arrival is pushed first.
  auto extra = sim::SimTime::zero();
  if (fault_ != nullptr) {
    extra = fault_->on_deliver(p);
    if (fault_->duplicate_now(p)) deliver(Packet{p}, extra);
  }
  deliver(std::move(p), extra);

  // Arrival events are pushed before the next serialization event so the
  // dispatch order (and thus every downstream trace) matches the packet
  // timeline exactly.
  if (queue_->dequeue_into(in_flight_)) {
    begin_transmission();
  } else {
    busy_ = false;
  }
}

void Link::deliver(Packet&& p, sim::SimTime extra) {
  bytes_delivered_ += p.size_bytes();
  ++packets_delivered_;
  if (meter_ != nullptr) meter_->add(sim_->now(), p.size_bytes());

  auto arrive = [this, p = std::move(p)]() mutable {
    ++packets_arrived_;
    peer_->receive(std::move(p));
  };
  static_assert(sizeof(arrive) <= sim::InlineCallback::kInlineBytes);
  if (engine_ != nullptr) {
    // Shard cut: the arrival belongs to the peer's simulator. It lands in
    // the (src, dst) mailbox and is scheduled at the next window barrier —
    // delay_ >= the engine lookahead guarantees `due` is never behind the
    // destination shard's clock.
    engine_->post(src_shard_, dst_shard_, sim_->now() + delay_ + extra,
                  std::move(arrive));
  } else {
    sim_->schedule(delay_ + extra, std::move(arrive));
  }
}

}  // namespace trim::net
