// Shared harness for transport tests: two directly linked hosts with a
// scriptable drop queue on the data path, so tests can lose precisely the
// segments they want to.
#pragma once

#include <memory>
#include <set>

#include "net/host.hpp"
#include "net/link.hpp"
#include "net/queue.hpp"
#include "sim/simulator.hpp"

namespace trim::test {

// Droptail queue that additionally drops selected data segments, once each.
// An ECN threshold in the config still marks (so DCTCP tests can use this
// scriptable queue as their bottleneck).
class ScriptedDropQueue : public net::Queue {
 public:
  explicit ScriptedDropQueue(net::QueueConfig cfg) : Queue{cfg} {}

  void drop_segment_once(std::uint64_t seq) { to_drop_.insert(seq); }
  void drop_next_data(int n) { drop_next_ += n; }

  bool enqueue(net::Packet p) override {
    if (!p.is_ack) {
      if (drop_next_ > 0) {
        --drop_next_;
        drop(p);
        return false;
      }
      const auto it = to_drop_.find(p.seq);
      if (it != to_drop_.end()) {
        to_drop_.erase(it);
        drop(p);
        return false;
      }
    }
    return Queue::enqueue(std::move(p));
  }

 private:
  std::multiset<std::uint64_t> to_drop_;
  int drop_next_ = 0;
};

// a --(data path, scriptable)--> b and b --(clean ack path)--> a.
struct HostPair {
  explicit HostPair(std::uint64_t bps = 1'000'000'000,
                    sim::SimTime delay = sim::SimTime::micros(50),
                    net::QueueConfig data_queue_cfg = net::QueueConfig{}) {
    auto dq = std::make_unique<ScriptedDropQueue>(data_queue_cfg);
    data_queue = dq.get();
    ab = std::make_unique<net::Link>(&sim, "a->b", bps, delay, std::move(dq));
    ba = std::make_unique<net::Link>(&sim, "b->a", bps, delay,
                                     std::make_unique<net::Queue>());
    ab->set_peer(&b);
    ba->set_peer(&a);
    a.attach_link(ab.get());
    b.attach_link(ba.get());
  }

  sim::Simulator sim;
  net::Host a{&sim, 0, "a"};
  net::Host b{&sim, 1, "b"};
  std::unique_ptr<net::Link> ab, ba;
  ScriptedDropQueue* data_queue = nullptr;
};

}  // namespace trim::test
