// Property test: the fused net::Link behaves exactly like the two-event
// reference link (reference_link.hpp). Both are driven by the same
// randomized multi-link scripts in separate simulators; every sink's
// arrival sequence (time, uid, CE mark), every queue's stats and every
// link's delivery counters at checkpoints must match. Sizes, bandwidths and
// delays sit on one 2 us grid, so sends land exactly on a wire's busy-until
// time all the time — from callbacks that run before the phantom tx-done
// and from callbacks that run after it — and arrivals at a sink tie.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <tuple>
#include <type_traits>
#include <vector>

#include "fault/fault_injector.hpp"
#include "net/link.hpp"
#include "net/node.hpp"
#include "net/reference_link.hpp"

namespace trim::net {
namespace {

class Lcg {
 public:
  explicit Lcg(std::uint64_t seed) : x_{seed} {}
  std::uint64_t next() {
    x_ = x_ * 6364136223846793005ull + 1442695040888963407ull;
    return x_ >> 33;
  }

 private:
  std::uint64_t x_;
};

// (arrival time ns, uid, CE-marked, corrupted)
using Arrival = std::tuple<std::int64_t, std::uint64_t, bool, bool>;

class Sink : public Node {
 public:
  using Node::Node;
  void receive(Packet p) override {
    arrivals.emplace_back(sim_->now().ns(), p.uid, p.ecn == EcnCodepoint::kCe,
                          p.corrupted);
  }
  std::vector<Arrival> arrivals;
};

// Forwards every arrival into its out link at once, like a switch port:
// the send runs inside the arrival event, at whatever key that event has.
template <typename L>
class Relay : public Node {
 public:
  using Node::Node;
  void receive(Packet p) override { out->send(std::move(p)); }
  L* out = nullptr;
};

constexpr std::uint64_t kBps = 1'000'000'000;            // 1 Gbps: 8 ns/byte
constexpr std::uint32_t kPayloads[] = {210, 460, 1460};  // 2, 4, 12 us on the wire
constexpr std::int64_t kGrid = 2'000;                    // ns

// Three edge links into a relay, the relay's bottleneck link into sink 0,
// and two links into sink 1 (equal delays, so their arrivals tie).
// Senders are self-rescheduling chains that send random-size packets into
// random entry links and step by a random multiple of the grid (zero
// included: a same-time step is pushed behind the phantom tx-dones already
// reserved at now). An observer records every link's delivery counters on
// the grid, inside events that tie with tx ends. The 4 us delay equals a
// 500-byte packet's serialization time, so a key drawn at a tx end can tie
// a fused arrival's: the case sim::PhantomOwner handles.
template <typename L>
class World {
 public:
  World(std::uint64_t seed, QueueConfig bottleneck) : rnd_{seed} {
    for (int i = 0; i < 2; ++i) {
      sinks_.push_back(std::make_unique<Sink>(&sim_, static_cast<NodeId>(i), "sink"));
    }
    relay_ = std::make_unique<Relay<L>>(&sim_, 2, "relay");
    const sim::SimTime delay = sim::SimTime::nanos(2 * kGrid);
    for (int i = 0; i < 3; ++i) add_link(delay, QueueConfig{}, relay_.get());
    relay_->out = add_link(delay, bottleneck, sinks_[0].get());
    for (int i = 0; i < 2; ++i) add_link(delay, QueueConfig::droptail_packets(4), sinks_[1].get());
  }

  void start(int senders, int steps) {
    for (int s = 0; s < senders; ++s) step(steps);
    observe();
  }

  // Run to `until`, then record the counters as seen between runs.
  void run_until(sim::SimTime until) {
    sim_.run_until(until);
    record();
  }

  const std::vector<Arrival>& arrivals(int sink) const { return sinks_[sink]->arrivals; }
  const std::vector<std::uint64_t>& log() const { return log_; }
  std::vector<QueueStats> queue_stats() const {
    std::vector<QueueStats> out;
    for (const auto& l : links_) out.push_back(l->queue().stats());
    return out;
  }
  sim::Simulator& sim() { return sim_; }

 private:
  L* add_link(sim::SimTime delay, QueueConfig q, Node* peer) {
    links_.push_back(std::make_unique<L>(&sim_, std::string{"l"}.append(std::to_string(links_.size())), kBps,
                                         delay, std::make_unique<Queue>(q)));
    links_.back()->set_peer(peer);
    return links_.back().get();
  }

  void step(int left) {
    const int burst = rnd_.next() % 5 == 0 ? 3 : 1;
    for (int b = 0; b < burst; ++b) {
      // Entry links: the three edges and the two into sink 1.
      static constexpr int kEntries[] = {0, 1, 2, 4, 5};
      Packet p;
      p.uid = ++uid_;
      p.payload_bytes = kPayloads[rnd_.next() % 3];
      p.ecn = EcnCodepoint::kEct;
      links_[kEntries[rnd_.next() % 5]]->send(p);
    }
    if (left > 1) {
      const auto gap = sim::SimTime::nanos(kGrid * static_cast<std::int64_t>(rnd_.next() % 5));
      sim_.schedule(gap, [this, left] { step(left - 1); });
    }
  }

  void observe() {
    record();
    if (sim_.now() < sim::SimTime::millis(2)) {
      sim_.schedule(sim::SimTime::nanos(kGrid), [this] { observe(); });
    }
  }

  void record() {
    log_.push_back(static_cast<std::uint64_t>(sim_.now().ns()));
    for (const auto& l : links_) {
      log_.push_back(l->packets_delivered());
      log_.push_back(l->bytes_delivered());
      log_.push_back(l->packets_arrived());
    }
  }

  sim::Simulator sim_;
  Lcg rnd_;
  std::uint64_t uid_ = 0;
  std::vector<std::unique_ptr<Sink>> sinks_;
  std::unique_ptr<Relay<L>> relay_;
  std::vector<std::unique_ptr<L>> links_;
  std::vector<std::uint64_t> log_;
};

template <typename L>
void drive(World<L>& w) {
  w.start(3, 400);
  // Slices ending on the grid: run_until's boundary is a tx end too.
  for (const std::int64_t cut : {12'000, 50'000, 50'000, 300'000, 1'000'000, 4'000'000}) {
    w.run_until(sim::SimTime::nanos(cut));
  }
}

void expect_same(std::uint64_t seed, QueueConfig bottleneck) {
  World<Link> fused{seed, bottleneck};
  World<ReferenceLink> ref{seed, bottleneck};
  drive(fused);
  drive(ref);
  ASSERT_GT(ref.arrivals(0).size(), 100u) << "seed " << seed;
  ASSERT_GT(ref.arrivals(1).size(), 100u) << "seed " << seed;
  EXPECT_EQ(fused.arrivals(0), ref.arrivals(0)) << "seed " << seed;
  EXPECT_EQ(fused.arrivals(1), ref.arrivals(1)) << "seed " << seed;
  EXPECT_EQ(fused.log(), ref.log()) << "seed " << seed;
  const auto fq = fused.queue_stats();
  const auto rq = ref.queue_stats();
  ASSERT_EQ(fq.size(), rq.size());
  for (std::size_t i = 0; i < fq.size(); ++i) {
    EXPECT_EQ(fq[i].enqueued, rq[i].enqueued) << "link " << i << ", seed " << seed;
    EXPECT_EQ(fq[i].dequeued, rq[i].dequeued) << "link " << i << ", seed " << seed;
    EXPECT_EQ(fq[i].dropped, rq[i].dropped) << "link " << i << ", seed " << seed;
    EXPECT_EQ(fq[i].bytes_dropped, rq[i].bytes_dropped) << "link " << i << ", seed " << seed;
    EXPECT_EQ(fq[i].marked_ce, rq[i].marked_ce) << "link " << i << ", seed " << seed;
  }
  // Fewer events for the same traffic.
  EXPECT_LT(fused.sim().events_dispatched(), ref.sim().events_dispatched());
}

TEST(LinkEquivalence, DroptailScriptsMatchTheTwoEventPath) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    expect_same(seed * 0x9e3779b97f4a7c15ull, QueueConfig::droptail_packets(3));
  }
}

TEST(LinkEquivalence, EcnScriptsMatchTheTwoEventPath) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    expect_same(seed * 0x2545F4914F6CDD1Dull, QueueConfig::ecn_packets(6, 2));
  }
}

Packet sized(std::uint32_t payload, std::uint64_t uid) {
  Packet p;
  p.payload_bytes = payload;
  p.uid = uid;
  return p;
}

TEST(LinkEquivalence, IdleHopCostsOneEvent) {
  sim::Simulator sim;
  Sink sink{&sim, 1, "sink"};
  Link link{&sim, "l", kBps, sim::SimTime::micros(10), std::make_unique<Queue>()};
  link.set_peer(&sink);
  link.send(sized(1460, 1));
  EXPECT_EQ(sim.pending_events(), 1u);
  EXPECT_FALSE(link.tx_done_event().valid());
  sim.run();
  EXPECT_EQ(sim.events_dispatched(), 1u);
  ASSERT_EQ(sink.arrivals.size(), 1u);
  EXPECT_EQ(std::get<0>(sink.arrivals[0]), 22'000);
}

TEST(LinkEquivalence, BurstOfNCostsTwoNMinusOneEvents) {
  for (const int n : {1, 2, 5, 16}) {
    sim::Simulator sim;
    Sink sink{&sim, 1, "sink"};
    Link link{&sim, "l", kBps, sim::SimTime::micros(10), std::make_unique<Queue>()};
    link.set_peer(&sink);
    for (int i = 0; i < n; ++i) link.send(sized(1460, static_cast<std::uint64_t>(i)));
    sim.run();
    EXPECT_EQ(sim.events_dispatched(), static_cast<std::uint64_t>(2 * n - 1)) << n;
    EXPECT_EQ(sink.arrivals.size(), static_cast<std::size_t>(n));
  }
}

// packets_delivered counts a packet at its serialization end, not at its
// start (when the fused arrival is pushed) nor at its arrival.
TEST(LinkEquivalence, DeliveredCountsAtSerializationEnd) {
  sim::Simulator sim;
  Sink sink{&sim, 1, "sink"};
  Link link{&sim, "l", kBps, sim::SimTime::micros(10), std::make_unique<Queue>()};
  link.set_peer(&sink);
  link.send(sized(1460, 1));  // on the wire [0, 12 us)
  EXPECT_EQ(link.packets_delivered(), 0u);
  sim.run_until(sim::SimTime::nanos(11'999));
  EXPECT_EQ(link.packets_delivered(), 0u);
  EXPECT_EQ(link.bytes_delivered(), 0u);
  EXPECT_EQ(link.busy_until(), sim::SimTime::micros(12));
  sim.run_until(sim::SimTime::micros(12));
  EXPECT_EQ(link.packets_delivered(), 1u);
  EXPECT_EQ(link.bytes_delivered(), 1500u);
  EXPECT_EQ(link.packets_arrived(), 0u);
  sim.run();
  EXPECT_EQ(link.packets_arrived(), 1u);
}

// Faults are drawn at the serialization end: a fault window that opens
// while a packet serializes applies to it (its tx-done runs inside the
// window), not by its start time. Duplicates, jitter, reordering and
// corruption must all land exactly as on the two-event path.
template <typename L>
std::tuple<std::vector<Arrival>, std::uint64_t, std::uint64_t, fault::FaultStats>
fault_window_run() {
  fault::FaultConfig cfg;
  cfg.seed = 7;
  cfg.duplicate_probability = 0.3;
  cfg.corrupt_probability = 0.2;
  cfg.reorder_probability = 0.2;
  cfg.reorder_extra_max = sim::SimTime::micros(30);
  cfg.jitter_max = sim::SimTime::micros(3);
  cfg.active_from = sim::SimTime::micros(13);  // mid-serialization of packet 2
  cfg.active_until = sim::SimTime::micros(500);
  sim::Simulator sim;
  Sink sink{&sim, 1, "sink"};
  L link{&sim, "l", kBps, sim::SimTime::micros(4), std::make_unique<Queue>()};
  link.set_peer(&sink);
  fault::FaultInjector inj{&sim, cfg};
  if constexpr (std::is_same_v<L, Link>) {
    inj.attach(link);
  } else {
    link.set_fault_injector(&inj);
  }
  std::uint64_t uid = 0;
  // A back-to-back burst, then idle sends on the grid, some at tx ends.
  for (int i = 0; i < 6; ++i) link.send(sized(1460, ++uid));
  for (int i = 0; i < 60; ++i) {
    sim.schedule_at(sim::SimTime::micros(72 + 6 * i), [&link, &uid] {
      const std::uint32_t payload = kPayloads[uid % 3];
      link.send(sized(payload, ++uid));
    });
  }
  sim.run();
  return {sink.arrivals, link.packets_delivered(), link.bytes_delivered(), inj.stats()};
}

TEST(LinkEquivalence, FaultWindowOpeningMidSerializationMatches) {
  const auto [fused, fused_pkts, fused_bytes, fused_stats] = fault_window_run<Link>();
  const auto [ref, ref_pkts, ref_bytes, ref_stats] = fault_window_run<ReferenceLink>();
  EXPECT_EQ(fused, ref);
  EXPECT_EQ(fused_pkts, ref_pkts);
  EXPECT_EQ(fused_bytes, ref_bytes);
  EXPECT_GT(ref_stats.duplicated, 0u);
  EXPECT_GT(ref_stats.corrupted, 0u);
  EXPECT_GT(ref_stats.reordered, 0u);
  EXPECT_EQ(fused_stats.duplicated, ref_stats.duplicated);
  EXPECT_EQ(fused_stats.corrupted, ref_stats.corrupted);
  EXPECT_EQ(fused_stats.reordered, ref_stats.reordered);
  // Packet 1 ended serialization before the window opened: no fault
  // touched it. Packet 2 was on the wire when it opened.
  ASSERT_FALSE(ref.empty());
  EXPECT_EQ(std::get<1>(ref[0]), 1u);
  EXPECT_EQ(std::get<0>(ref[0]), 16'000);
}

}  // namespace
}  // namespace trim::net
