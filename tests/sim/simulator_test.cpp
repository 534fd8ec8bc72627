#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <vector>

#include "net/link.hpp"
#include "net/node.hpp"
#include "sim/simulator.hpp"

namespace trim::sim {
namespace {

TEST(Simulator, ClockAdvancesWithEvents) {
  Simulator sim;
  SimTime seen;
  sim.schedule(SimTime::millis(5), [&] { seen = sim.now(); });
  sim.run();
  EXPECT_EQ(seen, SimTime::millis(5));
  EXPECT_EQ(sim.now(), SimTime::millis(5));
}

TEST(Simulator, ScheduleIsRelativeToNow) {
  Simulator sim;
  SimTime inner;
  sim.schedule(SimTime::millis(1), [&] {
    sim.schedule(SimTime::millis(2), [&] { inner = sim.now(); });
  });
  sim.run();
  EXPECT_EQ(inner, SimTime::millis(3));
}

TEST(Simulator, RunUntilStopsAtBoundaryInclusive) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(SimTime::millis(10), [&] { ++fired; });
  sim.schedule_at(SimTime::millis(20), [&] { ++fired; });
  sim.run_until(SimTime::millis(10));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), SimTime::millis(10));
  sim.run_until(SimTime::millis(30));
  EXPECT_EQ(fired, 2);
  // Clock advances to the until-time even when the queue drains first.
  EXPECT_EQ(sim.now(), SimTime::millis(30));
}

TEST(Simulator, NegativeDelayClampsToNow) {
  Simulator sim;
  SimTime seen = SimTime::max();
  sim.schedule_at(SimTime::millis(5), [&] {
    sim.schedule(SimTime::zero() - SimTime::millis(1), [&] { seen = sim.now(); });
  });
  sim.run();
  EXPECT_EQ(seen, SimTime::millis(5));
}

TEST(Simulator, ScheduleAtInThePastRunsNow) {
  Simulator sim;
  SimTime seen = SimTime::max();
  sim.schedule_at(SimTime::millis(5), [&] {
    sim.schedule_at(SimTime::millis(1), [&] { seen = sim.now(); });
  });
  sim.run();
  EXPECT_EQ(seen, SimTime::millis(5));
}

TEST(Simulator, CancelPreventsDispatch) {
  Simulator sim;
  int fired = 0;
  const auto id = sim.schedule(SimTime::millis(1), [&] { ++fired; });
  sim.cancel(id);
  sim.run();
  EXPECT_EQ(fired, 0);
}

TEST(Simulator, CountsDispatchedEvents) {
  Simulator sim;
  for (int i = 0; i < 7; ++i) sim.schedule(SimTime::millis(i), [] {});
  EXPECT_EQ(sim.run(), 7u);
  EXPECT_EQ(sim.events_dispatched(), 7u);
}

TEST(Simulator, ResetClearsPendingAndClock) {
  Simulator sim;
  sim.schedule(SimTime::millis(1), [] {});
  sim.run_until(SimTime::millis(2));
  sim.schedule(SimTime::millis(5), [] {});
  sim.reset();
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_EQ(sim.now(), SimTime::zero());
}

TEST(Simulator, EventChainTerminates) {
  Simulator sim;
  int count = 0;
  std::function<void()> tick = [&] {
    if (++count < 100) sim.schedule(SimTime::micros(1), tick);
  };
  sim.schedule(SimTime::micros(1), tick);
  sim.run();
  EXPECT_EQ(count, 100);
  EXPECT_EQ(sim.now(), SimTime::micros(100));
}

// A throwing callback propagates out of run_until, but every event that
// ran, the throwing one included, still counts; the throwing callback is
// destroyed with its slot; and the same simulator keeps running.
TEST(Simulator, ThrowingEventKeepsCountsAndSimulatorUsable) {
  Simulator sim;
  int ran = 0;
  auto token = std::make_shared<int>(0);
  std::weak_ptr<int> watch = token;
  sim.schedule(SimTime::micros(1), [&ran] { ++ran; });
  sim.schedule(SimTime::micros(2), [&ran, held = std::move(token)] {
    ++ran;
    throw std::runtime_error{"event blew up"};
  });
  sim.schedule(SimTime::micros(3), [&ran] { ++ran; });

  EXPECT_THROW(sim.run_until(SimTime::micros(10)), std::runtime_error);
  EXPECT_EQ(ran, 2);
  EXPECT_EQ(sim.events_dispatched(), 2u);
  EXPECT_GT(sim.run_wall_ns(), 0u);
  EXPECT_TRUE(watch.expired());
  EXPECT_EQ(sim.now(), SimTime::micros(2));
  EXPECT_EQ(sim.pending_events(), 1u);

  sim.schedule(SimTime::micros(5), [&ran] { ++ran; });
  EXPECT_EQ(sim.run(), 2u);
  EXPECT_EQ(ran, 4);
  EXPECT_EQ(sim.events_dispatched(), 4u);
  EXPECT_EQ(sim.now(), SimTime::micros(7));
  EXPECT_EQ(sim.pending_events(), 0u);
}

// The wheel's sparse-horizon guard, independent of timing: with at most 8
// events pending and gaps beyond the 256 ns level-0 window, no bucket ever
// outgrows a small run, so each event is bucket-inserted at most once
// (never cascaded) on its way to dispatch.
TEST(Simulator, SparseTimerChainsBucketInsertEachEventAtMostOnce) {
  for (const int chains : {1, 8}) {
    Simulator sim;
    constexpr std::uint64_t kTicksPerChain = 5000;
    std::uint64_t step = 0;
    std::function<void(std::uint64_t)> tick = [&](std::uint64_t left) {
      // 300 ns .. 100 us, spread by a multiplicative hash of the step.
      const auto gap = static_cast<std::int64_t>(
          300 + (++step * 0x9e3779b97f4a7c15ull >> 40) % 99'700);
      if (left > 1) {
        sim.schedule(SimTime::nanos(gap), [&tick, left] { tick(left - 1); });
      }
    };
    for (int c = 0; c < chains; ++c) tick(kTicksPerChain + 1);
    sim.run();
    const auto stats = sim.scheduler_stats();
    const auto events = kTicksPerChain * static_cast<std::uint64_t>(chains);
    EXPECT_EQ(sim.events_dispatched(), events) << chains << " chains";
    EXPECT_EQ(stats.pushes, events) << chains << " chains";
    EXPECT_LE(stats.bucket_inserts, stats.pushes) << chains << " chains";
    EXPECT_GT(stats.refills, 0u) << chains << " chains";
  }
}

// A fused link hop reserves its tx-done's sequence without pushing an
// event, so the push counter must count the events pushed, not the
// sequences drawn: after the run it equals the events dispatched.
TEST(Simulator, PushCounterCountsEventsNotReservedSequences) {
  struct Sink : net::Node {
    using Node::Node;
    void receive(net::Packet) override { ++got; }
    int got = 0;
  };
  Simulator sim;
  Sink sink{&sim, 1, "sink"};
  net::Link link{&sim, "l", 1'000'000'000, SimTime::micros(1),
                 std::make_unique<net::Queue>()};
  link.set_peer(&sink);
  net::Packet p;
  p.payload_bytes = 1460;
  // Five idle hops, then a burst of four behind one busy wire.
  for (int i = 0; i < 5; ++i) {
    sim.schedule(SimTime::micros(100 * i), [&] { link.send(p); });
  }
  sim.schedule(SimTime::micros(600), [&] {
    for (int k = 0; k < 4; ++k) link.send(p);
  });
  sim.run();
  EXPECT_EQ(sink.got, 9);
  // 6 scheduled sends, 1 event per idle hop, 2*4-1 for the burst.
  EXPECT_EQ(sim.events_dispatched(), 6u + 5u + 7u);
  EXPECT_EQ(sim.scheduler_stats().pushes, sim.events_dispatched());
}

}  // namespace
}  // namespace trim::sim
