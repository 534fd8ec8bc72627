// The zero-allocation steady-state gate (the memory-architecture PR's
// acceptance test): once a scenario's flows are established and every
// pool/ring/queue has grown to its working set, dispatching events must
// not touch the global allocator at all. This binary links
// trim_alloc_hook, so every operator new/delete in the process is counted.
#include <gtest/gtest.h>

#include <cstdint>

#include "core/sender_factory.hpp"
#include "exp/experiment.hpp"
#include "mem/alloc_hooks.hpp"
#include "net/queue.hpp"
#include "topo/many_to_one.hpp"

using namespace trim;

namespace {

net::Packet data_packet(std::uint32_t payload) {
  net::Packet p;
  p.payload_bytes = payload;
  return p;
}

TEST(ZeroAlloc, WarmDropTailQueueCyclesWithoutAllocating) {
  ASSERT_TRUE(mem::alloc_hooks_active());
  net::Queue q{net::QueueConfig::droptail_packets(100)};
  // Warm: the ring grows on demand to peak occupancy, so fill it first and
  // the assertion isolates the steady cycle.
  for (int i = 0; i < 50; ++i) q.enqueue(data_packet(1460));
  net::Packet out;
  mem::reset_alloc_counts();
  mem::set_alloc_counting(true);
  for (int i = 0; i < 10'000; ++i) {
    q.enqueue(data_packet(1460));
    ASSERT_TRUE(q.dequeue_into(out));
  }
  mem::set_alloc_counting(false);
  const auto t = mem::alloc_totals();
  EXPECT_EQ(t.allocs, 0u);
  EXPECT_EQ(t.frees, 0u);
}

// The real gate: a fig08-flavored many-to-one world (persistent
// connections streaming long messages through a droptail bottleneck),
// measured over a steady window after warm-up. Loss recovery, RTO
// re-arming, ACK clocking, telemetry counters — all of it must run
// allocation-free once the structures are warm.
TEST(ZeroAlloc, SteadyStateScenarioWindowAllocatesNothing) {
  ASSERT_TRUE(mem::alloc_hooks_active());
  exp::World world;
  topo::ManyToOneConfig cfg;
  cfg.num_servers = 4;
  // Deep buffer: the steady window must exercise the common path, not
  // drop-recovery churn (loss handling is exercised by the suite at
  // large; the zero-alloc property targets the per-event fast path).
  cfg.switch_buffer_pkts = 2000;
  const auto topo = build_many_to_one(world.network, cfg);
  core::ProtocolOptions opts;
  std::vector<tcp::Flow> flows;
  for (int i = 0; i < cfg.num_servers; ++i) {
    flows.push_back(core::make_protocol_flow(world.network, *topo.servers[i],
                                             *topo.front_end, tcp::Protocol::kReno,
                                             opts));
    // One long message per flow: the window below sits strictly inside the
    // transfer, so no write()-side message bookkeeping runs during it.
    flows.back().sender->write(50'000'000);
  }

  // Warm-up: slow start finishes, queues/rings/event pools reach their
  // peak working set. The window must start past at least one full
  // congestion-avoidance sawtooth, or peak event counts (and so peak
  // wheel-bucket storage demand) are still being discovered.
  world.run_until(sim::SimTime::millis(500));
  const std::uint64_t warm_events = world.simulator.events_dispatched();

  mem::reset_alloc_counts();
  mem::set_alloc_counting(true);
  world.run_until(sim::SimTime::millis(1000));
  mem::set_alloc_counting(false);

  const std::uint64_t window_events =
      world.simulator.events_dispatched() - warm_events;
  ASSERT_GT(window_events, 100'000u) << "window unexpectedly idle";
  for (auto& f : flows) {
    ASSERT_FALSE(f.sender->idle()) << "transfer finished inside the window";
  }

  const auto t = mem::alloc_totals();
  EXPECT_EQ(t.allocs, 0u)
      << "steady-state window performed " << t.allocs << " allocations ("
      << t.bytes << " bytes) across " << window_events << " events";
  EXPECT_EQ(t.frees, 0u);
}

// Same property for the senders' own accounting when messages DO complete:
// a persistent connection cycling request/response messages reuses its
// message-record ring and FlowStats pools after the first few cycles.
TEST(ZeroAlloc, PersistentMessageCyclingSettlesToZeroAllocs) {
  ASSERT_TRUE(mem::alloc_hooks_active());
  exp::World world;
  topo::ManyToOneConfig cfg;
  cfg.num_servers = 1;
  const auto topo = build_many_to_one(world.network, cfg);
  core::ProtocolOptions opts;
  auto flow = core::make_protocol_flow(world.network, *topo.servers[0],
                                       *topo.front_end, tcp::Protocol::kReno, opts);
  // Response->response loop: each completion immediately writes the next.
  flow.sender->add_message_complete_callback(
      [&flow](std::uint64_t, sim::SimTime) { flow.sender->write(100'000); });
  flow.sender->write(100'000);

  world.run_until(sim::SimTime::millis(200));  // many full cycles

  mem::reset_alloc_counts();
  mem::set_alloc_counting(true);
  world.run_until(sim::SimTime::millis(600));
  mem::set_alloc_counting(false);

  const auto t = mem::alloc_totals();
  // FlowStats accumulates one completion record per message, so the cycle
  // is not perfectly silent — but it must be bounded by the message count,
  // nowhere near the per-event or per-packet rate.
  const auto messages =
      flow.sender->stats().completed_message_times().size();
  EXPECT_GT(messages, 20u);
  EXPECT_LT(t.allocs, messages * 4) << "per-message allocation churn";
}

}  // namespace
