// Unit tests for the sharded parallel engine: serial passthrough, barrier
// windows, mailbox flush order, clock clamping, lookahead validation, and
// exception containment. Cross-layer equivalence (a real topology split
// across shards vs. the serial engine) lives in exp/shard_equivalence_test.
#include "sim/sharded_engine.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <vector>

#include "sim/config_error.hpp"
#include "sim/time.hpp"

namespace trim::sim {
namespace {

TEST(ShardedEngine, SingleShardRunsSerially) {
  ShardedEngine engine{1};
  std::vector<int> order;
  engine.control().schedule_at(SimTime::micros(20), [&] { order.push_back(2); });
  engine.control().schedule_at(SimTime::micros(10), [&] { order.push_back(1); });

  EXPECT_FALSE(engine.sharded());
  EXPECT_EQ(engine.run(), 2u);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(engine.windows_run(), 0u);
  EXPECT_EQ(engine.events_dispatched(), 2u);
  EXPECT_EQ(engine.pending_events(), 0u);
}

TEST(ShardedEngine, UnpartitionedMultiShardTakesSerialPath) {
  ShardedEngine engine{4};
  int fired = 0;
  for (int i = 0; i < 4; ++i) {
    engine.shard(i).schedule_at(SimTime::micros(5 + i), [&] { ++fired; });
  }

  // No cut links registered: draining shard-by-shard in index order is
  // exact, so no barrier windows run.
  EXPECT_FALSE(engine.sharded());
  EXPECT_EQ(engine.run_until(SimTime::millis(1)), 4u);
  EXPECT_EQ(fired, 4);
  EXPECT_EQ(engine.windows_run(), 0u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(engine.shard(i).now(), SimTime::millis(1)) << "shard " << i;
  }
}

TEST(ShardedEngine, CrossShardPingPongObeysDelays) {
  ShardedEngine engine{2};
  engine.note_cut_link(SimTime::micros(10));
  ASSERT_TRUE(engine.sharded());
  ASSERT_EQ(engine.lookahead(), SimTime::micros(10));

  // A hop bounces between the shards through the mailboxes: each leg adds
  // the cut-link delay, exactly like a partitioned Link's delivery leg.
  struct Hop {
    ShardedEngine* engine;
    std::vector<SimTime>* arrivals;
    int remaining;

    void fire(int on_shard) const {
      arrivals->push_back(engine->shard(on_shard).now());
      if (remaining == 0) return;
      Hop next{engine, arrivals, remaining - 1};
      const int to = 1 - on_shard;
      engine->post(on_shard, to,
                   engine->shard(on_shard).now() + SimTime::micros(10),
                   [next, to] { next.fire(to); });
    }
  };
  std::vector<SimTime> arrivals;
  Hop first{&engine, &arrivals, 5};
  engine.shard(0).schedule_at(SimTime::micros(3), [first] { first.fire(0); });

  engine.run();

  ASSERT_EQ(arrivals.size(), 6u);
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    EXPECT_EQ(arrivals[i], SimTime::micros(3) + SimTime::micros(10 * static_cast<int>(i)));
  }
  EXPECT_GE(engine.windows_run(), 5u);
}

TEST(ShardedEngine, MailboxFlushOrderIsSourceMajorFifo) {
  ShardedEngine engine{3};
  engine.note_cut_link(SimTime::micros(50));

  // Shards 1 and 2 each post two entries to shard 0, all due at the same
  // instant. The flush contract is (destination, source, FIFO): shard 1's
  // entries run before shard 2's, each pair in posting order.
  std::vector<int> order;
  const SimTime due = SimTime::micros(100);
  auto poster = [&engine, &order, due](int src, int tag) {
    engine.post(src, 0, due, [&order, tag] { order.push_back(tag); });
    engine.post(src, 0, due, [&order, tag] { order.push_back(tag + 1); });
  };
  engine.shard(2).schedule_at(SimTime::micros(1), [&] { poster(2, 30); });
  engine.shard(1).schedule_at(SimTime::micros(1), [&] { poster(1, 10); });

  engine.run();
  EXPECT_EQ(order, (std::vector<int>{10, 11, 30, 31}));
}

TEST(ShardedEngine, RunUntilClampsEveryShardClock) {
  ShardedEngine engine{2};
  engine.note_cut_link(SimTime::micros(10));
  int fired = 0;
  engine.shard(0).schedule_at(SimTime::micros(40), [&] { ++fired; });
  engine.shard(1).schedule_at(SimTime::millis(5), [&] { ++fired; });

  engine.run_until(SimTime::millis(1));

  EXPECT_EQ(fired, 1);  // the 5 ms event is past the horizon
  EXPECT_EQ(engine.shard(0).now(), SimTime::millis(1));
  EXPECT_EQ(engine.shard(1).now(), SimTime::millis(1));
  EXPECT_EQ(engine.pending_events(), 1u);

  // Resuming picks the remaining event up (run_until is inclusive).
  engine.run_until(SimTime::millis(5));
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(engine.pending_events(), 0u);
}

TEST(ShardedEngine, WindowedRunIsDeterministic) {
  auto run_once = [] {
    ShardedEngine engine{4};
    engine.note_cut_link(SimTime::micros(20));
    // One arrival log per destination shard: each is written only by that
    // shard's worker thread, so the logs stay race-free while the mesh
    // below runs all four shards concurrently.
    std::vector<std::vector<int>> arrived(4);
    // A deterministic little mesh: every shard posts to its neighbor on a
    // timer, all riding the same lookahead.
    for (int s = 0; s < 4; ++s) {
      for (int k = 1; k <= 8; ++k) {
        engine.shard(s).schedule_at(SimTime::micros(3 * k), [&engine, &arrived, s, k] {
          const int to = (s + 1) % 4;
          engine.post(s, to,
                      engine.shard(s).now() + SimTime::micros(20),
                      [&arrived, to, s, k] { arrived[to].push_back(s * 100 + k); });
        });
      }
    }
    engine.run();
    std::vector<int> order;
    for (const auto& log : arrived) order.insert(order.end(), log.begin(), log.end());
    return order;
  };
  const auto a = run_once();
  const auto b = run_once();
  ASSERT_EQ(a.size(), 32u);
  EXPECT_EQ(a, b);
}

TEST(ShardedEngine, ZeroDelayCutLinkRejected) {
  ShardedEngine engine{2};
  EXPECT_THROW(engine.note_cut_link(SimTime::zero()), ConfigError);
}

TEST(ShardedEngine, BadShardCountRejected) {
  EXPECT_THROW(ShardedEngine{0}, ConfigError);
  EXPECT_THROW(ShardedEngine{-3}, ConfigError);
}

TEST(ShardedEngine, WorkerExceptionPropagates) {
  ShardedEngine engine{2};
  engine.note_cut_link(SimTime::micros(10));
  std::atomic<int> survivors{0};
  engine.shard(0).schedule_at(SimTime::micros(5), [&] { ++survivors; });
  engine.shard(1).schedule_at(SimTime::micros(5), [] {
    throw std::runtime_error{"shard 1 blew up"};
  });

  // The throw must propagate to the caller without deadlocking the
  // barrier. Whether shard 0 got its event in first depends on which
  // worker won the race against the fail-fast guard, so the survivor
  // count is 0 or 1 — the hard guarantee is termination + propagation.
  EXPECT_THROW(engine.run_until(SimTime::millis(1)), std::runtime_error);
  EXPECT_LE(survivors.load(), 1);
}

TEST(ShardedEngine, ShardsFromEnvIsClamped) {
  const int n = ShardedEngine::shards_from_env();
  EXPECT_GE(n, 1);
  EXPECT_LE(n, 256);
}

// ---- lookahead matrix and eager delivery ----

TEST(ShardedEngine, BadCutLinkPairsRejected) {
  ShardedEngine engine{2};
  EXPECT_THROW(engine.note_cut_link(0, 1, SimTime::zero()), ConfigError);
  EXPECT_THROW(engine.note_cut_link(0, 0, SimTime::micros(10)), ConfigError);
  EXPECT_THROW(engine.note_cut_link(0, 2, SimTime::micros(10)), ConfigError);
  EXPECT_THROW(engine.note_cut_link(-1, 1, SimTime::micros(10)), ConfigError);
}

TEST(ShardedEngine, LookaheadMatrixClosesOverRelays) {
  ShardedEngine engine{3};
  engine.note_cut_link(0, 1, SimTime::micros(10));
  engine.note_cut_link(1, 0, SimTime::micros(10));
  engine.note_cut_link(1, 2, SimTime::micros(15));

  // Direct cuts.
  EXPECT_EQ(engine.lookahead_between(0, 1), SimTime::micros(10));
  EXPECT_EQ(engine.lookahead_between(1, 0), SimTime::micros(10));
  EXPECT_EQ(engine.lookahead_between(1, 2), SimTime::micros(15));
  // Multi-hop closure: 0 reaches 2 only through 1.
  EXPECT_EQ(engine.lookahead_between(0, 2), SimTime::micros(25));
  // Nothing flows out of shard 2, so no shard ever waits on it.
  EXPECT_EQ(engine.lookahead_between(2, 0), SimTime::max());
  EXPECT_EQ(engine.lookahead_between(2, 1), SimTime::max());
  // The diagonal is the min *cycle* through other shards (not zero): it
  // bounds a shard's own echoes relayed while the neighbors sit idle.
  EXPECT_EQ(engine.lookahead_between(0, 0), SimTime::micros(20));
  EXPECT_EQ(engine.lookahead_between(1, 1), SimTime::micros(20));
  EXPECT_EQ(engine.lookahead_between(2, 2), SimTime::max());
  // lookahead() stays the minimum over all cut delays.
  EXPECT_EQ(engine.lookahead(), SimTime::micros(10));
}

TEST(ShardedEngine, MatrixRelayThroughIdleShardPreservesCausality) {
  // The case that makes the closure load-bearing: shard 0's pending event
  // will reach shard 2 only via shard 1, which is idle at planning time.
  // Without the closed L[0][2] bound shard 2 would run past the relayed
  // arrival and dispatch it behind its own clock.
  ShardedEngine engine{3};
  engine.note_cut_link(0, 1, SimTime::micros(10));
  engine.note_cut_link(1, 0, SimTime::micros(10));
  engine.note_cut_link(1, 2, SimTime::micros(15));

  std::vector<SimTime> shard2_log;  // written only by shard 2's worker
  engine.shard(2).schedule_at(SimTime::micros(5),
                              [&] { shard2_log.push_back(engine.shard(2).now()); });
  engine.shard(2).schedule_at(SimTime::micros(30),
                              [&] { shard2_log.push_back(engine.shard(2).now()); });
  engine.shard(0).schedule_at(SimTime::micros(1), [&engine, &shard2_log] {
    engine.post(0, 1, engine.shard(0).now() + SimTime::micros(10),
                [&engine, &shard2_log] {
                  engine.post(1, 2, engine.shard(1).now() + SimTime::micros(15),
                              [&engine, &shard2_log] {
                                shard2_log.push_back(engine.shard(2).now());
                              });
                });
  });

  engine.run();

  // 5 us local, 26 us relayed arrival (1 + 10 + 15), 30 us local — in
  // that order, each dispatched exactly at its due time.
  ASSERT_EQ(shard2_log.size(), 3u);
  EXPECT_EQ(shard2_log[0], SimTime::micros(5));
  EXPECT_EQ(shard2_log[1], SimTime::micros(26));
  EXPECT_EQ(shard2_log[2], SimTime::micros(30));
}

TEST(ShardedEngine, IdleShardSkipsWindowsAndNeedsFewerOfThem) {
  // Shard 0 streams local events while shard 1 never has work. The
  // lookahead matrix sees no path back into shard 0 (one-directional cut),
  // lets it run to the horizon in a single window, and fast-paths shard 1
  // through it — where pacing the whole fleet at the 10 us cut delay
  // would take 20 windows.
  ShardedEngine engine{2};
  engine.note_cut_link(0, 1, SimTime::micros(10));
  int fired = 0;
  for (int k = 1; k <= 10; ++k) {
    engine.shard(0).schedule_at(SimTime::micros(10 * k), [&fired] { ++fired; });
  }
  engine.run_until(SimTime::micros(200));

  EXPECT_EQ(fired, 10);
  EXPECT_EQ(engine.windows_run(), 1u);
  EXPECT_EQ(engine.shard_stats(1).windows_skipped, 1u);
  EXPECT_EQ(engine.shard_stats(1).window_events, 0u);
  // Clock clamp semantics hold for the skipped shard too.
  EXPECT_EQ(engine.shard(1).now(), SimTime::micros(200));
}

TEST(ShardedEngine, MailStraddlingRunUntilCallsArrivesOnTime) {
  // A post made in the last window of one run_until call is due after
  // that call's horizon. The next call must drain it in its first window
  // — before shard 1 dispatches its own later event — not one window
  // late with a clamped timestamp.
  ShardedEngine engine{2};
  engine.note_cut_link(0, 1, SimTime::micros(10));
  engine.note_cut_link(1, 0, SimTime::micros(10));
  std::vector<SimTime> shard1_log;  // written only by shard 1's worker
  engine.shard(0).schedule_at(SimTime::micros(5), [&engine, &shard1_log] {
    engine.post(0, 1, engine.shard(0).now() + SimTime::micros(10),
                [&engine, &shard1_log] {
                  shard1_log.push_back(engine.shard(1).now());
                });
  });
  engine.shard(1).schedule_at(SimTime::micros(20), [&engine, &shard1_log] {
    shard1_log.push_back(engine.shard(1).now());
  });

  engine.run_until(SimTime::micros(10));
  EXPECT_TRUE(shard1_log.empty());
  engine.run_until(SimTime::micros(30));

  ASSERT_EQ(shard1_log.size(), 2u);
  EXPECT_EQ(shard1_log[0], SimTime::micros(15));
  EXPECT_EQ(shard1_log[1], SimTime::micros(20));
}

TEST(ShardedEngine, EagerInboxStressAllPairs) {
  // TSan smoke for the eager-delivery inbox: every shard posts to every
  // other shard from inside its window, across many windows, so source
  // pushes and destination drains continuously hit the double-buffered
  // mailboxes from different threads.
  ShardedEngine engine{4};
  for (int s = 0; s < 4; ++s) {
    for (int d = 0; d < 4; ++d) {
      if (s != d) engine.note_cut_link(s, d, SimTime::micros(10));
    }
  }
  std::vector<std::uint64_t> arrivals(4, 0);  // written by the owner worker
  for (int s = 0; s < 4; ++s) {
    for (int k = 1; k <= 50; ++k) {
      engine.shard(s).schedule_at(SimTime::micros(5 * k), [&engine, &arrivals, s] {
        for (int d = 0; d < 4; ++d) {
          if (d == s) continue;
          engine.post(s, d, engine.shard(s).now() + SimTime::micros(10),
                      [&arrivals, d] { ++arrivals[d]; });
        }
      });
    }
  }
  engine.run();
  std::uint64_t total = 0;
  for (const auto a : arrivals) total += a;
  EXPECT_EQ(total, 4u * 50u * 3u);
  EXPECT_EQ(engine.posts_flushed(), 4u * 50u * 3u);
  EXPECT_GT(engine.windows_run(), 0u);
  EXPECT_EQ(engine.pending_events(), 0u);
}

}  // namespace
}  // namespace trim::sim
