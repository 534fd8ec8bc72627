// Property test: the calendar-queue wheel the simulator runs on dispatches
// exactly like the reference 4-ary heap (reference_heap.hpp). Each case
// drives the same deterministic workload through both side by side and
// asserts the dispatch sequences — (time, which-event) pairs, not just
// times — match exactly: same-time ties, keyed pushes under reserved
// sequences, cancellations (pending, fired, and recycled-slot stale),
// mid-callback scheduling, run_until boundaries, and a fig. 8-scale
// pending set all behave the same.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/calendar_queue.hpp"
#include "sim/dispatch.hpp"
#include "sim/reference_heap.hpp"
#include "sim/simulator.hpp"

namespace trim::sim {
namespace {

// Deterministic PCG-style generator (same LCG the engine benches use).
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

// One scripted operation, applied to both queues in lockstep.
struct Op {
  enum Kind { kPush, kCancel, kPop } kind;
  std::int64_t at = 0;    // kPush: absolute nanoseconds
  std::size_t target = 0;  // kCancel: index into the ids pushed so far
};

// Generate a schedule/cancel/pop script. Times are drawn from a small
// window so same-time collisions are common (the tie-break is the point),
// and cancel targets deliberately include already-fired and already-
// cancelled ids (stale handles must be no-ops on both queues).
std::vector<Op> make_script(std::uint64_t seed, int rounds) {
  Lcg rnd{seed};
  std::vector<Op> ops;
  std::size_t pushed = 0;
  for (int i = 0; i < rounds; ++i) {
    const auto roll = rnd.next() % 10;
    if (roll < 5 || pushed == 0) {
      // Mix of dense near-term times (collisions) and far-out times
      // (higher wheel levels, cascades).
      const bool far = rnd.next() % 8 == 0;
      const auto at = far ? static_cast<std::int64_t>(rnd.next() % 3'000'000'000)
                          : static_cast<std::int64_t>(rnd.next() % 4'096);
      ops.push_back({Op::kPush, at, 0});
      ++pushed;
    } else if (roll < 8) {
      ops.push_back({Op::kCancel, 0, rnd.next() % pushed});
    } else {
      ops.push_back({Op::kPop, 0, 0});
    }
  }
  return ops;
}

// Replay `ops` against a fresh `Queue`; events are identified by their
// push ordinal so the trace captures *which* event fired, not just when.
// Returns the dispatch trace plus the surviving (drained) tail.
template <typename Queue>
std::vector<std::pair<std::int64_t, std::size_t>> replay(const std::vector<Op>& ops) {
  Queue q;
  std::vector<decltype(q.push(SimTime{}, InlineCallback{}))> ids;
  std::vector<std::pair<std::int64_t, std::size_t>> trace;
  std::size_t next_ordinal = 0;
  std::size_t fired = 0;  // ordinal of the event that just ran
  auto dispatch = [&] { trace.emplace_back(dispatch_next(q).ns(), fired); };
  for (const Op& op : ops) {
    switch (op.kind) {
      case Op::kPush: {
        const std::size_t ordinal = next_ordinal++;
        ids.push_back(q.push(SimTime::nanos(op.at),
                             [&fired, ordinal] { fired = ordinal; }));
        break;
      }
      case Op::kCancel:
        q.cancel(ids[op.target]);  // possibly stale: must be a no-op
        break;
      case Op::kPop:
        if (!q.empty()) dispatch();
        break;
    }
  }
  while (!q.empty()) dispatch();
  EXPECT_EQ(q.size(), 0u);
  return trace;
}

TEST(SchedulerEquivalence, RandomScriptsDispatchIdentically) {
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    const auto ops = make_script(seed * 0x9e3779b97f4a7c15ull, 4000);
    const auto heap_trace = replay<ReferenceHeap>(ops);
    const auto wheel_trace = replay<CalendarQueue>(ops);
    ASSERT_EQ(heap_trace, wheel_trace) << "seed " << seed;
  }
}

// Same-time ties under interleaved cancellation: all events collapse onto
// a handful of timestamps, so insertion-sequence order is the only thing
// distinguishing a correct trace from a wrong one.
TEST(SchedulerEquivalence, DenseTieStormDispatchesIdentically) {
  Lcg rnd{424242};
  std::vector<Op> ops;
  std::size_t pushed = 0;
  for (int i = 0; i < 3000; ++i) {
    const auto roll = rnd.next() % 4;
    if (roll != 0 || pushed == 0) {
      ops.push_back({Op::kPush, static_cast<std::int64_t>(rnd.next() % 4), 0});
      ++pushed;
    } else {
      ops.push_back({Op::kCancel, 0, rnd.next() % pushed});
    }
  }
  EXPECT_EQ(replay<ReferenceHeap>(ops), replay<CalendarQueue>(ops));
}

// The fig. 8 event mix at paper scale: `flows` senders each keep a window
// of 20 in-flight packet events plus one RTO timer, so ~88k events stay
// pending at 4200 flows — a pending set no other test reaches. Every
// dispatched event is replaced by one an RTT out (ACK clocking) and
// re-arms a pseudo-random flow's RTO (cancel + push, the per-ACK timer
// pattern; the cancelled id may already have fired). Returns an FNV
// checksum over the (time, push ordinal) dispatch sequence.
template <typename Queue>
std::uint64_t fig08_mix_checksum(int flows, std::uint64_t pops) {
  constexpr int kWindow = 20;
  Queue q;
  Lcg rnd{0x2545F4914F6CDD1Dull ^ static_cast<std::uint64_t>(flows)};
  std::uint64_t fired = 0;  // ordinal of the event that just ran
  std::uint64_t ordinal = 0;
  auto push = [&](std::int64_t at) {
    return q.push(SimTime::nanos(at), [&fired, o = ordinal++] { fired = o; });
  };
  std::vector<decltype(push(0))> rto(static_cast<std::size_t>(flows));
  for (auto& timer : rto) {
    for (int w = 0; w < kWindow; ++w) {
      push(static_cast<std::int64_t>(1000 + rnd.next() % 100000));
    }
    timer = push(static_cast<std::int64_t>(10'000'000 + rnd.next() % 1'000'000));
  }
  std::uint64_t checksum = 1469598103934665603ull;  // FNV offset basis
  for (std::uint64_t done = 0; done < pops; ++done) {
    const std::int64_t now = dispatch_next(q).ns();
    checksum = (checksum ^ static_cast<std::uint64_t>(now)) * 1099511628211ull;
    checksum = (checksum ^ fired) * 1099511628211ull;
    const std::uint64_t r = rnd.next();
    push(now + 100'000 + static_cast<std::int64_t>(r & 0xffff));
    auto& timer = rto[static_cast<std::size_t>(r >> 16) % rto.size()];
    q.cancel(timer);
    timer = push(now + 10'000'000 + static_cast<std::int64_t>(r >> 47));
  }
  return checksum;
}

// Keyed pushes the way fused link hops make them, against plain pushes
// stamped like Simulator::schedule (pushed now, fresh sequence). A
// reservation takes a sequence now for a logical push time a little ahead
// (a transmission end); later in the script a keyed event is pushed under
// it, at or after that push time. Delays come from a tiny grid, so equal
// times and equal push times — where only the lag and the sequence decide —
// are common; an occasional long delay sends events up the wheel levels.
template <typename Queue>
std::vector<std::pair<std::int64_t, std::size_t>> replay_keyed(std::uint64_t seed,
                                                               int rounds) {
  struct Reservation {
    std::uint64_t seq;
    std::int64_t pushed_at;
  };
  Queue q;
  Lcg rnd{seed};
  SimTime now;
  std::size_t next_ordinal = 0;
  std::size_t fired = 0;
  std::vector<Reservation> reserved;
  std::vector<std::pair<std::int64_t, std::size_t>> trace;
  auto push = [&](const EventKey& key) {
    q.push(key, [&fired, o = next_ordinal++] { fired = o; });
  };
  auto delay = [&] {
    return static_cast<std::int64_t>(rnd.next() % 16 == 0 ? rnd.next() % 100'000
                                                          : rnd.next() % 8);
  };
  auto dispatch = [&] {
    if (dispatch_until(q, SimTime::max(), now)) trace.emplace_back(now.ns(), fired);
  };
  for (int i = 0; i < rounds; ++i) {
    const auto roll = rnd.next() % 10;
    if (roll < 3) {
      push(EventKey::make(now + SimTime::nanos(delay()), now, q.reserve_seq()));
    } else if (roll < 5) {
      reserved.push_back({q.reserve_seq(), now.ns() + delay()});
    } else if (roll < 7 && !reserved.empty()) {
      const std::size_t pick = rnd.next() % reserved.size();
      const Reservation r = reserved[pick];
      reserved[pick] = reserved.back();
      reserved.pop_back();
      const std::int64_t at = r.pushed_at + static_cast<std::int64_t>(rnd.next() % 4);
      if (at >= now.ns()) {
        push(EventKey::make(SimTime::nanos(at), SimTime::nanos(r.pushed_at), r.seq));
      }
    } else {
      dispatch();
    }
  }
  while (!q.empty()) dispatch();
  return trace;
}

TEST(SchedulerEquivalence, KeyedPushesTieWithPlainPushesIdentically) {
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    const std::uint64_t s = seed * 0x9e3779b97f4a7c15ull;
    const auto heap = replay_keyed<ReferenceHeap>(s, 6000);
    const auto wheel = replay_keyed<CalendarQueue>(s, 6000);
    ASSERT_GT(heap.size(), 1000u);
    ASSERT_EQ(heap, wheel) << "seed " << seed;
  }
}

TEST(SchedulerEquivalence, Fig08EventMixAtPaperScaleDispatchesIdentically) {
  constexpr int kFlows = 4200;
  constexpr std::uint64_t kPops = 200'000;
  EXPECT_EQ(fig08_mix_checksum<ReferenceHeap>(kFlows, kPops),
            fig08_mix_checksum<CalendarQueue>(kFlows, kPops));
}

// A scenario harness for the dispatch-path cases below. Events are named
// by push ordinal; each records (time, ordinal) when it fires and then
// runs an optional action, which may push, cancel and query the queue.
template <typename Queue>
struct Harness {
  using Id = decltype(std::declval<Queue&>().push(SimTime{}, [] {}));
  using Trace = std::vector<std::pair<std::int64_t, std::size_t>>;

  template <typename Action>
  Id push(std::int64_t at, Action action) {
    const std::size_t ordinal = ids.size();
    ids.emplace_back();
    ids[ordinal] = q.push(SimTime::nanos(at), [this, ordinal, action]() mutable {
      trace.emplace_back(now.ns(), ordinal);
      action();
    });
    return ids[ordinal];
  }
  Id push(std::int64_t at) {
    return push(at, [] {});
  }
  // A push under an explicit key (a plain push above is keyed (at, zero
  // lag, fresh sequence)).
  template <typename Action>
  Id push_key(const EventKey& key, Action action) {
    const std::size_t ordinal = ids.size();
    ids.emplace_back();
    ids[ordinal] = q.push(key, [this, ordinal, action]() mutable {
      trace.emplace_back(now.ns(), ordinal);
      action();
    });
    return ids[ordinal];
  }
  Id push_key(const EventKey& key) {
    return push_key(key, [] {});
  }
  void drain() {
    while (dispatch_until(q, SimTime::max(), now)) {
    }
  }

  Queue q;
  SimTime now;
  std::vector<Id> ids;  // by ordinal
  Trace trace;
};

// Sparse horizons, the shape datacenter-RTT runs leave the wheel in: a few
// self-rearming chains with gaps of 300 ns to ~100 us, so buckets at
// levels 1-3 hold only a handful of events and are served as sorted runs.
// Fired events also push one-shots a few hundred ns out or at `now` (they
// land inside the run being served, before the wheel position) and cancel
// random earlier events (pending in a bucket, tombstoned inside a served
// run, or already fired); a cancelled chain is restarted.
template <typename Queue>
class SparseHorizon {
 public:
  SparseHorizon(std::uint64_t seed, int chains) : rnd_{seed} {
    for (int c = 0; c < chains; ++c) chain();
  }

  typename Harness<Queue>::Trace run(std::size_t dispatches) {
    while (h_.trace.size() < dispatches &&
           dispatch_until(h_.q, SimTime::max(), h_.now)) {
    }
    return h_.trace;
  }

 private:
  std::int64_t gap() {
    const std::int64_t span = std::int64_t{300} << (rnd_.next() % 9);
    return 300 + static_cast<std::int64_t>(rnd_.next()) % span;
  }

  void chain() {
    is_chain_.push_back(true);
    h_.push(h_.now.ns() + gap(), [this] { step(); });
  }
  void one_shot(std::int64_t at) {
    is_chain_.push_back(false);
    h_.push(at);
  }

  void step() {
    const std::uint64_t r = rnd_.next();
    chain();
    if (r % 4 == 0) one_shot(h_.now.ns() + static_cast<std::int64_t>(r >> 8) % 300);
    if (r % 8 == 1) one_shot(h_.now.ns());
    if (r % 4 == 2) {
      const std::size_t victim = (r >> 16) % h_.ids.size();
      if (h_.q.is_pending(h_.ids[victim])) {
        h_.q.cancel(h_.ids[victim]);
        if (is_chain_[victim]) chain();
      }
    }
  }

  Harness<Queue> h_;
  Lcg rnd_;
  std::vector<bool> is_chain_;  // by ordinal
};

TEST(SchedulerEquivalence, SparseHorizonScriptsDispatchIdentically) {
  for (const int chains : {1, 3, 8}) {
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
      const std::uint64_t s = seed * 0x9e3779b97f4a7c15ull + chains;
      const auto heap = SparseHorizon<ReferenceHeap>{s, chains}.run(20'000);
      const auto wheel = SparseHorizon<CalendarQueue>{s, chains}.run(20'000);
      ASSERT_EQ(heap.size(), 20'000u);
      ASSERT_EQ(heap, wheel) << chains << " chains, seed " << seed;
    }
  }
}

// The four events below share one level-2 bucket (65'536..131'071 ns), so
// the wheel serves them as one sorted run and jumps to 120'000. The first
// one pushes events that land inside that run, at its current time and
// past its end.
template <typename Queue>
typename Harness<Queue>::Trace pushes_inside_served_run() {
  Harness<Queue> h;
  h.push(70'000, [&h] {
    h.push(100'000);
    h.push(80'000);
    h.push(70'000);
    h.push(125'000);
    h.push(120'000);
    h.push(90'000);
  });
  h.push(120'000);
  h.push(90'000);
  h.push(75'000);
  h.drain();
  return h.trace;
}

TEST(SchedulerEquivalence, PushesInsideServedRunKeepDispatchOrder) {
  using Trace = Harness<CalendarQueue>::Trace;
  const Trace want{{70'000, 0}, {70'000, 6}, {75'000, 3}, {80'000, 5},
                   {90'000, 2}, {90'000, 9}, {100'000, 4}, {120'000, 1},
                   {120'000, 8}, {125'000, 7}};
  EXPECT_EQ(pushes_inside_served_run<ReferenceHeap>(), want);
  EXPECT_EQ(pushes_inside_served_run<CalendarQueue>(), want);
}

// Cancels of served-run entries leave tombstones that dispatch must skip:
// the run's next entry, its last entry (the wheel position), and an event
// pushed into the run a moment earlier.
template <typename Queue>
typename Harness<Queue>::Trace cancels_inside_served_run() {
  Harness<Queue> h;
  h.push(70'000, [&h] {
    const auto inside = h.push(85'000);
    h.q.cancel(h.ids[1]);  // 75'000: the run's next entry
    h.q.cancel(h.ids[3]);  // 120'000: the run's last entry
    h.q.cancel(inside);
    h.push(110'000);
    EXPECT_EQ(h.q.size(), 2u);
  });
  h.push(75'000);
  h.push(90'000);
  h.push(120'000);
  h.drain();
  EXPECT_TRUE(h.q.empty());
  return h.trace;
}

// Keyed events pushed late into a served run, under sequences reserved
// before the run's own events were pushed. The run is the four events
// pushed at time 0 into one level-2 bucket; while its first event runs at
// 70'000, keyed and plain events land on the run's times. At equal times
// the earlier push time goes first, and at equal push times the lower
// (reserved) sequence.
template <typename Queue>
typename Harness<Queue>::Trace reserved_keys_inside_served_run() {
  Harness<Queue> h;
  auto t = [](std::int64_t ns) { return SimTime::nanos(ns); };
  const std::uint64_t early_a = h.q.reserve_seq();
  const std::uint64_t early_b = h.q.reserve_seq();
  h.push_key(EventKey::make(t(70'000), t(0), h.q.reserve_seq()), [&h, t, early_a,
                                                                  early_b] {
    const std::uint64_t mid = h.q.reserve_seq();
    h.push_key(EventKey::make(t(90'000), t(0), early_a));    // 4: before 2
    h.push_key(EventKey::make(t(90'000), t(60'000), mid));   // 5: after 2
    h.push_key(EventKey::make(t(90'000), t(70'000), h.q.reserve_seq()));  // 6
    h.push_key(EventKey::make(t(75'000), t(72'000), h.q.reserve_seq()));  // 7
    h.push_key(EventKey::make(t(120'000), t(0), early_b));   // 8: before 3
  });
  h.push_key(EventKey::make(t(75'000), t(0), h.q.reserve_seq()));
  h.push_key(EventKey::make(t(90'000), t(0), h.q.reserve_seq()));
  h.push_key(EventKey::make(t(120'000), t(0), h.q.reserve_seq()));
  h.drain();
  return h.trace;
}

TEST(SchedulerEquivalence, ReservedKeysPushedLateInsideServedRunKeepKeyOrder) {
  using Trace = Harness<CalendarQueue>::Trace;
  const Trace want{{70'000, 0}, {75'000, 1}, {75'000, 7}, {90'000, 4},
                   {90'000, 2}, {90'000, 5}, {90'000, 6}, {120'000, 8},
                   {120'000, 3}};
  EXPECT_EQ(reserved_keys_inside_served_run<ReferenceHeap>(), want);
  EXPECT_EQ(reserved_keys_inside_served_run<CalendarQueue>(), want);
}

// Lags at and above the 32-bit saturation point (2^32-1 ns, ~4.3 s). All
// six events fire at 20 s. Lags that saturate compare equal, so those
// events fall back to sequence order — which is their push order whenever
// sequences were drawn in push order (keys 0-2). Key 5 was pushed earliest
// but under the latest sequence; saturated, it goes after keys 0-2 and
// still before every unsaturated lag.
template <typename Queue>
typename Harness<Queue>::Trace lag_saturation() {
  constexpr std::int64_t kAt = 20'000'000'000;
  constexpr std::int64_t kMax = EventKey::kMaxLag;
  Harness<Queue> h;
  std::vector<EventKey> keys;
  for (const std::int64_t lag : {std::int64_t{1} << 33, kMax + 1, kMax, kMax - 1,
                                  std::int64_t{5}, std::int64_t{1} << 34}) {
    keys.push_back(EventKey::make(SimTime::nanos(kAt), SimTime::nanos(kAt - lag),
                                  h.q.reserve_seq()));
  }
  EXPECT_EQ(keys[0].lag, EventKey::kMaxLag);
  EXPECT_EQ(keys[1].lag, EventKey::kMaxLag);
  EXPECT_EQ(keys[2].lag, EventKey::kMaxLag);
  EXPECT_EQ(keys[3].lag, EventKey::kMaxLag - 1);
  // Pushed in an order unlike the dispatch order: ordinals 0-5 are keys
  // 4, 3, 5, 0, 2, 1.
  for (const std::size_t i : {4, 3, 5, 0, 2, 1}) h.push_key(keys[i]);
  h.drain();
  return h.trace;
}

TEST(SchedulerEquivalence, SaturatedLagsFallBackToSequenceOrder) {
  using Trace = Harness<CalendarQueue>::Trace;
  constexpr std::int64_t kAt = 20'000'000'000;
  // Keys 0, 1, 2, 5, 3, 4.
  const Trace want{{kAt, 3}, {kAt, 5}, {kAt, 4}, {kAt, 2}, {kAt, 1}, {kAt, 0}};
  EXPECT_EQ(lag_saturation<ReferenceHeap>(), want);
  EXPECT_EQ(lag_saturation<CalendarQueue>(), want);
}

TEST(SchedulerEquivalence, CancelsInsideServedRunLeaveTombstones) {
  using Trace = Harness<CalendarQueue>::Trace;
  const Trace want{{70'000, 0}, {90'000, 2}, {110'000, 5}};
  EXPECT_EQ(cancels_inside_served_run<ReferenceHeap>(), want);
  EXPECT_EQ(cancels_inside_served_run<CalendarQueue>(), want);
}

// A callback that cancels its own id: a no-op, and the id already reads as
// no longer pending while the callback runs.
template <typename Queue>
typename Harness<Queue>::Trace self_cancel() {
  Harness<Queue> h;
  h.push(1'000);
  h.push(5'000, [&h] {
    const auto self = h.ids[1];
    EXPECT_FALSE(h.q.is_pending(self));
    h.q.cancel(self);
    EXPECT_FALSE(h.q.is_pending(self));
    EXPECT_EQ(h.q.size(), 1u);  // only the 9'000 event is left
    h.push(6'000);
  });
  h.push(9'000);
  h.drain();
  return h.trace;
}

TEST(SchedulerEquivalence, SelfCancelFromCallbackIsNoOp) {
  using Trace = Harness<CalendarQueue>::Trace;
  const Trace want{{1'000, 0}, {5'000, 1}, {6'000, 3}, {9'000, 2}};
  EXPECT_EQ(self_cancel<ReferenceHeap>(), want);
  EXPECT_EQ(self_cancel<CalendarQueue>(), want);
}

// A callback that pushes more than two chunks of callback storage while it
// runs, then reads its own captures: the wheel runs callbacks in place, so
// growing the storage must not move the running one.
template <typename Queue>
typename Harness<Queue>::Trace pushes_chunks_from_callback(std::uint64_t& seen) {
  constexpr std::uint32_t kPushes = 2 * CalendarQueue::kCallbackChunk + 3;
  Harness<Queue> h;
  // 32 bytes, so the whole callback (64 bytes) stays in the inline buffer.
  std::array<std::uint64_t, 4> payload{};
  for (std::size_t i = 0; i < payload.size(); ++i) payload[i] = 0x1111 * (i + 1);
  h.push(1'000, [&h, &seen, payload] {
    for (std::uint32_t i = 0; i < kPushes; ++i) {
      h.push(1'000 + static_cast<std::int64_t>((i * 7919) % 5'000));
    }
    seen = 0;
    for (const auto v : payload) seen += v;
  });
  h.drain();
  return h.trace;
}

TEST(SchedulerEquivalence, CallbackPushingChunksOfEventsRunsInPlace) {
  std::uint64_t heap_seen = 0;
  std::uint64_t wheel_seen = 0;
  const auto heap = pushes_chunks_from_callback<ReferenceHeap>(heap_seen);
  const auto wheel = pushes_chunks_from_callback<CalendarQueue>(wheel_seen);
  EXPECT_EQ(heap.size(), 2 * CalendarQueue::kCallbackChunk + 4);
  EXPECT_EQ(heap, wheel);
  EXPECT_EQ(heap_seen, 0x1111u * 10);
  EXPECT_EQ(wheel_seen, 0x1111u * 10);
}

// A minimal simulator over the reference heap: the same clock and
// run_until semantics as sim::Simulator (events exactly at `until` run,
// the clock then advances to `until`).
class ReferenceSimulator {
 public:
  SimTime now() const { return now_; }
  ReferenceHeap::Id schedule(SimTime delay, InlineCallback cb) {
    return queue_.push(EventKey::make(now_ + delay, now_, queue_.reserve_seq()),
                       std::move(cb));
  }
  void cancel(ReferenceHeap::Id id) { queue_.cancel(id); }
  std::uint64_t run_until(SimTime until) {
    std::uint64_t n = 0;
    while (dispatch_until(queue_, until, now_)) ++n;
    if (now_ < until) now_ = until;
    return n;
  }

 private:
  ReferenceHeap queue_;
  SimTime now_;
};

// Full-simulator property: the Simulator and the reference simulator run
// the same self-scheduling workload (events reschedule themselves, cancel
// timers, and schedule at the current time) and must tick through
// identical (now, ordinal) histories — including across run_until
// boundaries, where events exactly at the boundary run and later ones
// hold.
template <typename Sim>
class TickWorld {
 public:
  void start() {
    // Three interleaved periodic chains with colliding periods plus an
    // RTO-style timer that is forever cancelled and re-armed.
    arm_chain(0, SimTime::micros(3));
    arm_chain(1, SimTime::micros(5));
    arm_chain(2, SimTime::micros(15));
    rearm_rto();
  }

  std::uint64_t run_until(SimTime until) { return sim_.run_until(until); }
  const std::vector<std::pair<std::int64_t, int>>& history() const {
    return history_;
  }
  SimTime now() const { return sim_.now(); }

 private:
  void arm_chain(int id, SimTime period) {
    sim_.schedule(period, [this, id, period] {
      history_.emplace_back(sim_.now().ns(), id);
      // Every chain tick re-arms the shared RTO: the cancel/re-push churn
      // is exactly the pattern fig08-class runs hammer the scheduler with.
      rearm_rto();
      if (id == 0 && history_.size() % 7 == 0) {
        // Occasionally spawn a same-time event: must run this tick, after
        // everything already queued for `now`.
        sim_.schedule(SimTime::zero(),
                      [this] { history_.emplace_back(sim_.now().ns(), 100); });
      }
      arm_chain(id, period);
    });
  }

  void rearm_rto() {
    sim_.cancel(rto_);
    rto_ = sim_.schedule(SimTime::millis(10), [this] {
      history_.emplace_back(sim_.now().ns(), 999);  // RTO actually fired
    });
  }

  Sim sim_;
  decltype(sim_.schedule(SimTime{}, InlineCallback{})) rto_;
  std::vector<std::pair<std::int64_t, int>> history_;
};

TEST(SchedulerEquivalence, SimulatorWorldsTickIdentically) {
  TickWorld<ReferenceSimulator> heap_world;
  TickWorld<Simulator> wheel_world;
  heap_world.start();
  wheel_world.start();
  // Advance both worlds in uneven slices; boundary events (run_until is
  // inclusive) must land in the same slice on both.
  const SimTime cuts[] = {SimTime::micros(15), SimTime::micros(16),
                          SimTime::micros(300), SimTime::millis(2),
                          SimTime::millis(2), SimTime::millis(25)};
  for (const auto cut : cuts) {
    const auto heap_n = heap_world.run_until(cut);
    const auto wheel_n = wheel_world.run_until(cut);
    EXPECT_EQ(heap_n, wheel_n);
    EXPECT_EQ(heap_world.now(), wheel_world.now());
    ASSERT_EQ(heap_world.history(), wheel_world.history());
  }
  EXPECT_FALSE(heap_world.history().empty());
}

}  // namespace
}  // namespace trim::sim
