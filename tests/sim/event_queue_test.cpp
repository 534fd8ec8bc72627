// Contract suite for the scheduler: every test runs against the calendar
// wheel the simulator uses and against the reference 4-ary heap
// (reference_heap.hpp). The two must be observably interchangeable.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "sim/calendar_queue.hpp"
#include "sim/dispatch.hpp"
#include "sim/reference_heap.hpp"

namespace trim::sim {
namespace {

enum class Backend : std::uint8_t { kHeap, kWheel };

// One queue of either backend behind the common contract. An Id carries a
// handle for each backend; only the live backend's half is ever set.
class Queue {
 public:
  struct Id {
    ReferenceHeap::Id heap;
    EventId wheel;
  };

  explicit Queue(Backend backend) : backend_{backend} {}

  Id push(SimTime at, InlineCallback cb) {
    if (backend_ == Backend::kHeap) return {heap_.push(at, std::move(cb)), {}};
    return {{}, wheel_.push(at, std::move(cb))};
  }
  void cancel(Id id) {
    backend_ == Backend::kHeap ? heap_.cancel(id.heap) : wheel_.cancel(id.wheel);
  }
  bool is_pending(Id id) const {
    return backend_ == Backend::kHeap ? heap_.is_pending(id.heap)
                                      : wheel_.is_pending(id.wheel);
  }
  bool empty() const {
    return backend_ == Backend::kHeap ? heap_.empty() : wheel_.empty();
  }
  std::size_t size() const {
    return backend_ == Backend::kHeap ? heap_.size() : wheel_.size();
  }
  SimTime next_time() const {
    return backend_ == Backend::kHeap ? heap_.next_time() : wheel_.next_time();
  }
  // Run the next event's callback; returns its time.
  SimTime dispatch() {
    return backend_ == Backend::kHeap ? dispatch_next(heap_)
                                      : dispatch_next(wheel_);
  }
  void clear() { backend_ == Backend::kHeap ? heap_.clear() : wheel_.clear(); }

 private:
  Backend backend_;
  ReferenceHeap heap_;
  CalendarQueue wheel_;
};

class EventQueueTest : public ::testing::TestWithParam<Backend> {
 protected:
  Queue q{GetParam()};
};

INSTANTIATE_TEST_SUITE_P(Backends, EventQueueTest,
                         ::testing::Values(Backend::kHeap, Backend::kWheel),
                         [](const auto& info) {
                           return std::string{info.param == Backend::kHeap
                                                  ? "heap"
                                                  : "wheel"};
                         });

TEST_P(EventQueueTest, PopsInTimeOrder) {
  std::vector<int> order;
  q.push(SimTime::micros(30), [&] { order.push_back(3); });
  q.push(SimTime::micros(10), [&] { order.push_back(1); });
  q.push(SimTime::micros(20), [&] { order.push_back(2); });
  while (!q.empty()) q.dispatch();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST_P(EventQueueTest, EqualTimesDispatchInInsertionOrder) {
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.push(SimTime::micros(5), [&order, i] { order.push_back(i); });
  }
  while (!q.empty()) q.dispatch();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST_P(EventQueueTest, CancelledEventsNeverFire) {
  int fired = 0;
  const auto id = q.push(SimTime::micros(1), [&] { ++fired; });
  q.push(SimTime::micros(2), [&] { ++fired; });
  q.cancel(id);
  while (!q.empty()) q.dispatch();
  EXPECT_EQ(fired, 1);
}

TEST_P(EventQueueTest, CancelHeadThenNextTimeSkipsIt) {
  const auto id = q.push(SimTime::micros(1), [] {});
  q.push(SimTime::micros(7), [] {});
  q.cancel(id);
  EXPECT_EQ(q.next_time(), SimTime::micros(7));
}

TEST_P(EventQueueTest, SizeExcludesCancelled) {
  const auto a = q.push(SimTime::micros(1), [] {});
  q.push(SimTime::micros(2), [] {});
  EXPECT_EQ(q.size(), 2u);
  q.cancel(a);
  EXPECT_EQ(q.size(), 1u);
}

TEST_P(EventQueueTest, CancelIsIdempotentAndInvalidIdIsIgnored) {
  const auto id = q.push(SimTime::micros(1), [] {});
  q.cancel(id);
  q.cancel(id);
  q.cancel(Queue::Id{});  // invalid
  EXPECT_TRUE(q.empty());
}

TEST_P(EventQueueTest, ClearDropsEverything) {
  q.push(SimTime::micros(1), [] {});
  q.push(SimTime::micros(2), [] {});
  q.clear();
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
}

TEST_P(EventQueueTest, ClearThenReuseStartsFresh) {
  q.push(SimTime::micros(9), [] {});
  q.clear();
  std::vector<int> order;
  q.push(SimTime::micros(2), [&] { order.push_back(2); });
  q.push(SimTime::micros(1), [&] { order.push_back(1); });
  while (!q.empty()) q.dispatch();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST_P(EventQueueTest, PopReturnsTimestamp) {
  q.push(SimTime::micros(42), [] {});
  EXPECT_EQ(q.dispatch(), SimTime::micros(42));
}

// Regression: cancelling an id whose event already fired used to insert a
// tombstone that never drained, permanently skewing size() (the old
// heap_.size() - cancelled_.size() underflowed a size_t). Generation-tagged
// slots make stale cancels a no-op by construction in both backends.
TEST_P(EventQueueTest, CancelAfterFireIsNoOpAndSizeStaysExact) {
  const auto fired = q.push(SimTime::micros(1), [] {});
  q.push(SimTime::micros(2), [] {});
  q.dispatch();          // `fired` has dispatched
  q.cancel(fired);       // stale: must not affect anything
  EXPECT_EQ(q.size(), 1u);
  EXPECT_FALSE(q.empty());
  q.dispatch();
  q.cancel(fired);       // still harmless on an empty queue
  EXPECT_EQ(q.size(), 0u);
  EXPECT_TRUE(q.empty());
}

// A stale id must not cancel the new occupant of a recycled slot.
TEST_P(EventQueueTest, StaleIdDoesNotCancelRecycledSlot) {
  const auto old_id = q.push(SimTime::micros(1), [] {});
  q.dispatch();  // releases the slot; `old_id` is now stale
  int fired = 0;
  q.push(SimTime::micros(2), [&] { ++fired; });  // reuses the slot
  q.cancel(old_id);
  ASSERT_EQ(q.size(), 1u);
  q.dispatch();
  EXPECT_EQ(fired, 1);
}

TEST_P(EventQueueTest, IsPendingTracksLifecycle) {
  EXPECT_FALSE(q.is_pending(Queue::Id{}));
  const auto a = q.push(SimTime::micros(1), [] {});
  const auto b = q.push(SimTime::micros(2), [] {});
  EXPECT_TRUE(q.is_pending(a));
  EXPECT_TRUE(q.is_pending(b));
  q.cancel(b);
  EXPECT_FALSE(q.is_pending(b));
  q.dispatch();
  EXPECT_FALSE(q.is_pending(a));
}

TEST_P(EventQueueTest, CancelInteriorEntryKeepsDispatchOrder) {
  std::vector<int> order;
  std::vector<Queue::Id> ids;
  for (int i = 0; i < 64; ++i) {
    ids.push_back(q.push(SimTime::micros(i), [&order, i] { order.push_back(i); }));
  }
  for (int i = 1; i < 64; i += 3) q.cancel(ids[i]);
  EXPECT_EQ(q.size(), 64u - 21u);
  int prev = -1;
  while (!q.empty()) q.dispatch();
  for (const int i : order) {
    EXPECT_GT(i, prev);
    EXPECT_NE(i % 3, 1);
    prev = i;
  }
}

// Schedule-from-inside-a-callback at the current time must dispatch after
// everything already pending at that time but before any later time — the
// self-clocked link drain depends on this.
TEST_P(EventQueueTest, PushAtCurrentTimeFromCallbackRunsInSequence) {
  std::vector<int> order;
  q.push(SimTime::micros(5), [&] {
    order.push_back(0);
    q.push(SimTime::micros(5), [&] { order.push_back(2); });
  });
  q.push(SimTime::micros(5), [&] { order.push_back(1); });
  q.push(SimTime::micros(6), [&] { order.push_back(3); });
  while (!q.empty()) q.dispatch();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST_P(EventQueueTest, RandomizedCancelStressMatchesReferenceModel) {
  std::vector<std::pair<std::int64_t, Queue::Id>> live;  // (time, id)
  std::uint64_t x = 987654321;
  auto rnd = [&x] {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    return x >> 33;
  };
  std::multiset<std::int64_t> expected;
  for (int round = 0; round < 20000; ++round) {
    const auto action = rnd() % 3;
    if (action != 0 || live.empty()) {
      const auto at = static_cast<std::int64_t>(rnd() % 1'000'000);
      live.emplace_back(at, q.push(SimTime::nanos(at), [] {}));
      expected.insert(at);
    } else {
      const auto pick = rnd() % live.size();
      q.cancel(live[pick].second);
      expected.erase(expected.find(live[pick].first));
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
    }
    ASSERT_EQ(q.size(), expected.size());
  }
  // Everything left must drain in exactly the reference order.
  for (const auto at : expected) {
    ASSERT_FALSE(q.empty());
    EXPECT_EQ(q.dispatch(), SimTime::nanos(at));
  }
  EXPECT_TRUE(q.empty());
}

TEST_P(EventQueueTest, ManyEventsStressOrdering) {
  // Pseudo-random times; dispatch must still be monotone.
  std::uint64_t x = 12345;
  for (int i = 0; i < 5000; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    q.push(SimTime::nanos(static_cast<std::int64_t>(x % 1'000'000)), [] {});
  }
  SimTime prev = SimTime::zero();
  while (!q.empty()) {
    const auto at = q.dispatch();
    EXPECT_GE(at, prev);
    prev = at;
  }
}

// Times spread across many wheel levels (nanoseconds up to whole seconds)
// exercise the cascade path; the heap is level-agnostic by construction.
TEST_P(EventQueueTest, WideTimeRangeStillPopsInOrder) {
  std::uint64_t x = 5150;
  std::multiset<std::int64_t> expected;
  for (int i = 0; i < 2000; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    const auto at = static_cast<std::int64_t>((x >> 33) % 5'000'000'000);
    expected.insert(at);
    q.push(SimTime::nanos(at), [] {});
  }
  for (const auto at : expected) {
    ASSERT_FALSE(q.empty());
    EXPECT_EQ(q.dispatch(), SimTime::nanos(at));
  }
  EXPECT_TRUE(q.empty());
}

}  // namespace
}  // namespace trim::sim
