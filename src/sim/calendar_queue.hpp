// Hierarchical calendar-queue (timing-wheel) scheduler with amortized O(1)
// schedule / dispatch / cancel: the Simulator's pending-event set. Events fire
// in EventKey order (time, then push time, then sequence), cancellation is
// true removal, stale EventIds are no-ops by construction, and steady state
// allocates nothing.
// tests/sim/reference_heap.hpp holds a plain 4-ary heap with the same
// contract; the scheduler equivalence tests check this queue against it
// dispatch for dispatch. See docs/ENGINE.md for the lifecycle.
//
// Layout: 8 levels x 256 buckets. An event whose time differs from the
// wheel's current position `cur_` first in byte `L` (counting from the
// least significant byte of the int64 nanosecond count) lives at level L,
// in the bucket indexed by byte L of its time. Level 0 therefore resolves
// single nanoseconds within the current 256 ns window, level 1 resolves
// 256 ns strides within the current 64 us window, and so on — 8 levels
// cover the full 64-bit time range. Each level keeps a 256-bit occupancy
// bitmap, so "next non-empty bucket" is a masked count-trailing-zeros
// scan, not a walk.
//
// Operations:
//   - push: stamp the event's key (a fresh sequence, or one reserved
//     earlier with reserve_seq), compute (level, bucket) with an xor and a
//     count-leading-zeros, append a (time, slot) entry to the bucket's
//     vector, and construct the
//     callable directly in the slot's callback storage. Amortized O(1), no
//     allocation in steady state (nodes come from a free list, bucket
//     vectors keep their capacity, callback chunks are never freed).
//   - take_until / retire: serve from the "ready run", a short list sorted
//     by key. When the run drains, advance the wheel to the next
//     occupied bucket. A level-0 bucket becomes the run directly (all its
//     events share one timestamp). A higher-level bucket that holds at most
//     kSmallRun events holds exactly the next events in time order, so it
//     becomes the run too, insertion-sorted by key, and the wheel jumps to the
//     run's last time (sparse-wheel path; datacenter event horizons leave
//     most buckets this small). A larger bucket cascades its events down
//     one or more levels first. An event cascades at most (levels - 1)
//     times over its whole life, so dispatch stays amortized O(1).
//     take_until claims the head event and leaves its callback in place;
//     the caller runs it there and then retires the slot.
//   - cancel: swap-remove the event's bucket entry (O(1), touching only
//     the displaced tail entry) or leave a generation-stale tombstone in
//     the ready run that dispatch skips. EventId generations make
//     cancel-after-fire and slot-reuse no-ops.
//
// The tie-break invariant the figure benches depend on: events fire in
// EventKey order, (time, push time, sequence), and the ready run is always
// kept in that order. A level-0 bucket's events share one timestamp (within
// the current 256-tick window the low byte *is* the time), so sorting it by
// (push time, sequence) yields that order; a small run is sorted by the
// whole key. Events pushed at or before the wheel position — including
// events scheduled "now" from inside callbacks and keyed pushes that carry
// an earlier sequence — merge into the live run at their sorted position.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "sim/inline_callback.hpp"
#include "sim/time.hpp"

namespace trim::sim {

// Opaque handle to a scheduled event: (slot, generation) into the queue's
// slot pool; used to cancel timers. Stale handles (event already fired or
// cancelled) are harmless.
class EventId {
 public:
  constexpr EventId() = default;
  constexpr bool valid() const { return slot_ != kInvalid; }
  constexpr auto operator<=>(const EventId&) const = default;

 private:
  friend class CalendarQueue;
  static constexpr std::uint32_t kInvalid = 0xffff'ffff;
  constexpr EventId(std::uint32_t slot, std::uint32_t gen)
      : slot_{slot}, gen_{gen} {}
  std::uint32_t slot_ = kInvalid;
  std::uint32_t gen_ = 0;
};

// An event's dispatch key. Equal-time events fire in push-time order, and
// events pushed at the same instant in sequence order. A plain push draws a
// fresh sequence and is stamped with the clock at the push, so this is
// exactly insertion order. A keyed push carries a push time and a sequence
// reserved earlier (CalendarQueue::reserve_seq): the position an event
// would have had if an earlier event, which never runs, had pushed it. A
// fused link arrival takes the key its tx-done would have given it this way
// (net/link.hpp).
//
// The push time is stored as the lag `at - push time` in 32 bits,
// saturating at 2^32-1 ns (~4.3 s), and compared descending. Saturation
// keeps the order exact: equal-time events whose lags both saturate fall
// back to sequence order, which for plain pushes is push order.
struct EventKey {
  static constexpr std::uint32_t kMaxLag = 0xffff'ffff;

  std::int64_t at = 0;    // nanoseconds
  std::uint32_t lag = 0;  // at - push time, saturated
  std::uint64_t seq = 0;

  static constexpr EventKey make(SimTime at, SimTime pushed_at,
                                 std::uint64_t seq) {
    const std::int64_t lag = at.ns() - pushed_at.ns();
    return EventKey{at.ns(),
                    lag >= std::int64_t{kMaxLag}
                        ? kMaxLag
                        : static_cast<std::uint32_t>(lag),
                    seq};
  }
  friend constexpr bool operator<(const EventKey& x, const EventKey& y) {
    if (x.at != y.at) return x.at < y.at;
    if (x.lag != y.lag) return x.lag > y.lag;
    return x.seq < y.seq;
  }
};

class CalendarQueue {
 public:
  using Callback = InlineCallback;

  // Callback storage grows by chunks of this many slots and never moves,
  // so a callback keeps its address while it runs and pushes more events.
  static constexpr std::uint32_t kCallbackChunk = 256;

  // An event claimed by take_until(). Its callback still lives in the
  // queue's storage: run it there, then hand the event to retire().
  struct Taken {
    SimTime at;
    Callback* cb = nullptr;  // nullptr: nothing was due
    std::uint32_t slot = 0;
    std::uint32_t lag = 0;
    std::uint64_t seq = 0;
    explicit operator bool() const { return cb != nullptr; }
    EventKey key() const { return EventKey{at.ns(), lag, seq}; }
  };

  // Always-on work counters since construction or the last clear().
  struct Stats {
    std::uint64_t pushes = 0;          // events pushed (not reserved keys)
    std::uint64_t bucket_inserts = 0;  // incl. re-insertion by cascades
    std::uint64_t refills = 0;         // times the ready run was refilled
  };

  // Schedule `f` (a void() callable or a Callback) at `at`, after every
  // event already pushed for `at` (a zero lag and a fresh sequence). The
  // callable is constructed directly in its slot's callback storage.
  template <typename F>
  EventId push(SimTime at, F&& f) {
    return push(EventKey{at.ns(), 0, reserve_seq()}, std::forward<F>(f));
  }
  // Schedule `f` under an explicit key. Its sequence comes from
  // reserve_seq() and keys no other pending event.
  template <typename F>
  EventId push(const EventKey& key, F&& f) {
    const std::uint32_t idx = acquire_node();
    try {
      callback(idx).assign(std::forward<F>(f));
    } catch (...) {
      release_node(idx);
      throw;
    }
    ++pushes_;
    return enqueue(idx, key);
  }

  // Move a pending event, callback and all, to a new key; returns its new
  // id (the old one goes stale). Not a push in stats().
  EventId rekey(EventId id, const EventKey& key);

  // Take the next sequence number without pushing anything: a later keyed
  // push can then take the place among equal keys that a push now would.
  std::uint64_t reserve_seq() { return next_seq_++; }

  // O(1) true removal. No-op for invalid or stale ids (the generation
  // tag catches cancel-after-fire and slot reuse).
  void cancel(EventId id);

  // True while `id` refers to a scheduled-but-not-yet-dispatched event.
  bool is_pending(EventId id) const;
  // The time of a pending event; nullopt when `id` is not pending.
  std::optional<SimTime> pending_time(EventId id) const;

  bool empty() const { return live_ == 0; }
  std::size_t size() const { return live_; }

  // Time of the next event. Queue must not be empty.
  SimTime next_time() const;

  // Claim the next event if it is due at or before `until`; otherwise
  // return an empty Taken. A claimed event's id is already stale (cancel
  // is a no-op, is_pending is false), but its slot is not reused until
  // retire(), so the callback can run in place and schedule more events.
  Taken take_until(SimTime until);

  // Destroy a claimed event's callback and recycle its slot.
  void retire(const Taken& ev) {
    ev.cb->reset();
    nodes_[ev.slot].free_next = free_head_;
    free_head_ = ev.slot;
  }

  Stats stats() const { return {pushes_, bucket_inserts_, refills_}; }

  void clear();

 private:
  static constexpr int kLevelBits = 8;
  static constexpr int kLevels = 8;  // 8 x 8-bit digits cover int64 time
  static constexpr std::uint32_t kSlotsPerLevel = 1u << kLevelBits;
  static constexpr std::uint32_t kBucketCount = kLevels * kSlotsPerLevel;
  static constexpr std::uint32_t kWordsPerLevel = kSlotsPerLevel / 64;
  static constexpr std::uint32_t kNil = 0xffff'ffff;
  // Node::where states beyond a bucket index (bucket indices are < 2048).
  // kWhereFree covers both a free slot and one claimed by take_until.
  static constexpr std::uint16_t kWhereFree = 0xffff;
  static constexpr std::uint16_t kWhereReady = 0xfffe;

  // Hot per-event record. The callback lives in the parallel `cb_chunks_`
  // storage so rebucketing an event moves 32-byte entries through the
  // cache, not the callback storage that only push and dispatch read. Buckets are
  // vectors of (time, slot) entries rather than intrusive lists: inserts
  // append, cascades scan sequentially, and a cancel swap-removes one
  // entry — no neighbor nodes are ever touched.
  struct Node {
    std::int64_t at = 0;         // raw nanoseconds, as pushed
    std::uint64_t seq = 0;       // EventKey::seq
    std::uint32_t gen = 0;       // bumped on release; stale-id detector
    union {
      std::uint32_t free_next = kNil;  // free-list link, while free
      std::uint32_t pos;               // its bucket entry, while bucketed
    };
    std::uint32_t lag = 0;       // EventKey::lag
    std::uint16_t where = kWhereFree;

    EventKey key() const { return EventKey{at, lag, seq}; }
  };
  static_assert(sizeof(Node) == 32);

  struct BucketEntry {
    std::int64_t at;
    std::uint32_t slot;
  };

  // Ready-run entry: the sort key plus the (slot, gen) identity so
  // cancelled entries are recognized as stale and skipped.
  struct ReadyEntry {
    std::int64_t at;
    std::uint64_t seq;
    std::uint32_t lag;
    std::uint32_t slot;
    std::uint32_t gen;

    EventKey key() const { return EventKey{at, lag, seq}; }
  };

  // Buckets at level >= 1 this small are served as a sorted run instead
  // of being cascaded (see refill_ready).
  static constexpr std::size_t kSmallRun = 8;

  Callback& callback(std::uint32_t idx) {
    return cb_chunks_[idx / kCallbackChunk][idx % kCallbackChunk];
  }
  std::uint32_t acquire_node() {
    if (free_head_ == kNil) return grow_nodes();
    const std::uint32_t idx = free_head_;
    free_head_ = nodes_[idx].free_next;
    return idx;
  }
  std::uint32_t grow_nodes();
  void release_node(std::uint32_t idx);
  // Stamp a freshly acquired node with its key and file it in the ready
  // run or a bucket.
  EventId enqueue(std::uint32_t idx, const EventKey& key);
  std::uint32_t bucket_of(std::int64_t at) const;
  void bucket_insert(std::uint32_t bucket, std::uint32_t idx);
  void bucket_remove(std::uint32_t idx);
  void ready_insert(std::uint32_t idx);
  // Drop a consumed bucket: mark it empty in the occupancy bitmap and the
  // per-level population count (callers already moved its entries out).
  void bucket_consumed(int level, int slot, std::size_t taken);
  // Find the first occupied bucket at `level` with slot >= `from`; -1 when
  // none. A masked bitmap scan.
  int find_occupied(int level, std::uint32_t from) const;
  // Advance the wheel to the next occupied bucket and turn it into the
  // ready run: a level-0 bucket or a small run directly, larger buckets
  // after cascading them down. Pre: ready run empty, at least one
  // bucketed event.
  void refill_ready();
  // Ensure the front of the ready run is a live event, refilling from the
  // buckets when the run drains. Post: live front, or live_ == 0.
  void settle();

  std::vector<Node> nodes_;
  // Parallel to nodes_ (slot i at [i / kCallbackChunk][i % kCallbackChunk]);
  // cold except for push and dispatch.
  std::vector<std::unique_ptr<Callback[]>> cb_chunks_;
  std::uint32_t free_head_ = kNil;
  std::vector<std::vector<BucketEntry>> buckets_;  // kBucketCount, lazily sized
  std::vector<BucketEntry> cascade_;  // scratch for draining one bucket
  // Recycled bucket storage. A high-level bucket is consumed once and then
  // not revisited for a full rotation of its level (seconds to hours), so
  // letting it keep its vector would strand the capacity while the *next*
  // bucket along the wheel grows from zero — a slow allocation drip for as
  // long as the simulation runs. Consumed high-level buckets donate their
  // storage here; bucket_insert into a capacity-zero bucket takes it back.
  std::vector<std::vector<BucketEntry>> spare_;
  std::uint64_t occ_[kLevels][kWordsPerLevel] = {};
  // Live events per level: lets refill_ready skip empty levels outright
  // instead of scanning their bitmaps (a near-empty wheel refills in a few
  // loads instead of walking all eight levels).
  std::uint32_t level_count_[kLevels] = {};
  std::vector<ReadyEntry> ready_;
  std::size_t ready_pos_ = 0;
  std::int64_t cur_ = 0;  // wheel position: timestamp of the ready run
  std::uint64_t next_seq_ = 1;
  std::size_t live_ = 0;
  std::uint64_t pushes_ = 0;
  std::uint64_t bucket_inserts_ = 0;
  std::uint64_t refills_ = 0;
};

}  // namespace trim::sim
