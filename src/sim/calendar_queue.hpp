// Hierarchical calendar-queue (timing-wheel) scheduler with amortized O(1)
// schedule / dispatch / cancel: the Simulator's pending-event set. Events fire
// in (time, insertion-sequence) order, cancellation is true removal, stale
// EventIds are no-ops by construction, and steady state allocates nothing.
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
//   - push: compute (level, bucket) with an xor and a count-leading-zeros,
//     append a (time, slot) entry to the bucket's vector, and construct the
//     callable directly in the slot's callback storage. Amortized O(1), no
//     allocation in steady state (nodes come from a free list, bucket
//     vectors keep their capacity, callback chunks are never freed).
//   - take_until / retire: serve from the "ready run", a short list sorted
//     by (time, seq). When the run drains, advance the wheel to the next
//     occupied bucket. A level-0 bucket becomes the run directly (all its
//     events share one timestamp). A higher-level bucket that holds at most
//     kSmallRun events holds exactly the next events in time order, so it
//     becomes the run too, insertion-sorted, and the wheel jumps to the
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
// The tie-break invariant the figure benches depend on: the ready run is
// always in (time, seq) order. A level-0 bucket's events share one
// timestamp (within the current 256-tick window the low byte *is* the
// time), so sorting it by insertion sequence yields that order; a small
// run is sorted by both keys. Events pushed at or before the wheel
// position — including events scheduled "now" from inside callbacks —
// merge into the live run at their sorted position.
#pragma once

#include <cstdint>
#include <memory>
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
    explicit operator bool() const { return cb != nullptr; }
  };

  // Always-on work counters since construction or the last clear().
  struct Stats {
    std::uint64_t pushes = 0;
    std::uint64_t bucket_inserts = 0;  // incl. re-insertion by cascades
    std::uint64_t refills = 0;         // times the ready run was refilled
  };

  // Schedule `f` (a void() callable or a Callback) at `at`. The callable
  // is constructed directly in its slot's callback storage.
  template <typename F>
  EventId push(SimTime at, F&& f) {
    const std::uint32_t idx = acquire_node();
    try {
      callback(idx).assign(std::forward<F>(f));
    } catch (...) {
      release_node(idx);
      throw;
    }
    return enqueue(idx, at);
  }

  // O(1) true removal. No-op for invalid or stale ids (the generation
  // tag catches cancel-after-fire and slot reuse).
  void cancel(EventId id);

  // True while `id` refers to a scheduled-but-not-yet-dispatched event.
  bool is_pending(EventId id) const;

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

  Stats stats() const { return {next_seq_ - 1, bucket_inserts_, refills_}; }

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
    std::uint64_t seq = 0;       // insertion order, tiebreak at equal times
    std::uint32_t gen = 0;       // bumped on release; stale-id detector
    std::uint32_t free_next = kNil;  // free-list link
    std::uint32_t pos = 0;       // index of this event's bucket entry
    std::uint16_t where = kWhereFree;
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
    std::uint32_t slot;
    std::uint32_t gen;
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
  // Stamp a freshly acquired node with its time and sequence and file it
  // in the ready run or a bucket.
  EventId enqueue(std::uint32_t idx, SimTime at);
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
  std::uint64_t bucket_inserts_ = 0;
  std::uint64_t refills_ = 0;
};

}  // namespace trim::sim
