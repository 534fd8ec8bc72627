#include "sim/calendar_queue.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstring>
#include <utility>

namespace trim::sim {

namespace {

// Events pushed at or before the wheel position (schedule-at-now, or the
// clamped negative delays Simulator produces) bypass the buckets and merge
// straight into the ready run, so `bucket_of` only ever sees at > cur.
constexpr std::uint32_t level_of(std::int64_t at, std::int64_t cur) {
  const auto diff =
      static_cast<std::uint64_t>(at) ^ static_cast<std::uint64_t>(cur);
  return static_cast<std::uint32_t>(63 - std::countl_zero(diff)) >> 3;
}

}  // namespace

EventId CalendarQueue::enqueue(std::uint32_t idx, const EventKey& key) {
  if (buckets_.empty()) buckets_.resize(kBucketCount);
  Node& n = nodes_[idx];
  n.at = key.at;
  n.lag = key.lag;
  n.seq = key.seq;
  if (n.at <= cur_) {
    ready_insert(idx);
  } else {
    bucket_insert(bucket_of(n.at), idx);
  }
  ++live_;
  return EventId{idx, n.gen};
}

void CalendarQueue::cancel(EventId id) {
  if (!id.valid() || id.slot_ >= nodes_.size()) return;
  Node& n = nodes_[id.slot_];
  // Stale id: the event already fired or was cancelled (generation moved
  // on), possibly with the slot since recycled. No-op by construction.
  if (n.gen != id.gen_ || n.where == kWhereFree) return;
  if (n.where != kWhereReady) bucket_remove(id.slot_);
  // A ready-run entry stays behind as a tombstone; the bumped generation
  // makes dispatch skip it.
  release_node(id.slot_);
  --live_;
}

bool CalendarQueue::is_pending(EventId id) const {
  if (!id.valid() || id.slot_ >= nodes_.size()) return false;
  const Node& n = nodes_[id.slot_];
  return n.gen == id.gen_ && n.where != kWhereFree;
}

EventId CalendarQueue::rekey(EventId id, const EventKey& key) {
  assert(is_pending(id));
  const std::uint32_t idx = acquire_node();
  callback(idx) = std::move(callback(id.slot_));
  cancel(id);
  return enqueue(idx, key);
}

std::optional<SimTime> CalendarQueue::pending_time(EventId id) const {
  if (!is_pending(id)) return std::nullopt;
  return SimTime::nanos(nodes_[id.slot_].at);
}

SimTime CalendarQueue::next_time() const {
  // Advancing the wheel (cascades, tombstone skips) never changes which
  // event dispatches next, so settling here is logically const.
  const_cast<CalendarQueue*>(this)->settle();
  assert(live_ != 0);
  return SimTime::nanos(ready_[ready_pos_].at);
}

CalendarQueue::Taken CalendarQueue::take_until(SimTime until) {
  settle();
  if (live_ == 0 || ready_[ready_pos_].at > until.ns()) return {};
  const ReadyEntry e = ready_[ready_pos_++];
  Node& n = nodes_[e.slot];
  // Stale the id before the callback runs (a self-cancel is a no-op), but
  // keep the slot off the free list until retire(): the callback runs in
  // place and must not be overwritten by an event it schedules.
  ++n.gen;
  n.where = kWhereFree;
  --live_;
  return Taken{SimTime::nanos(e.at), &callback(e.slot), e.slot, e.lag, e.seq};
}

void CalendarQueue::clear() {
  for (std::uint32_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i].where != kWhereFree) release_node(i);
  }
  for (auto& bucket : buckets_) bucket.clear();
  std::memset(occ_, 0, sizeof occ_);
  std::memset(level_count_, 0, sizeof level_count_);
  ready_.clear();
  ready_pos_ = 0;
  cur_ = 0;
  next_seq_ = 1;
  live_ = 0;
  pushes_ = 0;
  bucket_inserts_ = 0;
  refills_ = 0;
}

std::uint32_t CalendarQueue::grow_nodes() {
  const auto idx = static_cast<std::uint32_t>(nodes_.size());
  nodes_.emplace_back();
  if (idx % kCallbackChunk == 0) {
    cb_chunks_.push_back(std::make_unique<Callback[]>(kCallbackChunk));
  }
  return idx;
}

void CalendarQueue::release_node(std::uint32_t idx) {
  Node& n = nodes_[idx];
  callback(idx).reset();
  ++n.gen;
  n.where = kWhereFree;
  n.free_next = free_head_;
  free_head_ = idx;
}

std::uint32_t CalendarQueue::bucket_of(std::int64_t at) const {
  const std::uint32_t level = level_of(at, cur_);
  const auto slot = static_cast<std::uint32_t>(
      (static_cast<std::uint64_t>(at) >> (level * kLevelBits)) &
      (kSlotsPerLevel - 1));
  return level * kSlotsPerLevel + slot;
}

void CalendarQueue::bucket_insert(std::uint32_t bucket, std::uint32_t idx) {
  Node& n = nodes_[idx];
  auto& vec = buckets_[bucket];
  if (vec.capacity() == 0 && !spare_.empty()) {
    vec = std::move(spare_.back());
    spare_.pop_back();
    vec.clear();
  }
  n.where = static_cast<std::uint16_t>(bucket);
  n.pos = static_cast<std::uint32_t>(vec.size());
  vec.push_back(BucketEntry{n.at, idx});
  ++bucket_inserts_;
  const std::uint32_t slot = bucket & (kSlotsPerLevel - 1);
  occ_[bucket >> kLevelBits][slot >> 6] |= 1ull << (slot & 63);
  ++level_count_[bucket >> kLevelBits];
}

void CalendarQueue::bucket_remove(std::uint32_t idx) {
  const Node& n = nodes_[idx];
  const std::uint32_t bucket = n.where;
  auto& vec = buckets_[bucket];
  const BucketEntry last = vec.back();
  vec.pop_back();
  if (last.slot != idx) {  // swap-remove: relocate the displaced entry
    vec[n.pos] = last;
    nodes_[last.slot].pos = n.pos;
  }
  if (vec.empty()) {
    const std::uint32_t slot = bucket & (kSlotsPerLevel - 1);
    occ_[bucket >> kLevelBits][slot >> 6] &= ~(1ull << (slot & 63));
  }
  --level_count_[bucket >> kLevelBits];
}

void CalendarQueue::ready_insert(std::uint32_t idx) {
  Node& n = nodes_[idx];
  n.where = kWhereReady;
  // Keep the run sorted by key. A plain push at `now` carries the latest
  // push time and the largest seq, so scanning back from the tail stops at
  // the first entry not after it — an append in the common case. A keyed
  // push with an earlier push time or sequence scans further back.
  const EventKey key = n.key();
  auto it = ready_.end();
  const auto first = ready_.begin() + static_cast<std::ptrdiff_t>(ready_pos_);
  while (it != first && key < (it - 1)->key()) --it;
  ready_.insert(it, ReadyEntry{n.at, n.seq, n.lag, idx, n.gen});
}

void CalendarQueue::bucket_consumed(int level, int slot, std::size_t taken) {
  occ_[level][static_cast<std::uint32_t>(slot) >> 6] &=
      ~(1ull << (slot & 63));
  level_count_[level] -= static_cast<std::uint32_t>(taken);
}

int CalendarQueue::find_occupied(int level, std::uint32_t from) const {
  if (from >= kSlotsPerLevel) return -1;
  std::uint32_t word = from >> 6;
  std::uint64_t bits = occ_[level][word] & (~0ull << (from & 63));
  for (;;) {
    if (bits != 0) {
      return static_cast<int>(word * 64 +
                              static_cast<std::uint32_t>(std::countr_zero(bits)));
    }
    if (++word >= kWordsPerLevel) return -1;
    bits = occ_[level][word];
  }
}

void CalendarQueue::refill_ready() {
  ++refills_;
  for (;;) {
    // The whole level-0 bucket shares one timestamp inside the current
    // 256-tick window, so it becomes the ready run directly.
    if (level_count_[0] != 0) {
      // Bucketed times are strictly ahead of the wheel, so a non-empty
      // level 0 always has an occupied slot past the current one.
      const auto cur0 = static_cast<std::uint32_t>(cur_) & (kSlotsPerLevel - 1);
      const int slot = find_occupied(0, cur0 + 1);
      assert(slot >= 0);
      cur_ = (cur_ & ~static_cast<std::int64_t>(kSlotsPerLevel - 1)) | slot;
      auto& vec = buckets_[static_cast<std::uint32_t>(slot)];
      for (std::size_t i = 0; i < vec.size(); ++i) {
        if (i + 1 < vec.size()) __builtin_prefetch(&nodes_[vec[i + 1].slot]);
        Node& n = nodes_[vec[i].slot];
        n.where = kWhereReady;
        ready_.push_back(ReadyEntry{n.at, n.seq, n.lag, vec[i].slot, n.gen});
      }
      bucket_consumed(0, slot, vec.size());
      vec.clear();
      // Restore the key order: equal-time events fire by push time, then
      // sequence. (Bucket entries are unordered — pushes append, cascades
      // interleave — so the run is sorted once, when it goes live.)
      if (ready_.size() - ready_pos_ > 1) {
        std::sort(ready_.begin() + static_cast<std::ptrdiff_t>(ready_pos_),
                  ready_.end(),
                  [](const ReadyEntry& x, const ReadyEntry& y) {
                    return x.lag != y.lag ? x.lag > y.lag : x.seq < y.seq;
                  });
      }
      return;
    }
    // Nothing left in the level-0 window: advance to the earliest occupied
    // higher-level bucket and cascade its events down. Levels are scanned
    // bottom-up — an occupied slot ahead at level L is always earlier than
    // any occupied slot ahead at level L+1, whose window starts later.
    bool cascaded = false;
    for (int level = 1; level < kLevels; ++level) {
      if (level_count_[level] == 0) continue;
      const auto digit = static_cast<std::uint32_t>(
          static_cast<std::uint64_t>(cur_) >> (level * kLevelBits)) &
          (kSlotsPerLevel - 1);
      const int slot = find_occupied(level, digit + 1);
      assert(slot >= 0);
      auto& vec = buckets_[static_cast<std::uint32_t>(level) * kSlotsPerLevel +
                           static_cast<std::uint32_t>(slot)];
      // Small-run path: levels below are empty and later buckets hold
      // later times, so this bucket holds exactly the next vec.size()
      // events. Insertion-sorted by key they are the ready run;
      // the wheel jumps to the run's last time, which keeps every other
      // bucketed event at its level (the jump stays inside this bucket's
      // window), and pushes up to that time merge into the run the same
      // way.
      if (vec.size() <= kSmallRun) {
        assert(ready_.empty());
        for (const BucketEntry& b : vec) ready_insert(b.slot);
        bucket_consumed(level, slot, vec.size());
        vec.clear();
        spare_.push_back(std::move(vec));  // donate; see spare_'s comment
        cur_ = ready_.back().at;
        return;
      }
      // Jump to the bucket's base time: every lower digit resets to zero.
      const std::uint64_t above =
          level + 1 >= kLevels
              ? 0
              : (static_cast<std::uint64_t>(cur_) &
                 ~((1ull << ((level + 1) * kLevelBits)) - 1));
      cur_ = static_cast<std::int64_t>(
          above | (static_cast<std::uint64_t>(slot) << (level * kLevelBits)));
      bucket_consumed(level, slot, vec.size());
      // The bucket's entries redistribute relative to the new wheel
      // position. `vec` itself must be drained before reinsertion (an
      // entry can land back in the same bucket only when level 7 wraps the
      // sign bit, but a swap here keeps the loop safely re-entrant).
      cascade_.clear();
      cascade_.swap(vec);
      if (vec.capacity() != 0) {  // donate the old scratch storage
        spare_.push_back(std::move(vec));
      }
      for (std::size_t i = 0; i < cascade_.size(); ++i) {
        if (i + 1 < cascade_.size()) {
          __builtin_prefetch(&nodes_[cascade_[i + 1].slot]);
        }
        const BucketEntry e = cascade_[i];
        if (e.at <= cur_) {
          // Lands exactly on the new wheel position (the bucket's base).
          ready_insert(e.slot);
        } else {
          bucket_insert(bucket_of(e.at), e.slot);
        }
      }
      cascaded = true;
      break;
    }
    if (!cascaded) {
      assert(false && "refill_ready called with no bucketed events");
      return;
    }
    // A cascade may have fed the ready run directly (events at the new
    // wheel position); serve those before scanning level 0 again.
    if (ready_pos_ < ready_.size()) return;
  }
}

void CalendarQueue::settle() {
  for (;;) {
    while (ready_pos_ < ready_.size()) {
      const ReadyEntry& e = ready_[ready_pos_];
      if (nodes_[e.slot].gen == e.gen) return;  // live head
      ++ready_pos_;  // tombstone of a cancelled event
    }
    ready_.clear();
    ready_pos_ = 0;
    if (live_ == 0) return;
    refill_ready();
  }
}

}  // namespace trim::sim
