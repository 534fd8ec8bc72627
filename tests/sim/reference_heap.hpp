// Reference model of the scheduler contract: an index-tracked 4-ary heap.
//
// The simulator runs on the calendar-queue wheel (sim/calendar_queue.hpp).
// This heap implements the same contract in the most direct way — events
// dispatch in EventKey order (time, then push time as a descending lag,
// then sequence), keyed pushes may carry a sequence reserved earlier,
// cancellation is true removal, stale ids are no-ops by construction — and
// the scheduler tests check the wheel against it dispatch for dispatch. It
// is not linked into the simulator.
//
// Events live in a slot pool; the heap orders slot indices by key. Each slot carries a generation counter that
// is bumped every time the slot is released (fired or cancelled); an Id is
// (slot, generation), so cancel() on a stale id — already fired, already
// cancelled, or a recycled slot — is a no-op. Live cancellation removes
// the entry from the heap in O(log n), so size() is exact and pop() never
// skips entries.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/calendar_queue.hpp"
#include "sim/inline_callback.hpp"
#include "sim/time.hpp"

namespace trim::sim {

class ReferenceHeap {
 public:
  using Callback = InlineCallback;

  struct Popped {
    SimTime at;
    Callback cb;
  };

  // Handle to a scheduled event; a default-constructed Id is invalid.
  class Id {
   public:
    constexpr Id() = default;
    constexpr bool valid() const { return slot_ != kNil; }
    constexpr auto operator<=>(const Id&) const = default;

   private:
    friend class ReferenceHeap;
    constexpr Id(std::uint32_t slot, std::uint32_t gen)
        : slot_{slot}, gen_{gen} {}
    std::uint32_t slot_ = kNil;
    std::uint32_t gen_ = 0;
  };

  // A plain push: zero lag, fresh sequence (CalendarQueue::push(at, f)).
  Id push(SimTime at, Callback cb) {
    return push(EventKey{at.ns(), 0, reserve_seq()}, std::move(cb));
  }

  Id push(const EventKey& key, Callback cb) {
    std::uint32_t idx;
    if (free_head_ != kNil) {
      idx = free_head_;
      free_head_ = slots_[idx].next_free;
    } else {
      idx = static_cast<std::uint32_t>(slots_.size());
      slots_.emplace_back();
    }
    Slot& s = slots_[idx];
    s.cb = std::move(cb);
    s.next_free = kNil;
    heap_.emplace_back();  // opens the hole sift_up fills
    sift_up(static_cast<std::uint32_t>(heap_.size()) - 1, HeapEntry{key, idx});
    return Id{idx, s.gen};
  }

  std::uint64_t reserve_seq() { return next_seq_++; }

  void cancel(Id id) {
    if (!is_pending(id)) return;
    remove_heap_entry(slots_[id.slot_].heap_pos);
  }

  bool is_pending(Id id) const {
    if (!id.valid() || id.slot_ >= slots_.size()) return false;
    const Slot& s = slots_[id.slot_];
    return s.gen == id.gen_ && s.heap_pos != kNil;
  }

  bool empty() const { return heap_.empty(); }
  std::size_t size() const { return heap_.size(); }

  SimTime next_time() const {
    assert(!heap_.empty());
    return SimTime::nanos(heap_[0].key.at);
  }

  Popped pop() {
    assert(!heap_.empty());
    const std::uint32_t idx = heap_[0].slot;
    Popped out{SimTime::nanos(heap_[0].key.at), std::move(slots_[idx].cb)};
    const HeapEntry tail = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) sift_down(0, tail);
    release_slot(idx);
    return out;
  }

  void clear() {
    for (const HeapEntry& e : heap_) release_slot(e.slot);
    heap_.clear();
    next_seq_ = 1;
  }

 private:
  static constexpr std::uint32_t kNil = 0xffff'ffff;

  struct Slot {
    Callback cb;
    std::uint32_t gen = 0;          // bumped on release; stale-id detector
    std::uint32_t heap_pos = kNil;  // position in heap_, kNil when free
    std::uint32_t next_free = kNil;
  };

  struct HeapEntry {
    EventKey key;
    std::uint32_t slot;
  };
  static bool before(const HeapEntry& x, const HeapEntry& y) {
    if (x.key.at != y.key.at) return x.key.at < y.key.at;
    if (x.key.lag != y.key.lag) return x.key.lag > y.key.lag;
    return x.key.seq < y.key.seq;
  }

  // 4-ary layout: children of position p are 4p+1 .. 4p+4, parent is
  // (p-1)/4. Sifting moves a hole; the displaced entry is written once.
  void place(std::uint32_t pos, const HeapEntry& e) {
    heap_[pos] = e;
    slots_[e.slot].heap_pos = pos;
  }

  void sift_up(std::uint32_t pos, HeapEntry e) {
    while (pos != 0) {
      const std::uint32_t parent = (pos - 1) / 4;
      if (!before(e, heap_[parent])) break;
      place(pos, heap_[parent]);
      pos = parent;
    }
    place(pos, e);
  }

  void sift_down(std::uint32_t pos, HeapEntry e) {
    const auto n = static_cast<std::uint32_t>(heap_.size());
    while (true) {
      const std::uint32_t first_child = 4 * pos + 1;
      if (first_child >= n) break;
      std::uint32_t best = first_child;
      const std::uint32_t end = std::min(first_child + 4, n);
      for (std::uint32_t c = first_child + 1; c < end; ++c) {
        if (before(heap_[c], heap_[best])) best = c;
      }
      if (!before(heap_[best], e)) break;
      place(pos, heap_[best]);
      pos = best;
    }
    place(pos, e);
  }

  void remove_heap_entry(std::uint32_t pos) {
    const std::uint32_t idx = heap_[pos].slot;
    const HeapEntry tail = heap_.back();
    heap_.pop_back();
    if (pos < heap_.size()) {
      // The tail entry may order either way relative to its new
      // neighborhood: sift down, and up if it did not move.
      sift_down(pos, tail);
      if (slots_[tail.slot].heap_pos == pos) sift_up(pos, tail);
    }
    release_slot(idx);
  }

  void release_slot(std::uint32_t idx) {
    Slot& s = slots_[idx];
    s.cb.reset();
    ++s.gen;
    s.heap_pos = kNil;
    s.next_free = free_head_;
    free_head_ = idx;
  }

  std::vector<Slot> slots_;
  std::vector<HeapEntry> heap_;  // 4-ary min-heap on the key
  std::uint32_t free_head_ = kNil;
  std::uint64_t next_seq_ = 1;
};

}  // namespace trim::sim
