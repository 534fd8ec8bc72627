// Test-side dispatch over either scheduler. The calendar wheel claims the
// next event with take_until(), runs its callback in place and retires it
// (the same steps as Simulator::run_until); the reference heap pops it.
#pragma once

#include <gtest/gtest.h>

#include "sim/calendar_queue.hpp"
#include "sim/reference_heap.hpp"
#include "sim/time.hpp"

namespace trim::sim {

// Run the next event due at or before `until`, after setting `now` to its
// time. Returns false, leaving `now` alone, when no event is due.
inline bool dispatch_until(CalendarQueue& q, SimTime until, SimTime& now) {
  const CalendarQueue::Taken ev = q.take_until(until);
  if (!ev) return false;
  now = ev.at;
  (*ev.cb)();
  q.retire(ev);
  return true;
}

inline bool dispatch_until(ReferenceHeap& q, SimTime until, SimTime& now) {
  if (q.empty() || q.next_time() > until) return false;
  auto [at, cb] = q.pop();
  now = at;
  cb();
  return true;
}

// Run the next event of a non-empty queue; returns its time.
template <typename Queue>
SimTime dispatch_next(Queue& q) {
  SimTime at;
  EXPECT_TRUE(dispatch_until(q, SimTime::max(), at));
  return at;
}

}  // namespace trim::sim
