// Types the calendar-queue scheduler (sim/calendar_queue.hpp) hands out:
// the EventId handle — (slot, generation) into the queue's slot pool — and
// the popped (time, callback) pair.
#pragma once

#include <cstdint>

#include "sim/inline_callback.hpp"
#include "sim/time.hpp"

namespace trim::sim {

class CalendarQueue;

// Opaque handle to a scheduled event; used to cancel timers. Stale handles
// (event already fired or cancelled) are harmless.
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

// The next event, popped off the scheduler.
struct PoppedEvent {
  SimTime at;
  InlineCallback cb;
};

}  // namespace trim::sim
