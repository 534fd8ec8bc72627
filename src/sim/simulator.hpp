// The discrete-event simulator: a clock plus an event queue (the
// calendar-queue timing wheel, sim/calendar_queue.hpp).
//
// Every component in the system (links, queues, TCP agents, applications)
// holds a Simulator* and schedules callbacks on it. One Simulator instance
// owns one independent simulated world; experiments create a fresh
// Simulator per run so repetitions are isolated.
#pragma once

#include <cassert>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "sim/calendar_queue.hpp"
#include "sim/time.hpp"

namespace trim::obs {
class Telemetry;  // obs/telemetry.hpp; trim_sim must not depend on trim_obs
}

namespace trim::mem {
struct SimMemory;  // mem/sim_memory.hpp; trim_sim must not depend on trim_mem
}

namespace trim::sim {

// A fused event takes its key from a phantom: an event at time t that is
// never pushed (net::Link's tx-done on an idle wire), whose child is pushed
// early under (child time, pushed at t, the phantom's sequence). Against a
// fresh key drawn at another time, or against another phantom's child, that
// key orders exactly as the two-event path would. One case differs: a fresh
// key drawn at t with the child's lag, by an event that runs before the
// phantom. On the two-event path the phantom had not pushed its child yet,
// so the fresh key goes first; the borrowed key would put the child first.
// The simulator reports every fresh key drawn with a watched lag to the
// owners watching it; an owner whose phantom is at now and has not run
// re-keys its child with a fresh key when the phantom's time comes.
class PhantomOwner {
 public:
  virtual void on_phantom_tie() = 0;

 protected:
  ~PhantomOwner() = default;

 private:
  friend class Simulator;
  std::size_t watch_slot_ = 0;  // index in the watch's owner list
};

class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  SimTime now() const { return now_; }

  // Schedule `f` (a void() callable or a Callback) to run `delay` after
  // now. Negative delays are clamped to zero (run "immediately", after
  // already-pending events at `now`). The callable is constructed directly
  // in the scheduler's slot. The event's key is draw_key(now + delay):
  // equal-time events run in the order they were pushed.
  template <typename F>
  EventId schedule(SimTime delay, F&& f) {
    if (delay < SimTime::zero()) delay = SimTime::zero();
    return queue_.push(draw_key(now_ + delay), std::forward<F>(f));
  }
  template <typename F>
  EventId schedule_at(SimTime at, F&& f) {
    if (at < now_) at = now_;
    return queue_.push(draw_key(at), std::forward<F>(f));
  }

  // The key a push at `at` (>= now) made now gets: pushed now, under the
  // next sequence. Drawing it without pushing reserves that place among
  // equal-time events for a later keyed push (a phantom's key). Owners
  // watching the key's lag hear of the draw (PhantomOwner).
  EventKey draw_key(SimTime at) {
    const EventKey key = EventKey::make(at, now_, queue_.reserve_seq());
    for (const LagWatch& w : watches_) {
      if (w.lag == key.lag) {
        for (PhantomOwner* o : w.owners) o->on_phantom_tie();
        break;
      }
    }
    return key;
  }
  // Schedule `f` under a key drawn earlier, or borrowed from a phantom: at
  // `at` (>= now), as if pushed at `logical_push_time` (<= at) under
  // sequence `seq`. A link arrival keyed by the tx-done that would have
  // pushed it runs exactly where that tx-done's push would have put it.
  template <typename F>
  EventId schedule_keyed(SimTime at, SimTime logical_push_time,
                         std::uint64_t seq, F&& f) {
    assert(logical_push_time <= at);
    return schedule_keyed(EventKey::make(at, logical_push_time, seq),
                          std::forward<F>(f));
  }
  template <typename F>
  EventId schedule_keyed(const EventKey& key, F&& f) {
    assert(!(key < running_) && "keyed push before the running event");
    return queue_.push(key, std::forward<F>(f));
  }
  // Move a pending event to `key`; returns its new id.
  EventId rekey(EventId id, const EventKey& key) { return queue_.rekey(id, key); }
  // Report every key drawn with lag `lag` to `owner` (see PhantomOwner)
  // until unwatched.
  void watch_lag(SimTime lag, PhantomOwner* owner);
  void unwatch_lag(SimTime lag, PhantomOwner* owner);

  void cancel(EventId id) { queue_.cancel(id); }
  std::optional<SimTime> pending_time(EventId id) const {
    return queue_.pending_time(id);
  }

  // The key of the event being dispatched. Between runs it is (now, a zero
  // lag, the largest sequence): every event at or before now has run. An
  // event with key k has already run (or is running) iff !(running_key() < k).
  const EventKey& running_key() const { return running_; }

  // Run until the queue drains or `until` is reached (whichever is first).
  // Events scheduled exactly at `until` are executed. Returns the number of
  // events dispatched. If a callback throws, the exception propagates; the
  // events dispatched so far, the throwing one included, still count in
  // events_dispatched() and run_wall_ns(), and the simulator stays usable.
  std::uint64_t run();
  std::uint64_t run_until(SimTime until);

  // Discard all pending events (used by tests).
  void reset();

  std::uint64_t events_dispatched() const { return dispatched_; }
  std::size_t pending_events() const { return queue_.size(); }
  // The scheduler's always-on work counters (pushes, bucket inserts,
  // ready-run refills); reset() zeroes them. Reserved sequences are not
  // pushes.
  CalendarQueue::Stats scheduler_stats() const { return queue_.stats(); }

  // The telemetry bundle observing this world, or nullptr (the default —
  // bare Simulators in unit tests carry no telemetry and every emit site
  // degrades to a pointer test). Set via obs::Telemetry::attach; the
  // pointer is opaque here so trim_sim stays free of trim_obs.
  obs::Telemetry* telemetry() const { return telemetry_; }
  void set_telemetry(obs::Telemetry* telemetry) { telemetry_ = telemetry; }

  // The memory domain (arena + SoA hot-state table) backing this world's
  // flows, or nullptr for bare simulators that never build flows. Set via
  // mem::SimMemory::attach; opaque here so trim_sim stays free of trim_mem.
  mem::SimMemory* memory() const { return memory_; }
  void set_memory(mem::SimMemory* memory) { memory_ = memory; }

  // Wall-clock nanoseconds spent inside run()/run_until() so far. Feeds
  // the "profile" section of run reports; never read by the simulation
  // itself, so determinism is unaffected.
  std::uint64_t run_wall_ns() const { return run_wall_ns_; }

 private:
  static constexpr EventKey idle_key(SimTime now) {
    return EventKey{now.ns(), 0, ~std::uint64_t{0}};
  }

  struct LagWatch {
    std::uint32_t lag;
    std::vector<PhantomOwner*> owners;
  };

  CalendarQueue queue_;
  SimTime now_;
  EventKey running_ = idle_key(SimTime::zero());
  std::vector<LagWatch> watches_;  // a few distinct lags (link delays)
  std::uint64_t dispatched_ = 0;
  obs::Telemetry* telemetry_ = nullptr;
  mem::SimMemory* memory_ = nullptr;
  std::uint64_t run_wall_ns_ = 0;
};

}  // namespace trim::sim
