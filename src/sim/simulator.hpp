// The discrete-event simulator: a clock plus an event queue (the
// calendar-queue timing wheel, sim/calendar_queue.hpp).
//
// Every component in the system (links, queues, TCP agents, applications)
// holds a Simulator* and schedules callbacks on it. One Simulator instance
// owns one independent simulated world; experiments create a fresh
// Simulator per run so repetitions are isolated.
#pragma once

#include <cstdint>
#include <utility>

#include "sim/calendar_queue.hpp"
#include "sim/time.hpp"

namespace trim::obs {
class Telemetry;  // obs/telemetry.hpp; trim_sim must not depend on trim_obs
}

namespace trim::mem {
struct SimMemory;  // mem/sim_memory.hpp; trim_sim must not depend on trim_mem
}

namespace trim::sim {

class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  SimTime now() const { return now_; }

  // Schedule `f` (a void() callable or a Callback) to run `delay` after
  // now. Negative delays are clamped to zero (run "immediately", after
  // already-pending events at `now`). The callable is constructed directly
  // in the scheduler's slot.
  template <typename F>
  EventId schedule(SimTime delay, F&& f) {
    if (delay < SimTime::zero()) delay = SimTime::zero();
    return queue_.push(now_ + delay, std::forward<F>(f));
  }
  template <typename F>
  EventId schedule_at(SimTime at, F&& f) {
    if (at < now_) at = now_;
    return queue_.push(at, std::forward<F>(f));
  }
  void cancel(EventId id) { queue_.cancel(id); }

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
  // ready-run refills); reset() zeroes them.
  CalendarQueue::Stats scheduler_stats() const { return queue_.stats(); }

  // Time of the earliest pending event, SimTime::max() when the queue is
  // empty. The sharded engine plans its conservative windows from this.
  SimTime next_event_time() const {
    return queue_.empty() ? SimTime::max() : queue_.next_time();
  }

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
  CalendarQueue queue_;
  SimTime now_;
  std::uint64_t dispatched_ = 0;
  obs::Telemetry* telemetry_ = nullptr;
  mem::SimMemory* memory_ = nullptr;
  std::uint64_t run_wall_ns_ = 0;
};

}  // namespace trim::sim
