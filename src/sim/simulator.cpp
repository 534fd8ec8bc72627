#include "sim/simulator.hpp"

#include <chrono>

namespace trim::sim {

std::uint64_t Simulator::run() { return run_until(SimTime::max()); }

std::uint64_t Simulator::run_until(SimTime until) {
  // Commits the event count and wall time on every exit, a callback's
  // throw included. Two clock reads per invocation (not per event): cheap
  // enough to stay always-on, and the value only ever feeds profiling.
  struct Ledger {
    Simulator& sim;
    std::chrono::steady_clock::time_point start;
    std::uint64_t n = 0;
    ~Ledger() {
      sim.running_ = idle_key(sim.now_);
      sim.dispatched_ += n;
      sim.run_wall_ns_ += static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - start)
              .count());
    }
  } ledger{*this, std::chrono::steady_clock::now()};
  // Retires the claimed slot once its callback returns or throws.
  struct Retire {
    CalendarQueue& queue;
    const CalendarQueue::Taken& ev;
    ~Retire() { queue.retire(ev); }
  };
  while (const CalendarQueue::Taken ev = queue_.take_until(until)) {
    const Retire retire{queue_, ev};
    now_ = ev.at;
    running_ = ev.key();
    ++ledger.n;
    (*ev.cb)();
  }
  if (until != SimTime::max() && now_ < until) now_ = until;
  return ledger.n;
}

void Simulator::watch_lag(SimTime lag, PhantomOwner* owner) {
  const std::uint32_t l = EventKey::make(lag, SimTime::zero(), 0).lag;
  auto w = watches_.begin();
  while (w != watches_.end() && w->lag != l) ++w;
  if (w == watches_.end()) w = watches_.insert(w, {l, {}});
  owner->watch_slot_ = w->owners.size();
  w->owners.push_back(owner);
}

void Simulator::unwatch_lag(SimTime lag, PhantomOwner* owner) {
  const std::uint32_t l = EventKey::make(lag, SimTime::zero(), 0).lag;
  for (auto w = watches_.begin(); w != watches_.end(); ++w) {
    if (w->lag != l) continue;
    // Swap-remove: a whole network's links unwatch in O(1) each.
    PhantomOwner* last = w->owners.back();
    w->owners[owner->watch_slot_] = last;
    last->watch_slot_ = owner->watch_slot_;
    w->owners.pop_back();
    if (w->owners.empty()) watches_.erase(w);
    return;
  }
}

void Simulator::reset() {
  queue_.clear();
  now_ = SimTime::zero();
  running_ = idle_key(now_);
  dispatched_ = 0;
  run_wall_ns_ = 0;
}

}  // namespace trim::sim
