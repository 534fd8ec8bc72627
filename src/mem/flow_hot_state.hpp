// Struct-of-arrays storage for the per-ACK hot state of every flow in one
// world.
//
// TcpSender used to keep cwnd / ssthresh / snd_una / snd_next / the RTT
// estimator / the RTO deadline as ordinary members, so the ACK loop and
// the invariant checker chased one heap-allocated virtual object per flow
// to touch ~72 bytes of it. The FlowHotTable keeps those fields in dense
// parallel columns indexed by a per-world slot handed out at sender
// construction: slots are assigned in creation order, so walking flows in
// the order the world built them walks contiguous cache lines, and the
// invariant checker's whole-world sweeps read columns instead of objects.
//
// One table serves one world (it lives in mem::SimMemory, attached to that
// world's Simulator), so two parallel sweep jobs never write the same
// column. Slots are
// recycled through a free list when senders die mid-world (connection
// churn); columns only ever grow, and growth can move the columns, so
// accessors must be re-resolved through the table rather than cached as
// raw pointers across flow creation.
//
// The RTT estimator column stores tcp::RttEstimator by value. That header
// is include-only from here (every member the table touches is inline), so
// trim_mem carries no link dependency on trim_tcp; the layering is
// asserted by mem/layout_audit.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/time.hpp"
#include "tcp/rtt_estimator.hpp"

namespace trim::mem {

// One flow's hot fields, AoS view. for_each_live hands these out by value
// for audits and tests; the live storage is the columns below.
struct FlowHotState {
  double cwnd = 0.0;
  double ssthresh = 0.0;
  std::uint64_t snd_una = 0;
  std::uint64_t snd_next = 0;
  sim::SimTime rto_deadline = sim::SimTime::max();  // max() = timer not armed
};

class FlowHotTable {
 public:
  using Slot = std::uint32_t;

  // Claim a slot for `flow_id`, zero-initialized (cwnd/ssthresh are set by
  // the owning sender right after). Reuses released slots before growing.
  Slot acquire(std::uint32_t flow_id) {
    Slot s;
    if (!free_.empty()) {
      s = free_.back();
      free_.pop_back();
      cwnd_[s] = 0.0;
      ssthresh_[s] = 0.0;
      snd_una_[s] = 0;
      snd_next_[s] = 0;
      rto_deadline_[s] = sim::SimTime::max();
      rtt_[s] = tcp::RttEstimator{};
    } else {
      s = static_cast<Slot>(cwnd_.size());
      cwnd_.push_back(0.0);
      ssthresh_.push_back(0.0);
      snd_una_.push_back(0);
      snd_next_.push_back(0);
      rto_deadline_.push_back(sim::SimTime::max());
      rtt_.emplace_back();
      flow_id_.push_back(0);
      live_.push_back(false);
    }
    flow_id_[s] = flow_id;
    live_[s] = true;
    ++live_count_;
    return s;
  }

  void release(Slot s) {
    live_[s] = false;
    --live_count_;
    free_.push_back(s);
  }

  // ---- per-slot accessors (the sender's hot path) ----
  double& cwnd(Slot s) { return cwnd_[s]; }
  double cwnd(Slot s) const { return cwnd_[s]; }
  double& ssthresh(Slot s) { return ssthresh_[s]; }
  double ssthresh(Slot s) const { return ssthresh_[s]; }
  std::uint64_t& snd_una(Slot s) { return snd_una_[s]; }
  std::uint64_t snd_una(Slot s) const { return snd_una_[s]; }
  std::uint64_t& snd_next(Slot s) { return snd_next_[s]; }
  std::uint64_t snd_next(Slot s) const { return snd_next_[s]; }
  sim::SimTime& rto_deadline(Slot s) { return rto_deadline_[s]; }
  sim::SimTime rto_deadline(Slot s) const { return rto_deadline_[s]; }
  tcp::RttEstimator& rtt(Slot s) { return rtt_[s]; }
  const tcp::RttEstimator& rtt(Slot s) const { return rtt_[s]; }
  std::uint32_t flow_id(Slot s) const { return flow_id_[s]; }

  // ---- dense sweeps (invariant checker, audits) ----
  // Visit every live slot in slot (= creation) order: f(slot, flow_id,
  // FlowHotState). Reads straight down the columns.
  template <typename F>
  void for_each_live(F&& f) const {
    const std::size_t n = cwnd_.size();
    for (std::size_t s = 0; s < n; ++s) {
      if (!live_[s]) continue;
      f(static_cast<Slot>(s), flow_id_[s],
        FlowHotState{cwnd_[s], ssthresh_[s], snd_una_[s], snd_next_[s],
                     rto_deadline_[s]});
    }
  }

  // Column-sweep helper: smallest live cwnd (the invariant checker's
  // cwnd-floor pre-screen reads one dense column instead of n objects).
  double min_live_cwnd() const {
    double m = kNoLiveCwnd;
    const std::size_t n = cwnd_.size();
    for (std::size_t s = 0; s < n; ++s) {
      if (live_[s] && cwnd_[s] < m) m = cwnd_[s];
    }
    return m;
  }
  static constexpr double kNoLiveCwnd = 1e300;

  std::size_t live() const { return live_count_; }
  std::size_t capacity() const { return cwnd_.size(); }

  // Resident column bytes (bench_memory).
  std::size_t state_bytes() const {
    return cwnd_.capacity() * sizeof(double) * 2 +
           snd_una_.capacity() * sizeof(std::uint64_t) * 2 +
           rto_deadline_.capacity() * sizeof(sim::SimTime) +
           rtt_.capacity() * sizeof(tcp::RttEstimator) +
           flow_id_.capacity() * sizeof(std::uint32_t) + live_.capacity();
  }

 private:
  std::vector<double> cwnd_;
  std::vector<double> ssthresh_;
  std::vector<std::uint64_t> snd_una_;
  std::vector<std::uint64_t> snd_next_;
  std::vector<sim::SimTime> rto_deadline_;
  std::vector<tcp::RttEstimator> rtt_;
  std::vector<std::uint32_t> flow_id_;
  std::vector<char> live_;  // not vector<bool>: the sweep wants byte loads
  std::vector<Slot> free_;
  std::size_t live_count_ = 0;
};

}  // namespace trim::mem
