#include "net/queue.hpp"

#include "obs/telemetry.hpp"

namespace trim::net {

bool Queue::enqueue(Packet p) {
  if (!has_room(p)) {
    drop(p);
    return false;
  }
  // DCTCP instantaneous marking: compare occupancy *at arrival* against K.
  if (cfg_.ecn_enabled() && p.ecn == EcnCodepoint::kEct) {
    const bool over_pkts = cfg_.ecn_threshold_packets != 0 &&
                           fifo_.size() >= cfg_.ecn_threshold_packets;
    const bool over_bytes = cfg_.ecn_threshold_bytes != 0 &&
                            bytes_ + p.size_bytes() > cfg_.ecn_threshold_bytes;
    if (over_pkts || over_bytes) {
      p.ecn = EcnCodepoint::kCe;
      ++stats_.marked_ce;
    }
  }
  push_back(std::move(p));
  return true;
}

bool Queue::dequeue_into(Packet& out) {
  if (fifo_.empty()) return false;
  out = std::move(fifo_.front());
  fifo_.pop_front();
  bytes_ -= out.size_bytes();
  ++stats_.dequeued;
  record_occupancy();
  return true;
}

bool Queue::has_room(const Packet& p) const {
  if (cfg_.capacity_packets != 0 && fifo_.size() >= cfg_.capacity_packets) return false;
  if (cfg_.capacity_bytes != 0 && bytes_ + p.size_bytes() > cfg_.capacity_bytes) return false;
  return true;
}

void Queue::push_back(Packet p) {
  bytes_ += p.size_bytes();
  ++stats_.enqueued;
  fifo_.push_back(std::move(p));
  record_occupancy();
  if (clock_ != nullptr) {
    // An accepted packet ends any running drop episode: the episode is the
    // maximal run of rejections with no accept in between.
    if (in_drop_episode_) {
      in_drop_episode_ = false;
      obs::emit(clock_, obs::EventKind::kQueueDropEpisodeEnd, obs_subject_,
                static_cast<double>(episode_drops_),
                (clock_->now() - episode_start_).to_seconds());
    }
    if (fifo_.size() > hwm_packets_) {
      hwm_packets_ = fifo_.size();
      obs::emit(clock_, obs::EventKind::kQueueHighWatermark, obs_subject_,
                static_cast<double>(fifo_.size()), static_cast<double>(bytes_));
    }
  }
}

void Queue::drop(const Packet& p) {
  ++stats_.dropped;
  stats_.bytes_dropped += p.size_bytes();
  if (clock_ != nullptr) {
    if (auto* t = obs::telemetry_of(clock_)) t->core().queue_drops->inc();
    if (!in_drop_episode_) {
      in_drop_episode_ = true;
      episode_drops_ = 0;
      episode_start_ = clock_->now();
      obs::emit(clock_, obs::EventKind::kQueueDropEpisodeStart, obs_subject_,
                static_cast<double>(fifo_.size()), static_cast<double>(bytes_));
    }
    ++episode_drops_;
  }
  record_occupancy();
}

void Queue::record_occupancy() {
  if (trace_ != nullptr && clock_ != nullptr) {
    trace_->record(clock_->now(), static_cast<double>(fifo_.size()));
  }
}

}  // namespace trim::net
