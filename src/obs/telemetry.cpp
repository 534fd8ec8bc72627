#include "obs/telemetry.hpp"

#include <cstdlib>
#include <cstring>

#include "obs/trace_export.hpp"

namespace trim::obs {

Telemetry::Telemetry() {
  core_.segments_sent = registry_.counter("tcp.segments_sent");
  core_.acks_processed = registry_.counter("tcp.acks_processed");
  core_.queue_drops = registry_.counter("queue.drops");
  core_.probe_rtt_us = registry_.histogram("trim.probe_rtt_us", 0.0, 5000.0, 50);
  core_.eq3_ep = registry_.histogram("trim.eq3_ep", 0.0, 1.0, 20);
  if (env_detectors_enabled()) enable_detectors();
}

Telemetry::~Telemetry() = default;

void Telemetry::attach(sim::Simulator& sim) {
  sim.set_telemetry(this);
  const std::size_t capacity = env_recorder_capacity();
  if (capacity > 0 && !recorder_.ring_enabled()) recorder_.enable(capacity);
  if (trace_enabled()) {
    enable_tracer();
    // Tracing implies the ring: the trace file carries the event lines
    // alongside the spans, and a causal trace without its events is thin.
    if (!recorder_.ring_enabled()) recorder_.enable(65536);
  }
}

void Telemetry::enable_detectors() {
  if (detectors_enabled_) return;
  detectors_enabled_ = true;
  staged_.reserve(256);
  sink_mask_ |= DetectorSet::kind_mask();
}

void Telemetry::enable_tracer(std::size_t max_spans) {
  if (tracer_) return;
  tracer_ = std::make_unique<SpanTracer>(max_spans);
  sink_mask_ |= SpanTracer::kind_mask();
}

void Telemetry::dispatch_sinks(sim::SimTime at, EventKind kind,
                               std::uint32_t subject, double a, double b) {
  const RecordedEvent e{at, kind, subject, a, b};
  const std::uint64_t bit = kind_bit(kind);
  if (detectors_enabled_ && (bit & DetectorSet::kind_mask()) != 0) {
    if (staged_.size() < kMaxStaged) {
      staged_.push_back(e);
    } else {
      ++staged_dropped_;
    }
  }
  if (tracer_ && (bit & SpanTracer::kind_mask()) != 0) {
    tracer_->on_event(e);
  }
}

TelemetrySnapshot Telemetry::snapshot() const {
  TelemetrySnapshot snap{registry_.snapshot(), recorder_.counts(), {}, {}};
  if (detectors_enabled_) {
    snap.episodes = diagnose_episodes(staged_, last_event_at_);
  }
  if (tracer_) {
    snap.spans = tracer_->stats();
  }
  return snap;
}

std::size_t env_recorder_capacity() {
  const char* env = std::getenv("TRIM_TELEMETRY");
  if (env == nullptr || env[0] == '\0') return 0;
  char* end = nullptr;
  const long v = std::strtol(env, &end, 10);
  if (end == env || v <= 0) return 0;
  // "1" means "on" (default-sized ring); larger values set the capacity.
  return v == 1 ? 8192 : static_cast<std::size_t>(v);
}

bool env_detectors_enabled() {
  const char* env = std::getenv("TRIM_DETECTORS");
  return env == nullptr || std::strcmp(env, "0") != 0;
}

}  // namespace trim::obs
