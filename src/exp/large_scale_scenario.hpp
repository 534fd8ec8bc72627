// Large-scale two-tier concurrency test (Fig. 8): 5..25 ToR switches with
// 42 servers each (210..1050 servers). Per ToR, two servers run long
// trains for the whole test; the remaining 40 each send one packet train
// at a random offset inside a 0.5 s window (uniform or exponential
// spacing), sized from the Fig. 2(a) distribution. All traffic targets the
// single front-end. RTO = 20 ms. Metric: ACT of the short trains.
#pragma once

#include <cstdint>
#include <vector>

#include "obs/telemetry.hpp"
#include "sim/time.hpp"
#include "tcp/tcp_common.hpp"

namespace trim::exp {

enum class SptSpacing { kUniform, kExponential };

struct LargeScaleConfig {
  tcp::Protocol protocol = tcp::Protocol::kReno;
  int num_switches = 5;        // paper sweeps 5..25
  int servers_per_switch = 42;
  int lpt_servers_per_switch = 2;
  SptSpacing spacing = SptSpacing::kUniform;
  sim::SimTime spt_window = sim::SimTime::seconds(0.5);
  sim::SimTime min_rto = sim::SimTime::millis(20);  // paper: 20 ms here
  sim::SimTime drain = sim::SimTime::seconds(0.7);  // extra time to finish
  std::uint64_t seed = 1;
  // Kept only for the frozen benchmark driver (perfbench/), which sets it
  // to 1. The engine is serial: 0 and 1 run it, any larger value throws
  // ConfigError.
  int shards = 0;
};

struct LargeScaleResult {
  double spt_act_ms = 0.0;
  double spt_max_ms = 0.0;
  int completed_spts = 0;
  int total_spts = 0;
  std::uint64_t spt_timeouts = 0;
  std::uint64_t drops = 0;

  // Events the simulator dispatched (the memory bench's events/s).
  std::uint64_t events_dispatched = 0;

  // Deterministic run telemetry (metrics + event counts).
  obs::TelemetrySnapshot telemetry;
};

LargeScaleResult run_large_scale(const LargeScaleConfig& cfg);

// Batch variant: independent runs fan out across REPRO_JOBS workers (see
// exp/parallel_runner.hpp); results come back in submission order, so the
// output is bit-identical to a serial loop over the configs.
std::vector<LargeScaleResult> run_large_scale_batch(
    const std::vector<LargeScaleConfig>& cfgs);

}  // namespace trim::exp
