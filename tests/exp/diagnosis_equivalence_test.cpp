// The diagnosis layer on one storm config: the storm is diagnosed with
// sane episode bounds and its spans are traced, and switching the
// detectors off changes the episodes but nothing the simulation produced.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <string>

#include "exp/connection_storm_scenario.hpp"
#include "obs/diagnosis.hpp"
#include "obs/span_tracer.hpp"

namespace trim::exp {
namespace {

// An RST-policy backlog storm: hot enough to saturate the tiny backlog
// (backlog_saturation episodes guaranteed) while still draining fully.
ConnectionStormConfig storm_config() {
  ConnectionStormConfig cfg;
  cfg.num_switches = 2;
  cfg.clients_per_switch = 4;
  cfg.connections_total = 120;
  cfg.arrival_rate_cps = 60000.0;
  cfg.request_bytes = 5 * 1460ull;
  cfg.backlog.depth = 2;
  cfg.backlog.overflow = tcp::ListenQueueConfig::OverflowPolicy::kRst;
  cfg.run_until = sim::SimTime::seconds(2.0);
  cfg.seed = 23;
  return cfg;
}

TEST(DiagnosisEquivalence, StormIsDiagnosedAndTraced) {
  // Route the trace files somewhere disposable; TRIM_TRACE also enables
  // the span tracer, whose stats ride in the telemetry snapshot.
  char tmpl[] = "/tmp/trim_diag_equiv_XXXXXX";
  ASSERT_NE(mkdtemp(tmpl), nullptr);
  setenv("TRIM_TRACE", tmpl, 1);
  setenv("TRIM_DETECTORS", "1", 1);
  const auto r = run_connection_storm(storm_config());
  unsetenv("TRIM_TRACE");
  unsetenv("TRIM_DETECTORS");
  EXPECT_EQ(r.stuck_connections, 0u);
  EXPECT_GT(r.backlog.overflow_rsts, 0u);

  // The storm must actually be diagnosed, with sane bounds.
  const auto& snap = r.telemetry;
  std::size_t backlog_episodes = 0;
  for (const auto& e : snap.episodes) {
    EXPECT_LE(e.start, e.end);
    EXPECT_GT(e.events, 0u);
    EXPECT_GT(e.flows, 0u);
    if (e.kind == obs::DetectorKind::kBacklogSaturation) ++backlog_episodes;
  }
  ASSERT_GE(backlog_episodes, 1u);

  // Spans were traced (TRIM_TRACE was on) and completed.
  EXPECT_GT(snap.spans.total(), 0u);
  EXPECT_GT(snap.spans.completed, 0u);
  EXPECT_EQ(snap.spans.dropped, 0u);

  // Best-effort scratch cleanup; TRACE file names carry a process-wide
  // sequence number, so glob by prefix instead of reconstructing them.
  std::string cmd = "rm -rf ";
  cmd += tmpl;
  std::system(cmd.c_str());
}

TEST(DiagnosisEquivalence, DetectorsOffLeavesResultsIdentical) {
  // TRIM_DETECTORS=0 must not change the simulation, only the episodes.
  const ConnectionStormConfig cfg = storm_config();

  setenv("TRIM_DETECTORS", "1", 1);
  const auto with = run_connection_storm(cfg);
  setenv("TRIM_DETECTORS", "0", 1);
  const auto without = run_connection_storm(cfg);
  unsetenv("TRIM_DETECTORS");

  EXPECT_FALSE(with.telemetry.episodes.empty());
  EXPECT_TRUE(without.telemetry.episodes.empty());
  EXPECT_EQ(with.setup_latency_s, without.setup_latency_s);
  EXPECT_EQ(with.graceful_closes, without.graceful_closes);
  EXPECT_EQ(with.aborted_closes, without.aborted_closes);
  EXPECT_EQ(with.backlog.overflow_rsts, without.backlog.overflow_rsts);
  EXPECT_EQ(with.syn_retx, without.syn_retx);
  EXPECT_EQ(with.telemetry.events.by_kind, without.telemetry.events.by_kind);
}

}  // namespace
}  // namespace trim::exp
