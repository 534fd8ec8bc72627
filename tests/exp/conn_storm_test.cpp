// Connection-storm scenario: validation, clean-storm drain, graceful
// backlog degradation, port exhaustion, determinism across runs, and the
// scheduler-backend / shard-count axes.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "exp/connection_storm_scenario.hpp"
#include "sim/config_error.hpp"

namespace trim::exp {
namespace {

// The storm's promise is "zero invariant violations"; make sure the
// checker actually runs in release builds too. Runs before main(), which
// is before invariants_enabled() caches the environment.
const bool kInvariantsForced = [] {
  setenv("TRIM_CHECK_INVARIANTS", "1", 1);
  return true;
}();

ConnectionStormConfig quick_config() {
  ConnectionStormConfig cfg;
  cfg.num_switches = 2;
  cfg.clients_per_switch = 4;
  cfg.connections_total = 60;
  cfg.arrival_rate_cps = 3000.0;
  cfg.request_bytes = 5 * 1460ull;
  cfg.run_until = sim::SimTime::seconds(2.0);
  cfg.seed = 23;
  return cfg;
}

TEST(ConnectionStorm, ValidationRejectsBadKnobsWithContext) {
  {
    ConnectionStormConfig cfg = quick_config();
    cfg.arrival_rate_cps = 0.0;
    try {
      validate(cfg);
      FAIL() << "expected ConfigError";
    } catch (const ConfigError& e) {
      EXPECT_EQ(e.where(), "ConnectionStormConfig::arrival_rate_cps");
    }
  }
  {
    ConnectionStormConfig cfg = quick_config();
    cfg.backlog.depth = 0;
    try {
      validate(cfg);
      FAIL() << "expected ConfigError";
    } catch (const ConfigError& e) {
      EXPECT_EQ(e.where(), "ListenQueueConfig::depth");
    }
  }
  {
    ConnectionStormConfig cfg = quick_config();
    cfg.ports.port_lo = 100;
    cfg.ports.port_hi = 50;
    EXPECT_THROW(validate(cfg), ConfigError);
  }
  {
    ConnectionStormConfig cfg = quick_config();
    cfg.lifecycle.retx_rto_initial = sim::SimTime::zero();
    EXPECT_THROW(validate(cfg), ConfigError);
  }
  {
    ConnectionStormConfig cfg = quick_config();
    cfg.connections_total = 0;
    EXPECT_THROW(validate(cfg), ConfigError);
  }
}

TEST(ConnectionStorm, CleanStormEstablishesAndDrainsEveryConnection) {
  const auto r = run_connection_storm(quick_config());
  EXPECT_EQ(r.connections_attempted, 60u);
  EXPECT_EQ(r.connections_established, 60u);
  EXPECT_EQ(r.graceful_closes, 60u);
  EXPECT_EQ(r.aborted_closes, 0u);
  EXPECT_EQ(r.stuck_connections, 0u);
  EXPECT_EQ(r.no_port_skips, 0u);
  EXPECT_EQ(r.invariant_violations, 0u);
  EXPECT_GT(r.invariant_checkpoints, 0u);
  // Every established connection contributed one setup-latency sample,
  // each at least the two-way propagation of the edge path.
  ASSERT_EQ(r.setup_latency_s.size(), 60u);
  for (double s : r.setup_latency_s) EXPECT_GT(s, 0.0);
  // A clean network: no SYN went missing, nothing was reset.
  EXPECT_EQ(r.syn_retx, 0u);
  EXPECT_EQ(r.rst_sent, 0u);
  EXPECT_EQ(r.backlog.overflow_drops, 0u);
  EXPECT_EQ(r.backlog.overflow_rsts, 0u);
  EXPECT_EQ(r.backlog.syn_seen, 60u);
  EXPECT_EQ(r.backlog.accepted, 60u);
}

TEST(ConnectionStorm, TinyBacklogDegradesGracefullyUnderDropPolicy) {
  ConnectionStormConfig cfg = quick_config();
  cfg.connections_total = 120;
  cfg.arrival_rate_cps = 60000.0;  // slam the backlog
  cfg.backlog.depth = 2;
  cfg.backlog.overflow = tcp::ListenQueueConfig::OverflowPolicy::kDrop;
  // Quick SYN retries (client backoff capped at 200 ms) so every
  // queue-refused client either squeezes in or gives up well before the
  // drain deadline.
  cfg.min_rto = sim::SimTime::millis(50);
  cfg.max_rto = sim::SimTime::millis(200);
  cfg.lifecycle.retx_rto_initial = sim::SimTime::millis(50);
  cfg.lifecycle.retx_rto_max = sim::SimTime::millis(400);
  cfg.lifecycle.time_wait = sim::SimTime::millis(100);
  cfg.run_until = sim::SimTime::seconds(4.0);
  const auto r = run_connection_storm(cfg);
  // Overflowed SYNs were silently dropped; the clients' SYN
  // retransmissions retried the queue, so connections still complete.
  EXPECT_GT(r.backlog.overflow_drops, 0u);
  EXPECT_GT(r.syn_retx, 0u);
  EXPECT_EQ(r.stuck_connections, 0u);
  EXPECT_EQ(r.invariant_violations, 0u);
  EXPECT_LE(r.backlog.peak_occupancy, 2);
  // Drop policy never refuses with RST.
  EXPECT_EQ(r.backlog.overflow_rsts, 0u);
}

TEST(ConnectionStorm, TinyBacklogRefusesFastUnderRstPolicy) {
  ConnectionStormConfig cfg = quick_config();
  cfg.connections_total = 120;
  cfg.arrival_rate_cps = 60000.0;
  cfg.backlog.depth = 2;
  cfg.backlog.overflow = tcp::ListenQueueConfig::OverflowPolicy::kRst;
  const auto r = run_connection_storm(cfg);
  EXPECT_GT(r.backlog.overflow_rsts, 0u);
  EXPECT_GT(r.aborted_closes, 0u);  // refused clients fail fast
  EXPECT_EQ(r.stuck_connections, 0u);
  EXPECT_EQ(r.invariant_violations, 0u);
  // Refused + served must cover every attempt that got a port.
  EXPECT_EQ(r.graceful_closes + r.aborted_closes, r.connections_attempted);
}

TEST(ConnectionStorm, TinyPortRangeHitsExhaustion) {
  ConnectionStormConfig cfg = quick_config();
  cfg.num_switches = 1;
  cfg.clients_per_switch = 1;  // one client concentrates the port pressure
  cfg.connections_total = 40;
  cfg.arrival_rate_cps = 50000.0;
  cfg.ports.port_lo = 40000;
  cfg.ports.port_hi = 40003;  // 4 ports
  const auto r = run_connection_storm(cfg);
  EXPECT_GT(r.no_port_skips, 0u);
  EXPECT_GT(r.ports.failed_allocations, 0u);
  EXPECT_GT(r.ports.exhaustion_episodes, 0u);
  EXPECT_EQ(r.stuck_connections, 0u);
  EXPECT_EQ(r.invariant_violations, 0u);
  EXPECT_EQ(r.connections_attempted + r.no_port_skips, 40u);
}

TEST(ConnectionStorm, LossyHandshakesRetransmitAndStillDrain) {
  ConnectionStormConfig cfg = quick_config();
  cfg.connections_total = 40;
  cfg.bottleneck_fault.ctrl_loss_probability = 0.3;  // SYN/FIN/RST only
  cfg.bottleneck_fault.seed = 99;
  cfg.min_rto = sim::SimTime::millis(50);
  cfg.max_rto = sim::SimTime::millis(200);
  cfg.lifecycle.retx_rto_initial = sim::SimTime::millis(50);
  cfg.lifecycle.retx_rto_max = sim::SimTime::millis(200);
  cfg.lifecycle.time_wait = sim::SimTime::millis(100);
  cfg.run_until = sim::SimTime::seconds(3.0);
  const auto r = run_connection_storm(cfg);
  EXPECT_GT(r.bottleneck_faults.ctrl_losses, 0u);
  EXPECT_GT(r.syn_retx + r.fin_retx, 0u);
  EXPECT_EQ(r.stuck_connections, 0u);
  EXPECT_EQ(r.invariant_violations, 0u);
}

// A deadline set before the storm can possibly drain: every unfinished
// connection is reported stuck, one invariant violation each, instead of
// silently looking like a passing run.
TEST(ConnectionStorm, DrainDeadlineReportsStuckConnections) {
  ConnectionStormConfig cfg = quick_config();
  cfg.run_until = sim::SimTime::millis(12);  // arrivals alone outlast this
  const auto r = run_connection_storm(cfg);
  EXPECT_GT(r.stuck_connections, 0u);
  EXPECT_EQ(r.invariant_violations, r.stuck_connections);
  EXPECT_LT(r.graceful_closes, r.connections_attempted);
}

// Same seed => identical storm, down to per-connection setup latencies.
TEST(ConnectionStorm, DeterministicForFixedSeed) {
  ConnectionStormConfig cfg = quick_config();
  cfg.bottleneck_fault.ctrl_loss_probability = 0.2;
  cfg.bottleneck_fault.seed = 7;
  cfg.min_rto = sim::SimTime::millis(50);
  cfg.max_rto = sim::SimTime::millis(200);
  cfg.lifecycle.retx_rto_initial = sim::SimTime::millis(50);
  cfg.lifecycle.retx_rto_max = sim::SimTime::millis(200);
  cfg.lifecycle.time_wait = sim::SimTime::millis(100);
  cfg.run_until = sim::SimTime::seconds(3.0);
  const auto a = run_connection_storm(cfg);
  const auto b = run_connection_storm(cfg);
  EXPECT_EQ(a.stuck_connections, 0u);
  EXPECT_EQ(a.connections_established, b.connections_established);
  EXPECT_EQ(a.graceful_closes, b.graceful_closes);
  EXPECT_EQ(a.syn_retx, b.syn_retx);
  EXPECT_EQ(a.rst_sent, b.rst_sent);
  EXPECT_EQ(a.setup_latency_s, b.setup_latency_s);
}

// The storm is built on the control shard and never partitioned, so any
// shard count must take the exact serial path. The width is set through
// the config: TRIM_SHARDS is read once per process, so setting it here
// would not reach the engine. (The name dates from when a second
// scheduler backend existed; the wheel is now the only one.)
TEST(ConnectionStorm, IdenticalAcrossSchedulerBackendsAndShardCounts) {
  ConnectionStormConfig cfg = quick_config();
  cfg.connections_total = 30;
  cfg.bottleneck_fault.ctrl_loss_probability = 0.2;
  cfg.bottleneck_fault.seed = 7;

  std::vector<std::vector<double>> latencies;
  std::vector<std::uint64_t> retx;
  for (const int shards : {1, 4}) {
    cfg.shards = shards;
    const auto r = run_connection_storm(cfg);
    EXPECT_EQ(r.stuck_connections, 0u) << shards << " shards";
    latencies.push_back(r.setup_latency_s);
    retx.push_back(r.syn_retx);
  }
  EXPECT_FALSE(latencies[0].empty());
  EXPECT_EQ(latencies[1], latencies[0]);
  EXPECT_EQ(retx[1], retx[0]);
}

}  // namespace
}  // namespace trim::exp
