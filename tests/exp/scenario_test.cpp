// End-to-end checks that each experiment scenario reproduces the *paper's
// qualitative result* at reduced scale: who wins and by what kind of
// margin. The full-scale sweeps live in bench/.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "exp/concurrency_scenario.hpp"
#include "exp/convergence_scenario.hpp"
#include "exp/experiment.hpp"
#include "exp/fattree_scenario.hpp"
#include "exp/impairment_scenario.hpp"
#include "exp/large_scale_scenario.hpp"
#include "exp/multihop_scenario.hpp"
#include "exp/properties_scenario.hpp"
#include "exp/testbed_scenario.hpp"

namespace trim::exp {
namespace {

std::uint64_t total(const std::vector<std::uint64_t>& v) {
  std::uint64_t s = 0;
  for (auto x : v) s += x;
  return s;
}

// ---------- Fig. 4 vs Fig. 6 ----------

TEST(ImpairmentScenario, RenoInheritsHugeWindowAndCollapses) {
  ImpairmentConfig cfg;
  cfg.protocol = tcp::Protocol::kReno;
  cfg.seed = 42;
  const auto r = run_impairment(cfg);
  // Paper: inherited windows all exceed 850 packets.
  for (double w : r.cwnd_at_lpt_start) EXPECT_GT(w, 500.0);
  // Paper: most connections hit timeouts; buffer overflows.
  EXPECT_GE(total(r.timeouts_per_conn), 2u);
  EXPECT_GT(r.total_drops, 0u);
  EXPECT_GE(r.queue_trace.max_value(), 100.0);  // buffer slammed full
  EXPECT_TRUE(r.all_completed);
}

TEST(ImpairmentScenario, TrimAvoidsTimeoutsAndKeepsQueueShallow) {
  ImpairmentConfig cfg;
  cfg.protocol = tcp::Protocol::kTrim;
  cfg.seed = 42;
  const auto r = run_impairment(cfg);
  EXPECT_EQ(total(r.timeouts_per_conn), 0u);
  EXPECT_EQ(r.total_drops, 0u);
  // Paper: "the recorded queue length never exceeds 20 packets".
  EXPECT_LE(r.queue_trace.max_value(), 25.0);
  EXPECT_TRUE(r.all_completed);
  // Paper: all LPTs finish before 0.6 s.
  EXPECT_LT(r.last_lpt_completion.to_seconds(), 0.6);
}

TEST(ImpairmentScenario, TrimFinishesLptsMuchEarlierThanReno) {
  ImpairmentConfig reno_cfg, trim_cfg;
  reno_cfg.protocol = tcp::Protocol::kReno;
  trim_cfg.protocol = tcp::Protocol::kTrim;
  reno_cfg.seed = trim_cfg.seed = 7;
  const auto reno = run_impairment(reno_cfg);
  const auto trim = run_impairment(trim_cfg);
  ASSERT_TRUE(reno.all_completed);
  ASSERT_TRUE(trim.all_completed);
  EXPECT_LT(trim.last_lpt_completion, reno.last_lpt_completion);
}

// ---------- Fig. 5 vs Fig. 7 ----------

TEST(ConcurrencyScenario, TcpActExplodesWithTwoLptsButTrimStaysMilliseconds) {
  ConcurrencyConfig tcp_cfg;
  tcp_cfg.protocol = tcp::Protocol::kReno;
  tcp_cfg.num_spt_servers = 8;
  tcp_cfg.seed = 7;
  const auto tcp_r = run_concurrency(tcp_cfg);

  ConcurrencyConfig trim_cfg = tcp_cfg;
  trim_cfg.protocol = tcp::Protocol::kTrim;
  const auto trim_r = run_concurrency(trim_cfg);

  ASSERT_EQ(tcp_r.completed_spts, tcp_r.total_spts);
  ASSERT_EQ(trim_r.completed_spts, trim_r.total_spts);
  // Paper: TCP's ACT is up to two orders of magnitude above TRIM's.
  EXPECT_GT(tcp_r.act_ms, 50.0);
  EXPECT_LT(trim_r.act_ms, 10.0);
  EXPECT_GT(tcp_r.act_ms / trim_r.act_ms, 10.0);
  EXPECT_GT(tcp_r.spt_timeouts, 0u);
  EXPECT_EQ(trim_r.spt_timeouts, 0u);
}

TEST(ConcurrencyScenario, NoLptsMeansNoCollapseEvenForTcp) {
  ConcurrencyConfig cfg;
  cfg.protocol = tcp::Protocol::kReno;
  cfg.num_lpt_servers = 0;
  cfg.num_spt_servers = 4;
  cfg.seed = 9;
  const auto r = run_concurrency(cfg);
  EXPECT_EQ(r.completed_spts, 4);
  EXPECT_LT(r.act_ms, 50.0);
}

// ---------- Fig. 9 ----------

TEST(PropertiesScenario, TrimQueueShorterAndLossFreeAtEqualGoodput) {
  PropertiesConfig tcp_cfg;
  tcp_cfg.protocol = tcp::Protocol::kReno;
  tcp_cfg.seed = 5;
  const auto tcp_r = run_properties(tcp_cfg);

  PropertiesConfig trim_cfg = tcp_cfg;
  trim_cfg.protocol = tcp::Protocol::kTrim;
  const auto trim_r = run_properties(trim_cfg);

  // Paper Fig. 9: TCP sawtooths into the buffer ceiling and drops; TRIM
  // holds a small stable queue with zero loss at ~equal (near-full)
  // goodput.
  EXPECT_GT(tcp_r.avg_queue_pkts, 2.0 * trim_r.avg_queue_pkts);
  EXPECT_GT(tcp_r.drops, 0u);
  EXPECT_EQ(trim_r.drops, 0u);
  EXPECT_EQ(trim_r.timeouts, 0u);
  EXPECT_GT(trim_r.goodput_mbps, 900.0);  // ~98% of 1 Gbps
  EXPECT_GE(trim_r.goodput_mbps, tcp_r.goodput_mbps * 0.95);
}

// ---------- Fig. 10 ----------

TEST(ConvergenceScenario, TrimConvergesToFairShareTighterThanTcp) {
  ConvergenceConfig tcp_cfg;
  tcp_cfg.protocol = tcp::Protocol::kReno;
  tcp_cfg.stagger = sim::SimTime::seconds(0.5);  // reduced-scale run
  const auto tcp_r = run_convergence(tcp_cfg);

  ConvergenceConfig trim_cfg = tcp_cfg;
  trim_cfg.protocol = tcp::Protocol::kTrim;
  const auto trim_r = run_convergence(trim_cfg);

  EXPECT_GT(trim_r.jain_full_overlap, 0.98);
  EXPECT_GE(trim_r.jain_full_overlap, tcp_r.jain_full_overlap - 0.005);
  // All five flows share ~1 Gbps: each should sit near 200 Mbps.
  for (double mbps : trim_r.full_overlap_mbps) {
    EXPECT_GT(mbps, 120.0);
    EXPECT_LT(mbps, 300.0);
  }
}

// ---------- Fig. 8 ----------

TEST(LargeScaleScenario, TrimCutsSptActByLargeFactor) {
  LargeScaleConfig tcp_cfg;
  tcp_cfg.protocol = tcp::Protocol::kReno;
  tcp_cfg.num_switches = 3;  // reduced-scale run (126 servers)
  tcp_cfg.seed = 3;
  const auto tcp_r = run_large_scale(tcp_cfg);

  LargeScaleConfig trim_cfg = tcp_cfg;
  trim_cfg.protocol = tcp::Protocol::kTrim;
  const auto trim_r = run_large_scale(trim_cfg);

  ASSERT_GT(tcp_r.total_spts, 0);
  EXPECT_EQ(tcp_r.completed_spts, tcp_r.total_spts);
  EXPECT_EQ(trim_r.completed_spts, trim_r.total_spts);
  // Paper: up to 80% ACT reduction; require at least 50% at this scale.
  EXPECT_LT(trim_r.spt_act_ms, tcp_r.spt_act_ms * 0.5);
  EXPECT_EQ(trim_r.drops, 0u);
}

// ---------- Fig. 11 ----------

TEST(MultihopScenario, TrimAvoidsTimeoutsAcrossTwoBottlenecks) {
  MultihopConfig tcp_cfg;
  tcp_cfg.protocol = tcp::Protocol::kReno;
  tcp_cfg.stop = sim::SimTime::seconds(0.6);
  tcp_cfg.measure_from = sim::SimTime::seconds(0.3);
  const auto tcp_r = run_multihop(tcp_cfg);

  MultihopConfig trim_cfg = tcp_cfg;
  trim_cfg.protocol = tcp::Protocol::kTrim;
  const auto trim_r = run_multihop(trim_cfg);

  EXPECT_GT(tcp_r.drops, 0u);
  EXPECT_EQ(trim_r.drops, 0u);
  EXPECT_EQ(trim_r.timeouts, 0u);
  // Group A crosses both bottlenecks and must still get useful throughput.
  EXPECT_GT(trim_r.group_a_mbps, 100.0);
  EXPECT_GT(trim_r.group_b_mbps, trim_r.group_a_mbps);  // fewer hops, more share
}

// ---------- Fig. 12 / Table I ----------

TEST(FattreeScenario, TrimHasFewestTimeoutsAndShortestTail) {
  FattreeConfig base;
  base.pods = 4;
  base.seed = 11;

  auto run_with = [&](tcp::Protocol p) {
    FattreeConfig cfg = base;
    cfg.protocol = p;
    return run_fattree(cfg);
  };
  const auto tcp_r = run_with(tcp::Protocol::kReno);
  const auto trim_r = run_with(tcp::Protocol::kTrim);

  EXPECT_EQ(tcp_r.completed_servers, tcp_r.total_servers);
  EXPECT_EQ(trim_r.completed_servers, trim_r.total_servers);
  EXPECT_LE(trim_r.timeouts, tcp_r.timeouts);
  EXPECT_LE(trim_r.max_completion_ms, tcp_r.max_completion_ms);
  EXPECT_EQ(trim_r.drops, 0u);
}

// ---------- Fig. 13 ----------

TEST(TestbedScenario, TrimArctBeatsCubicUnderBackgroundElephants) {
  ArctConfig cubic_cfg;
  cubic_cfg.protocol = tcp::Protocol::kCubic;
  cubic_cfg.mean_response_bytes = 256 * 1024;
  cubic_cfg.num_responses = 40;
  const auto cubic_r = run_arct(cubic_cfg);

  ArctConfig trim_cfg = cubic_cfg;
  trim_cfg.protocol = tcp::Protocol::kTrim;
  const auto trim_r = run_arct(trim_cfg);

  EXPECT_EQ(cubic_r.completed, 40);
  EXPECT_EQ(trim_r.completed, 40);
  EXPECT_LT(trim_r.arct_ms, cubic_r.arct_ms);
  EXPECT_EQ(trim_r.timeouts, 0u);
}

TEST(TestbedScenario, WebServiceTailBoundedAt25msForTrim) {
  WebServiceConfig cfg;
  cfg.responses_per_server = 150;
  cfg.protocol = tcp::Protocol::kTrim;
  const auto trim_r = run_web_service(cfg);
  ASSERT_EQ(trim_r.completed, trim_r.total);
  // Paper Fig. 13(d): all TRIM samples stay below 25 ms.
  EXPECT_LE(trim_r.completion_cdf_ms.max(), 25.0);

  cfg.protocol = tcp::Protocol::kCubic;
  const auto cubic_r = run_web_service(cfg);
  // Paper Fig. 13(b): CUBIC has samples far above 50 ms.
  EXPECT_GT(cubic_r.completion_cdf_ms.max(), 50.0);
}

// ---------- harness plumbing ----------

TEST(Experiment, RunSeedsAreStableAndDistinct) {
  EXPECT_EQ(run_seed(1, 0), run_seed(1, 0));
  EXPECT_NE(run_seed(1, 0), run_seed(1, 1));
  EXPECT_NE(run_seed(1, 0), run_seed(2, 0));
}

TEST(Experiment, BaseSeedAcceptsOnlyWholeUnsignedDecimals) {
  const char* prior = std::getenv("REPRO_SEED");
  const bool had_prior = prior != nullptr;
  const std::string saved = had_prior ? prior : "";
  ::unsetenv("REPRO_SEED");
  EXPECT_EQ(base_seed(), 20160701u);
  ::setenv("REPRO_SEED", "42", 1);
  EXPECT_EQ(base_seed(), 42u);
  ::setenv("REPRO_SEED", "18446744073709551615", 1);
  EXPECT_EQ(base_seed(), 18446744073709551615u);
  for (const char* bad : {"abc", "12x", "-1", "+7", " 7", "", "18446744073709551616"}) {
    ::setenv("REPRO_SEED", bad, 1);
    try {
      base_seed();
      ADD_FAILURE() << "REPRO_SEED='" << bad << "' was accepted";
    } catch (const ConfigError& e) {
      EXPECT_EQ(e.where(), "REPRO_SEED");
      EXPECT_NE(e.valid_range().find("unsigned decimal"), std::string::npos);
    }
  }
  if (had_prior) {
    ::setenv("REPRO_SEED", saved.c_str(), 1);
  } else {
    ::unsetenv("REPRO_SEED");
  }
}

TEST(Experiment, RepeatsHonorsEnvOverride) {
  ::setenv("REPRO_REPEATS", "9", 1);
  EXPECT_EQ(repeats(5, 1), 9);
  ::unsetenv("REPRO_REPEATS");
  EXPECT_EQ(repeats(5, 1), quick_mode() ? 1 : 5);
}

TEST(Experiment, QueueSelectionMatchesProtocol) {
  const auto reno_q = switch_queue_for(tcp::Protocol::kReno, 100, net::kGbps);
  EXPECT_FALSE(reno_q.ecn_enabled());
  const auto dctcp_q = switch_queue_for(tcp::Protocol::kDctcp, 100, net::kGbps);
  EXPECT_TRUE(dctcp_q.ecn_enabled());
  EXPECT_EQ(dctcp_q.ecn_threshold_packets, 20u);
  const auto dctcp_10g = switch_queue_for(tcp::Protocol::kDctcp, 100, 10 * net::kGbps);
  EXPECT_EQ(dctcp_10g.ecn_threshold_packets, 65u);
  const auto bytes_q = switch_queue_bytes_for(tcp::Protocol::kL2dct, 350 * 1024,
                                              10 * net::kGbps, 1460);
  EXPECT_EQ(bytes_q.ecn_threshold_bytes, 65u * 1500u);
}

}  // namespace
}  // namespace trim::exp
