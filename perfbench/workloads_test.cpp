// The benchmark's own tests: the driver reproduces the exp scenarios it
// mirrors, span self times add up, and a failed check is counted.
#include <gtest/gtest.h>

#include <numeric>

#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace trim;

exp::LargeScaleConfig small_two_tier(tcp::Protocol protocol) {
  exp::LargeScaleConfig cfg;
  cfg.protocol = protocol;
  cfg.num_switches = 3;
  cfg.servers_per_switch = 12;
  cfg.seed = 7;
  cfg.shards = 1;
  return cfg;
}

exp::FattreeConfig small_fat_tree(tcp::Protocol protocol) {
  exp::FattreeConfig cfg;
  cfg.protocol = protocol;
  cfg.pods = 4;
  cfg.seed = 3;
  cfg.shards = 1;
  return cfg;
}

TEST(PerfbenchDriver, TwoTierMatchesRunLargeScale) {
  for (const auto protocol : {tcp::Protocol::kReno, tcp::Protocol::kTrim}) {
    const auto cfg = small_two_tier(protocol);
    const auto want = exp::run_large_scale(cfg);
    Tracer tr{false};
    const auto got = run_two_tier(cfg, tr);
    EXPECT_EQ(got.failure, "");
    EXPECT_EQ(got.counts.events, want.events_dispatched);
    EXPECT_EQ(got.counts.drops, want.drops);
    EXPECT_EQ(got.counts.completed, static_cast<std::uint64_t>(want.completed_spts));
    EXPECT_EQ(got.counts.expected, static_cast<std::uint64_t>(want.total_spts));
    EXPECT_DOUBLE_EQ(got.counts.result_ms, want.spt_act_ms);
  }
}

TEST(PerfbenchDriver, FatTreeMatchesRunFattree) {
  for (const auto protocol : {tcp::Protocol::kDctcp, tcp::Protocol::kTrim}) {
    const auto cfg = small_fat_tree(protocol);
    const auto want = exp::run_fattree(cfg);
    Tracer tr{false};
    const auto got = run_fat_tree(cfg, tr);
    EXPECT_EQ(got.failure, "");
    EXPECT_EQ(got.counts.events, want.events_dispatched);
    EXPECT_EQ(got.counts.drops, want.drops);
    EXPECT_EQ(got.counts.completed, static_cast<std::uint64_t>(want.completed_servers));
    EXPECT_DOUBLE_EQ(got.counts.result_ms, want.mean_completion_ms);
  }
}

TEST(PerfbenchDriver, ChurnMatchesRunConnectionStorm) {
  auto cfg = std::get<exp::ConnectionStormConfig>(
      workload_sims(Workload::kConnChurn, 5).front().cfg);
  cfg.num_switches = 2;
  cfg.clients_per_switch = 5;
  cfg.connections_total = 300;
  cfg.shards = 1;
  const auto want = exp::run_connection_storm(cfg);
  Tracer tr{false};
  const auto got = run_churn(cfg, tr);
  EXPECT_EQ(got.failure, "");
  EXPECT_EQ(want.stuck_connections, 0u);
  EXPECT_EQ(got.counts.conns_closed, want.graceful_closes + want.aborted_closes);
  EXPECT_EQ(got.counts.syn_retx, want.syn_retx);
  EXPECT_EQ(got.counts.drops, want.queue_drops);
  EXPECT_EQ(got.counts.events_recorded, want.telemetry.events.total());
  ASSERT_FALSE(want.setup_latency_s.empty());
  const double mean_ms = 1e3 *
                         std::accumulate(want.setup_latency_s.begin(),
                                         want.setup_latency_s.end(), 0.0) /
                         static_cast<double>(want.setup_latency_s.size());
  EXPECT_NEAR(got.counts.result_ms, mean_ms, 1e-9);
}

void spin(double seconds) {
  const auto until = std::chrono::steady_clock::now() +
                     std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                         std::chrono::duration<double>(seconds));
  while (std::chrono::steady_clock::now() < until) {
  }
}

TEST(PerfbenchTracer, SelfTimesSumToParentDuration) {
  Tracer tr{true};
  const double root = tr.timed("root", [&] {
    spin(0.001);
    tr.timed("a", [&] {
      spin(0.002);
      tr.timed("leaf", [&] { spin(0.001); });
    });
    tr.timed("b", [&] { spin(0.001); });
    tr.timed("leaf", [&] { spin(0.001); });
  });
  const auto spans = tr.take();
  ASSERT_EQ(spans.size(), 5u);
  EXPECT_EQ(spans[0].parent, -1);
  EXPECT_EQ(spans[2].parent, 1);

  // For every span: its self time plus its children's durations is its
  // duration.
  for (std::size_t i = 0; i < spans.size(); ++i) {
    double children = 0.0;
    for (const auto& s : spans) {
      if (s.parent == static_cast<int>(i)) children += s.end_s - s.start_s;
    }
    std::vector<Span> alone = {spans[i]};
    alone[0].parent = -1;
    const double self = self_times(alone).at(spans[i].name) - children;
    EXPECT_NEAR(self + children, spans[i].end_s - spans[i].start_s, 1e-12);
  }
  const auto self = self_times(spans);
  double total = 0.0;
  for (const auto& [name, t] : self) {
    EXPECT_GE(t, 0.0) << name;
    total += t;
  }
  EXPECT_NEAR(total, root, 1e-9);
  EXPECT_GE(self.at("leaf"), 0.002);
  EXPECT_GE(self.at("a"), 0.002);
  EXPECT_LT(self.at("a"), (spans[1].end_s - spans[1].start_s));
}

TEST(PerfbenchTally, ForcedCheckFailureRaisesFailRatio) {
  const std::vector<SimSpec> good = {{"dctcp", small_fat_tree(tcp::Protocol::kDctcp)}};
  Tracer tr{false};
  const auto ok = tally({run_pass(good, tr)});
  EXPECT_EQ(ok.attempted, 1u);
  EXPECT_EQ(ok.failed, 0u);
  EXPECT_EQ(ok.fail_ratio(), 0.0);

  // Cut the run 1 ms after the big objects start: none can complete.
  auto cut = small_fat_tree(tcp::Protocol::kDctcp);
  cut.run_until = cut.big_start + sim::SimTime::millis(1);
  const std::vector<SimSpec> bad = {{"dctcp", small_fat_tree(tcp::Protocol::kDctcp)},
                                    {"cut", cut}};
  const auto pass = run_pass(bad, tr);
  EXPECT_EQ(pass.sims[0].failure, "");
  EXPECT_NE(pass.sims[1].failure, "");
  const auto t = tally({pass});
  EXPECT_EQ(t.attempted, 2u);
  EXPECT_EQ(t.failed, 1u);
  EXPECT_DOUBLE_EQ(t.fail_ratio(), 0.5);
}

TEST(PerfbenchDigest, RepeatsAndIgnoresEngineEvents) {
  const std::vector<SimSpec> sims = {{"dctcp", small_fat_tree(tcp::Protocol::kDctcp)}};
  Tracer tr{false};
  auto a = run_pass(sims, tr);
  const auto b = run_pass(sims, tr);
  EXPECT_TRUE(a.sims[0].counts == b.sims[0].counts);
  EXPECT_EQ(sim_digest(a), sim_digest(b));
  a.sims[0].counts.events += 1;
  EXPECT_EQ(sim_digest(a), sim_digest(b));
  a.sims[0].counts.drops += 1;
  EXPECT_NE(sim_digest(a), sim_digest(b));
}

}  // namespace
}  // namespace perfbench
