// Property-style invariant sweeps (parameterized): for every protocol and
// several fan-in degrees, a many-to-one transfer must
//   (1) deliver every byte exactly once,
//   (2) never exceed the configured switch buffer,
//   (3) never exceed bottleneck capacity in goodput,
//   (4) conserve packets on every link (enqueued = dequeued + dropped +
//       resident),
//   (5) keep TRIM's window at or above 2 at all times.
#include <gtest/gtest.h>

#include <memory>
#include <tuple>
#include <vector>

#include "core/sender_factory.hpp"
#include "exp/experiment.hpp"
#include "topo/many_to_one.hpp"

namespace trim {
namespace {

using Param = std::tuple<tcp::Protocol, int /*servers*/, int /*kb_per_flow*/>;

class IncastInvariants : public ::testing::TestWithParam<Param> {};

TEST_P(IncastInvariants, HoldAcrossProtocolsAndFanIn) {
  const auto [protocol, servers, kb] = GetParam();

  exp::World world;
  topo::ManyToOneConfig cfg;
  cfg.num_servers = servers;
  cfg.switch_queue = exp::switch_queue_for(protocol, cfg.switch_buffer_pkts,
                                           cfg.link_bps);
  const auto topo = build_many_to_one(world.network, cfg);

  stats::TimeSeries queue_trace;
  topo.bottleneck->queue().set_length_trace(&queue_trace);

  auto opts = exp::default_options(protocol, cfg.link_bps, sim::SimTime::millis(20));
  const std::uint64_t bytes_per_flow = static_cast<std::uint64_t>(kb) * 1024;

  std::vector<tcp::Flow> flows;
  std::vector<std::unique_ptr<stats::TimeSeries>> cwnd_traces;
  for (int i = 0; i < servers; ++i) {
    flows.push_back(core::make_protocol_flow(world.network, *topo.servers[i],
                                             *topo.front_end, protocol, opts));
    cwnd_traces.push_back(std::make_unique<stats::TimeSeries>());
    flows.back().sender->set_cwnd_trace(cwnd_traces.back().get());
    flows.back().sender->write(bytes_per_flow);
  }

  const auto start = world.simulator.now();
  world.simulator.run_until(sim::SimTime::seconds(30));

  // (1) exact delivery.
  for (auto& f : flows) {
    EXPECT_TRUE(f.sender->idle()) << tcp::to_string(protocol);
    EXPECT_EQ(f.receiver->delivered_bytes(), bytes_per_flow);
    EXPECT_EQ(f.sender->bytes_acked(), bytes_per_flow);
  }

  // (2) buffer bound.
  if (!queue_trace.empty()) {
    EXPECT_LE(queue_trace.max_value(), cfg.switch_buffer_pkts);
  }

  // (3) goodput bound: total unique bytes / elapsed <= line rate.
  const double elapsed = (world.simulator.now() - start).to_seconds();
  const double total_bits = static_cast<double>(bytes_per_flow) * servers * 8;
  if (elapsed > 0) {
    EXPECT_LE(total_bits / elapsed, static_cast<double>(cfg.link_bps) * 1.01);
  }

  // (4) per-link conservation.
  for (const auto& link : world.network.links()) {
    const auto& s = link->queue().stats();
    EXPECT_EQ(s.enqueued, s.dequeued + link->queue().len_packets())
        << link->name();
  }

  // (5) TRIM window floor.
  if (protocol == tcp::Protocol::kTrim) {
    for (const auto& trace : cwnd_traces) {
      if (!trace->empty()) {
        EXPECT_GE(trace->min_value(), 2.0);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllProtocols, IncastInvariants,
    ::testing::Combine(
        ::testing::Values(tcp::Protocol::kReno, tcp::Protocol::kCubic,
                          tcp::Protocol::kDctcp, tcp::Protocol::kL2dct,
                          tcp::Protocol::kTrim, tcp::Protocol::kVegas,
                          tcp::Protocol::kD2tcp, tcp::Protocol::kGip),
        ::testing::Values(1, 4, 12),
        ::testing::Values(64, 512)),
    [](const ::testing::TestParamInfo<Param>& info) {
      auto name = tcp::to_string(std::get<0>(info.param)) + "_s" +
                  std::to_string(std::get<1>(info.param)) + "_kb" +
                  std::to_string(std::get<2>(info.param));
      for (auto& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

// RTO floor sweep: the transfer must complete and stay loss-consistent for
// every RTO the paper uses (200 ms, 20 ms, 1 ms).
class RtoSweep : public ::testing::TestWithParam<int /*min_rto_ms*/> {};

TEST_P(RtoSweep, TransfersCompleteUnderAllPaperRtos) {
  exp::World world;
  topo::ManyToOneConfig cfg;
  cfg.num_servers = 8;
  const auto topo = build_many_to_one(world.network, cfg);
  auto opts = exp::default_options(tcp::Protocol::kReno, cfg.link_bps,
                                   sim::SimTime::millis(GetParam()));
  std::vector<tcp::Flow> flows;
  for (int i = 0; i < 8; ++i) {
    flows.push_back(core::make_protocol_flow(world.network, *topo.servers[i],
                                             *topo.front_end, tcp::Protocol::kReno,
                                             opts));
    flows.back().sender->write(256 * 1024);
  }
  world.simulator.run_until(sim::SimTime::seconds(30));
  for (auto& f : flows) {
    EXPECT_TRUE(f.sender->idle());
    EXPECT_EQ(f.receiver->delivered_bytes(), 256u * 1024);
  }
}

INSTANTIATE_TEST_SUITE_P(PaperRtos, RtoSweep, ::testing::Values(200, 20, 1));

// TRIM K-override sweep: any sane fixed K still delivers, and larger K
// admits a larger standing queue.
class KSweep : public ::testing::TestWithParam<int /*k_us*/> {};

TEST_P(KSweep, FixedThresholdStillDeliversCleanly) {
  exp::World world;
  topo::ManyToOneConfig cfg;
  cfg.num_servers = 4;
  const auto topo = build_many_to_one(world.network, cfg);

  core::ProtocolOptions opts;
  opts.trim.k_override = sim::SimTime::micros(GetParam());
  opts.trim.capacity_pps = core::packets_per_second(cfg.link_bps, 1460);

  stats::TimeSeries queue_trace;
  topo.bottleneck->queue().set_length_trace(&queue_trace);

  std::vector<tcp::Flow> flows;
  for (int i = 0; i < 4; ++i) {
    flows.push_back(core::make_protocol_flow(world.network, *topo.servers[i],
                                             *topo.front_end, tcp::Protocol::kTrim,
                                             opts));
    flows.back().sender->write(1'000'000);
  }
  world.simulator.run_until(sim::SimTime::seconds(30));
  for (auto& f : flows) EXPECT_TRUE(f.sender->idle());
  EXPECT_LE(queue_trace.max_value(), 100.0);
}

INSTANTIATE_TEST_SUITE_P(KValues, KSweep, ::testing::Values(120, 150, 200, 400));

}  // namespace
}  // namespace trim
