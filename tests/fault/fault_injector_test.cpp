#include <gtest/gtest.h>

#include <vector>

#include "fault/fault_injector.hpp"
#include "net/host.hpp"
#include "net/link.hpp"
#include "sim/config_error.hpp"
#include "tcp/reno.hpp"
#include "tcp/tcp_receiver.hpp"
#include "../tcp/tcp_test_util.hpp"

namespace trim::fault {
namespace {

using test::HostPair;

net::Packet data_packet(net::NodeId dst, std::uint64_t seq) {
  net::Packet p;
  p.dst = dst;
  p.flow = 999;  // unregistered: dropped (unroutable) at the host, harmless
  p.seq = seq;
  p.payload_bytes = 1460;
  return p;
}

TEST(FaultConfigValidation, RejectsEachMalformedField) {
  {
    FaultConfig cfg;
    cfg.loss_probability = 1.5;
    EXPECT_THROW(validate(cfg), ConfigError);
  }
  {
    FaultConfig cfg;
    cfg.gilbert.p_good_to_bad = -0.1;
    EXPECT_THROW(validate(cfg), ConfigError);
  }
  {
    FaultConfig cfg;
    cfg.corrupt_probability = 2.0;
    EXPECT_THROW(validate(cfg), ConfigError);
  }
  {
    FaultConfig cfg;  // reordering without a hold-back bound
    cfg.reorder_probability = 0.1;
    EXPECT_THROW(validate(cfg), ConfigError);
  }
  {
    FaultConfig cfg;
    cfg.jitter_max = sim::SimTime::micros(-5);
    EXPECT_THROW(validate(cfg), ConfigError);
  }
  {
    FaultConfig cfg;  // empty outage
    cfg.flaps.push_back({sim::SimTime::seconds(1), sim::SimTime::seconds(1)});
    EXPECT_THROW(validate(cfg), ConfigError);
  }
  {
    FaultConfig cfg;  // overlapping outages
    cfg.flaps.push_back({sim::SimTime::seconds(1), sim::SimTime::seconds(3)});
    cfg.flaps.push_back({sim::SimTime::seconds(2), sim::SimTime::seconds(4)});
    EXPECT_THROW(validate(cfg), ConfigError);
  }
}

TEST(FaultConfigValidation, ErrorCarriesFieldAndRange) {
  FaultConfig cfg;
  cfg.duplicate_probability = 7.0;
  try {
    validate(cfg);
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    EXPECT_EQ(e.where(), "FaultConfig::duplicate_probability");
    EXPECT_EQ(e.valid_range(), "[0, 1]");
  }
}

// An attached injector whose profile enables nothing must leave the
// simulation bit-identical: it draws no randomness and schedules no events.
TEST(FaultInjector, DisabledInjectorIsBitIdentical) {
  auto run_transfer = [](bool with_injector) {
    HostPair net;
    std::unique_ptr<FaultInjector> inj;
    if (with_injector) {
      inj = std::make_unique<FaultInjector>(&net.sim, FaultConfig{});
      inj->attach(*net.ab);
    }
    tcp::TcpReceiver receiver{&net.b, 1, net.a.id()};
    tcp::RenoSender sender{&net.a, net.b.id(), 1, tcp::TcpConfig{}};
    sender.write(200 * 1460);
    net.sim.run();
    EXPECT_TRUE(sender.idle());
    auto times = sender.stats().completed_message_times();
    return std::pair{net.sim.now(), times.at(0)};
  };
  const auto clean = run_transfer(false);
  const auto attached = run_transfer(true);
  EXPECT_EQ(clean.first, attached.first);    // same final event time, exactly
  EXPECT_EQ(clean.second, attached.second);  // same completion time, exactly
}

TEST(FaultInjector, BernoulliLossIsSeedDeterministic) {
  auto drop_pattern = [](std::uint64_t seed) {
    HostPair net;
    FaultConfig cfg;
    cfg.seed = seed;
    cfg.loss_probability = 0.3;
    FaultInjector inj{&net.sim, cfg};
    inj.attach(*net.ab);
    std::vector<bool> offered;
    for (std::uint64_t i = 0; i < 200; ++i) {
      offered.push_back(inj.offer(data_packet(net.b.id(), i)));
    }
    return std::pair{offered, inj.stats().random_losses};
  };
  const auto a = drop_pattern(42);
  const auto b = drop_pattern(42);
  const auto c = drop_pattern(43);
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
  EXPECT_GT(a.second, 0u);
  EXPECT_NE(a.first, c.first);  // different seed, different pattern
}

// The stream-isolation contract: enabling delivery-side faults (jitter,
// corruption, duplication, reordering) must not perturb the loss stream's
// drop decisions, because each fault class draws from its own RNG.
TEST(FaultInjector, LossStreamUnaffectedByOtherFaults) {
  const std::uint64_t seed = 7;
  auto loss_decisions = [&](bool with_other_faults) {
    HostPair net;
    FaultConfig cfg;
    cfg.seed = seed;
    cfg.loss_probability = 0.25;
    if (with_other_faults) {
      cfg.jitter_max = sim::SimTime::micros(50);
      cfg.corrupt_probability = 0.5;
      cfg.duplicate_probability = 0.5;
      cfg.reorder_probability = 0.5;
      cfg.reorder_extra_max = sim::SimTime::micros(100);
    }
    FaultInjector inj{&net.sim, cfg};
    inj.attach(*net.ab);
    std::vector<bool> decisions;
    for (std::uint64_t i = 0; i < 300; ++i) {
      auto p = data_packet(net.b.id(), i);
      const bool pass = inj.offer(p);
      decisions.push_back(pass);
      if (pass) {
        // Exercise the delivery-side hooks between offers, as the link does.
        (void)inj.on_deliver(p);
        (void)inj.duplicate_now(p);
      }
    }
    return decisions;
  };
  EXPECT_EQ(loss_decisions(false), loss_decisions(true));
}

TEST(FaultInjector, FlapDropsEverythingWhileDown) {
  HostPair net;
  FaultConfig cfg;
  cfg.flaps.push_back({sim::SimTime::millis(1), sim::SimTime::millis(2)});
  FaultInjector inj{&net.sim, cfg};
  inj.attach(*net.ab);

  // One packet before, three during, one after the outage.
  for (auto [at_us, seq] : {std::pair{500, 0}, {1200, 1}, {1500, 2},
                            {1800, 3}, {2500, 4}}) {
    net.sim.schedule_at(sim::SimTime::micros(at_us), [&net, seq = seq] {
      net.ab->send(data_packet(net.b.id(), static_cast<std::uint64_t>(seq)));
    });
  }
  net.sim.run();
  EXPECT_EQ(inj.stats().link_down_drops, 3u);
  EXPECT_EQ(inj.stats().flaps_completed, 1u);
  EXPECT_FALSE(inj.link_down());
  EXPECT_EQ(net.ab->packets_arrived(), 2u);
}

TEST(FaultInjector, DuplicationDeliversTwice) {
  HostPair net;
  FaultConfig cfg;
  cfg.duplicate_probability = 1.0;
  FaultInjector inj{&net.sim, cfg};
  inj.attach(*net.ab);
  std::uint64_t offered_bytes = 0;
  for (std::uint64_t i = 0; i < 5; ++i) {
    const auto p = data_packet(net.b.id(), i);
    offered_bytes += p.size_bytes();
    net.ab->send(p);
  }
  net.sim.run();
  EXPECT_EQ(inj.stats().duplicated, 5u);
  // The clone takes the same delivery leg as the original: counted,
  // metered and scheduled once each.
  EXPECT_EQ(net.ab->packets_delivered(), 10u);
  EXPECT_EQ(net.ab->bytes_delivered(), 2 * offered_bytes);
  EXPECT_EQ(net.ab->packets_arrived(), 10u);
}

TEST(FaultInjector, CorruptedPacketsAreDroppedAndCountedAtHost) {
  HostPair net;
  FaultConfig cfg;
  cfg.corrupt_probability = 1.0;
  FaultInjector inj{&net.sim, cfg};
  inj.attach(*net.ab);
  for (std::uint64_t i = 0; i < 8; ++i) {
    net.ab->send(data_packet(net.b.id(), i));
  }
  net.sim.run();
  EXPECT_EQ(inj.stats().corrupted, 8u);
  // Corrupt frames traverse the link (consuming bandwidth), then die at
  // the receiving host's checksum counter — before flow dispatch.
  EXPECT_EQ(net.ab->packets_arrived(), 8u);
  EXPECT_EQ(net.b.corrupt_dropped(), 8u);
  EXPECT_EQ(net.b.packets_delivered_to_agent(), 0u);
}

TEST(FaultInjector, ReorderHoldbackIsBounded) {
  HostPair net;  // 50 us propagation
  FaultConfig cfg;
  cfg.reorder_probability = 1.0;
  cfg.reorder_extra_max = sim::SimTime::micros(200);
  FaultInjector inj{&net.sim, cfg};
  inj.attach(*net.ab);
  for (std::uint64_t i = 0; i < 20; ++i) {
    net.ab->send(data_packet(net.b.id(), i));
  }
  net.sim.run();
  EXPECT_EQ(inj.stats().reordered, 20u);
  EXPECT_EQ(net.ab->packets_arrived(), 20u);
  // Every arrival happens by: serialization of 20 packets (payload plus
  // header, at 1 Gbps) + propagation + the hold-back bound. run() ends at
  // the last arrival.
  const auto serialization =
      sim::SimTime::nanos(20 * (1460 + net::kTcpIpHeaderBytes) * 8);
  const auto bound = serialization + sim::SimTime::micros(50) +
                     sim::SimTime::micros(200);
  EXPECT_LE(net.sim.now(), bound);
}

TEST(FaultInjector, RandomFaultsRespectActiveWindow) {
  HostPair net;
  FaultConfig cfg;
  cfg.loss_probability = 1.0;  // drops everything — but only in the window
  cfg.active_from = sim::SimTime::millis(1);
  cfg.active_until = sim::SimTime::millis(2);
  FaultInjector inj{&net.sim, cfg};
  inj.attach(*net.ab);
  for (auto [at_us, seq] : {std::pair{500, 0}, {1500, 1}, {2500, 2}}) {
    net.sim.schedule_at(sim::SimTime::micros(at_us), [&net, seq = seq] {
      net.ab->send(data_packet(net.b.id(), static_cast<std::uint64_t>(seq)));
    });
  }
  net.sim.run();
  EXPECT_EQ(inj.stats().random_losses, 1u);
  EXPECT_EQ(net.ab->packets_arrived(), 2u);
}

TEST(FaultInjector, SecondAttachIsRejected) {
  HostPair net;
  FaultInjector inj{&net.sim, FaultConfig{}};
  inj.attach(*net.ab);
  EXPECT_THROW(inj.attach(*net.ba), ConfigError);
}

}  // namespace
}  // namespace trim::fault
