#include "topo/two_tier.hpp"

#include <string>

#include "sim/config_error.hpp"

namespace trim::topo {

TwoTier build_two_tier(net::Network& network, const TwoTierConfig& cfg) {
  if (cfg.num_switches < 1 || cfg.servers_per_switch < 1) {
    throw ConfigError{"bad topology dimensions",
                      "build_two_tier, num_switches=" +
                          std::to_string(cfg.num_switches) + ", servers_per_switch=" +
                          std::to_string(cfg.servers_per_switch),
                      ">= 1 each"};
  }

  TwoTier topo;
  const net::QueueConfig switch_q =
      cfg.switch_queue.value_or(net::QueueConfig::droptail_packets(cfg.switch_buffer_pkts));
  const net::QueueConfig host_q{};

  topo.fabric = network.add_switch("fabric");
  topo.front_end = network.add_host("frontend");

  const net::LinkSpec fab_to_fe{cfg.frontend_bps, cfg.frontend_delay, switch_q};
  const net::LinkSpec fe_to_fab{cfg.frontend_bps, cfg.frontend_delay, host_q};
  const auto fe = network.connect(*topo.fabric, *topo.front_end, fab_to_fe, fe_to_fab);
  topo.frontend_link = fe.a_to_b;

  for (int s = 0; s < cfg.num_switches; ++s) {
    auto* tor = network.add_switch("tor" + std::to_string(s));
    topo.tors.push_back(tor);
    const net::LinkSpec tor_link{cfg.edge_bps, cfg.edge_delay, switch_q};
    network.connect(*tor, *topo.fabric, tor_link, tor_link);

    topo.servers.emplace_back();
    for (int h = 0; h < cfg.servers_per_switch; ++h) {
      auto* host =
          network.add_host(std::string{"s"}.append(std::to_string(s)).append("h").append(
              std::to_string(h)));
      const net::LinkSpec uplink{cfg.edge_bps, cfg.edge_delay, host_q};
      const net::LinkSpec downlink{cfg.edge_bps, cfg.edge_delay, switch_q};
      network.connect(*host, *tor, uplink, downlink);
      topo.servers.back().push_back(host);
    }
  }

  network.build_routes();
  return topo;
}

}  // namespace trim::topo
