#include "topo/multi_hop.hpp"

#include <string>

#include "sim/config_error.hpp"

namespace trim::topo {

MultiHop build_multi_hop(net::Network& network, const MultiHopConfig& cfg) {
  if (cfg.group_size < 1) {
    throw ConfigError{"empty sender groups", "build_multi_hop, group_size=" +
                                                 std::to_string(cfg.group_size),
                      ">= 1"};
  }

  MultiHop topo;
  const net::QueueConfig switch_q =
      cfg.switch_queue.value_or(net::QueueConfig::droptail_packets(cfg.switch_buffer_pkts));
  const net::QueueConfig host_q{};

  topo.switch1 = network.add_switch("switch1");
  topo.switch2 = network.add_switch("switch2");
  topo.front_end = network.add_host("frontend");

  const net::LinkSpec trunk{cfg.bottleneck_bps, cfg.bottleneck_delay, switch_q};
  const auto s1s2 = network.connect(*topo.switch1, *topo.switch2, trunk, trunk);
  topo.bottleneck1 = s1s2.a_to_b;

  const net::LinkSpec to_fe{cfg.bottleneck_bps, cfg.bottleneck_delay, switch_q};
  const net::LinkSpec from_fe{cfg.bottleneck_bps, cfg.bottleneck_delay, host_q};
  const auto s2fe = network.connect(*topo.switch2, *topo.front_end, to_fe, from_fe);
  topo.bottleneck2 = s2fe.a_to_b;

  auto add_edge_host = [&](net::Switch& sw, const std::string& name) {
    auto* host = network.add_host(name);
    const net::LinkSpec uplink{cfg.edge_bps, cfg.edge_delay, host_q};
    const net::LinkSpec downlink{cfg.edge_bps, cfg.edge_delay, switch_q};
    network.connect(*host, sw, uplink, downlink);
    return host;
  };

  for (int i = 0; i < cfg.group_size; ++i) {
    const std::string index = std::to_string(i);
    topo.group_a.push_back(add_edge_host(*topo.switch1, std::string{"a"}.append(index)));
    topo.group_b.push_back(add_edge_host(*topo.switch2, std::string{"b"}.append(index)));
    topo.group_c.push_back(add_edge_host(*topo.switch1, std::string{"c"}.append(index)));
    topo.group_d.push_back(add_edge_host(*topo.switch2, std::string{"d"}.append(index)));
  }

  network.build_routes();
  return topo;
}

}  // namespace trim::topo
