#include "topo/fat_tree.hpp"

#include <string>

#include "sim/config_error.hpp"

namespace trim::topo {

FatTree build_fat_tree(net::Network& network, const FatTreeConfig& cfg) {
  if (cfg.k < 2 || cfg.k % 2 != 0) {
    throw ConfigError{"fat-tree arity k must be even and >= 2",
                      "build_fat_tree, k=" + std::to_string(cfg.k),
                      "even integers >= 2"};
  }
  const int k = cfg.k;
  const int half = k / 2;

  FatTree topo;
  topo.k = k;

  const net::QueueConfig switch_q = cfg.switch_queue.value_or(
      net::QueueConfig::droptail_bytes(cfg.switch_buffer_bytes));
  const net::QueueConfig host_q{};
  const net::LinkSpec fabric_link{cfg.link_bps, cfg.link_delay, switch_q};

  // Core layer: (k/2)^2 switches.
  for (int i = 0; i < half * half; ++i) {
    topo.core_switches.push_back(network.add_switch("core" + std::to_string(i)));
  }

  for (int pod = 0; pod < k; ++pod) {
    std::vector<net::Switch*> pod_agg, pod_edge;
    for (int a = 0; a < half; ++a) {
      pod_agg.push_back(
          network.add_switch(std::string{"p"}.append(std::to_string(pod)).append("agg").append(
              std::to_string(a))));
    }
    for (int e = 0; e < half; ++e) {
      pod_edge.push_back(
          network.add_switch(std::string{"p"}.append(std::to_string(pod)).append("edge").append(
              std::to_string(e))));
    }

    // Aggregation <-> core: agg switch a connects to cores [a*half, (a+1)*half).
    for (int a = 0; a < half; ++a) {
      for (int c = 0; c < half; ++c) {
        network.connect(*pod_agg[a], *topo.core_switches[a * half + c], fabric_link,
                        fabric_link);
      }
    }

    // Edge <-> aggregation: full bipartite inside the pod.
    for (int e = 0; e < half; ++e) {
      for (int a = 0; a < half; ++a) {
        network.connect(*pod_edge[e], *pod_agg[a], fabric_link, fabric_link);
      }
    }

    // Hosts: k/2 per edge switch.
    for (int e = 0; e < half; ++e) {
      for (int h = 0; h < half; ++h) {
        auto* host = network.add_host(std::string{"p"}
                                          .append(std::to_string(pod))
                                          .append("e")
                                          .append(std::to_string(e))
                                          .append("h")
                                          .append(std::to_string(h)));
        const net::LinkSpec uplink{cfg.link_bps, cfg.link_delay, host_q};
        const net::LinkSpec downlink{cfg.link_bps, cfg.link_delay, switch_q};
        network.connect(*host, *pod_edge[e], uplink, downlink);
        topo.hosts.push_back(host);
      }
    }

    topo.agg_switches.insert(topo.agg_switches.end(), pod_agg.begin(), pod_agg.end());
    topo.edge_switches.insert(topo.edge_switches.end(), pod_edge.begin(), pod_edge.end());
  }

  network.build_routes();
  return topo;
}

}  // namespace trim::topo
