#include "workloads.hpp"

#include <algorithm>
#include <cstring>
#include <memory>
#include <optional>
#include <stdexcept>
#include <utility>

#include "exp/experiment.hpp"
#include "http/lpt_source.hpp"
#include "http/train_workload.hpp"
#include "mem/alloc_hooks.hpp"
#include "net/host.hpp"
#include "obs/events.hpp"
#include "stats/summary.hpp"
#include "tcp/rst_responder.hpp"
#include "topo/fat_tree.hpp"
#include "topo/partition.hpp"
#include "topo/two_tier.hpp"

namespace perfbench {

using namespace trim;

std::map<std::string, double> self_times(const std::vector<Span>& spans) {
  std::vector<double> child_time(spans.size(), 0.0);
  for (const auto& s : spans) {
    if (s.parent >= 0) {
      child_time[static_cast<std::size_t>(s.parent)] += s.end_s - s.start_s;
    }
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    out[spans[i].name] += spans[i].end_s - spans[i].start_s - child_time[i];
  }
  return out;
}

namespace {

// Fresh serial world: one shard whatever TRIM_SHARDS says.
std::unique_ptr<exp::World> make_world() {
  return std::make_unique<exp::World>(1, std::nullopt, std::nullopt);
}

// The event loop, with operator new counted while it runs.
void run_counted(exp::World& world, sim::SimTime until, SimCounts& c) {
  mem::reset_alloc_counts();
  mem::set_alloc_counting(true);
  world.run_until(until);
  mem::set_alloc_counting(false);
  c.allocs_in_run = mem::alloc_totals().allocs;
}

void read_network(exp::World& world, SimCounts& c) {
  c.events = world.engine.events_dispatched();
  for (const auto& link : world.network.links()) {
    c.link_tx += link->packets_delivered();
    c.drops += link->queue().stats().dropped;
    c.ce_marks += link->queue().stats().marked_ce;
  }
  const auto nodes = static_cast<net::NodeId>(world.network.node_count());
  for (net::NodeId id = 0; id < nodes; ++id) {
    if (const auto* host = dynamic_cast<const net::Host*>(&world.network.node(id))) {
      c.host_pkts += host->packets_sent();
    }
  }
}

void read_flow(const stats::FlowStats& s, SimCounts& c) {
  c.data_pkts += s.data_packets_sent;
  c.retx_pkts += s.retransmitted_packets;
  c.probe_rounds += s.probe_rounds;
  c.eq3_cuts += s.delay_backoffs;
  for (const auto& m : s.messages()) {
    ++c.msgs_total;
    if (m.done()) ++c.msgs_done;
  }
}

std::uint64_t counter(const obs::MetricsSnapshot& m, const char* name) {
  for (const auto& s : m.counters) {
    if (s.name == name) return s.value;
  }
  return 0;
}

void read_telemetry(const obs::TelemetrySnapshot& snap, SimCounts& c) {
  c.segments_sent = counter(snap.metrics, "tcp.segments_sent");
  c.acks = counter(snap.metrics, "tcp.acks_processed");
  c.rto_armed = snap.events[obs::EventKind::kRtoArmed];
  c.rto_fired = snap.events[obs::EventKind::kRtoFired];
  c.events_recorded = snap.events.total();
}

// The tail every simulation shares: invariant check, telemetry snapshot.
void finish_sim(exp::World& world, std::optional<exp::InvariantScope>& inv,
                Tracer& tr, SimResult& r) {
  r.invariant_violations = inv->finish(/*fail_hard=*/false);
  if (r.invariant_violations != 0 && r.failure.empty()) {
    r.failure = std::to_string(r.invariant_violations) + " invariant violations";
  }
  read_network(world, r.counts);
  obs::TelemetrySnapshot snap;
  r.times.snapshot_s = tr.timed("obs.snapshot", [&] { snap = world.telemetry_snapshot(); });
  read_telemetry(snap, r.counts);
}

}  // namespace

SimResult run_two_tier(const exp::LargeScaleConfig& cfg, Tracer& tr) {
  if (cfg.spacing != exp::SptSpacing::kUniform) {
    throw std::invalid_argument("perfbench: two-tier runs use uniform SPT spacing");
  }
  SimResult r;
  std::unique_ptr<exp::World> world;
  std::optional<exp::InvariantScope> inv;
  topo::TwoTier topo;
  std::vector<tcp::Flow> flows;
  std::vector<std::unique_ptr<http::LptSource>> lpt_sources;
  std::vector<tcp::TcpSender*> spt_senders;
  const auto until = cfg.spt_window + cfg.drain;

  topo::TwoTierConfig topo_cfg;
  topo_cfg.num_switches = cfg.num_switches;
  topo_cfg.servers_per_switch = cfg.servers_per_switch;
  topo_cfg.switch_queue =
      exp::switch_queue_for(cfg.protocol, topo_cfg.switch_buffer_pkts, topo_cfg.edge_bps);
  const auto opts = exp::default_options(cfg.protocol, topo_cfg.edge_bps, cfg.min_rto);

  tr.timed("exp.simulation", [&] {
    r.times.world_s = tr.timed("exp.world", [&] {
      world = make_world();
      inv.emplace(*world);
    });
    r.times.topo_s = tr.timed("topo.build", [&] {
      topo = topo::build_two_tier(world->network, topo_cfg);
      topo::shard_network(world->network, world->engine);
    });
    r.times.flow_setup_s = tr.timed("tcp.flow_setup", [&] {
      for (const auto& group : topo.servers) {
        for (net::Host* server : group) {
          flows.push_back(core::make_protocol_flow(world->network, *server,
                                                   *topo.front_end, cfg.protocol, opts));
          inv->watch(*flows.back().sender);
        }
      }
    });
    r.times.schedule_s = tr.timed("http.schedule", [&] {
      sim::Rng rng{cfg.seed};
      auto size_cdf = http::TrainWorkload::default_size_cdf();
      std::size_t f = 0;
      for (const auto& group : topo.servers) {
        for (int h = 0; h < static_cast<int>(group.size()); ++h, ++f) {
          auto* sender = flows[f].sender.get();
          if (h < cfg.lpt_servers_per_switch) {
            lpt_sources.push_back(std::make_unique<http::LptSource>(
                group[h]->simulator(), sender, 512 * 1024));
            lpt_sources.back()->run(sim::SimTime::zero(), until);
            continue;
          }
          const auto at = rng.uniform_time(sim::SimTime::zero(), cfg.spt_window);
          const auto bytes =
              static_cast<std::uint64_t>(std::max(size_cdf.sample(rng), 512.0));
          spt_senders.push_back(sender);
          group[h]->simulator()->schedule_at(at, [sender, bytes] { sender->write(bytes); });
        }
      }
    });
    r.times.run_s = tr.timed("sim.run", [&] { run_counted(*world, until, r.counts); });

    stats::Summary act;
    for (auto* sender : spt_senders) {
      for (const auto& m : sender->stats().messages()) {
        if (http::TrainWorkload::is_long_train(m.bytes)) continue;
        ++r.counts.expected;
        if (m.done()) act.add(m.completion_time().to_millis());
      }
    }
    r.counts.completed = act.count();
    if (!act.empty()) r.counts.result_ms = act.mean();
    if (r.counts.completed != r.counts.expected) {
      r.failure = std::to_string(r.counts.expected - r.counts.completed) +
                  " SPTs unfinished at the drain deadline";
    }
    for (const auto& flow : flows) read_flow(flow.sender->stats(), r.counts);
    finish_sim(*world, inv, tr, r);

    r.times.teardown_s = tr.timed("exp.teardown", [&] {
      inv.reset();
      lpt_sources.clear();
      flows.clear();
      world.reset();
    });
  });
  return r;
}

SimResult run_fat_tree(const exp::FattreeConfig& cfg, Tracer& tr) {
  SimResult r;
  std::unique_ptr<exp::World> world;
  std::optional<exp::InvariantScope> inv;
  topo::FatTree topo;
  std::vector<tcp::Flow> flows;
  std::vector<std::vector<std::uint64_t>> small_bytes;
  std::vector<std::uint64_t> big_ids;

  topo::FatTreeConfig topo_cfg;
  topo_cfg.k = cfg.pods;
  topo_cfg.switch_queue = exp::switch_queue_bytes_for(
      cfg.protocol, topo_cfg.switch_buffer_bytes, topo_cfg.link_bps, 1460);
  const auto opts = exp::default_options(cfg.protocol, topo_cfg.link_bps, cfg.min_rto);

  tr.timed("exp.simulation", [&] {
    r.times.world_s = tr.timed("exp.world", [&] {
      world = make_world();
      inv.emplace(*world);
    });
    r.times.topo_s = tr.timed("topo.build", [&] {
      topo = topo::build_fat_tree(world->network, topo_cfg);
      topo::shard_network(world->network, world->engine);
    });
    const int n = static_cast<int>(topo.hosts.size());
    // Sinks and object sizes are drawn in exp::run_fattree's order: per
    // host, the sink and then its small objects.
    r.times.flow_setup_s = tr.timed("tcp.flow_setup", [&] {
      sim::Rng rng{cfg.seed};
      for (int i = 0; i < n; ++i) {
        int sink = static_cast<int>(rng.uniform_int(0, n - 2));
        if (sink >= i) ++sink;
        flows.push_back(core::make_protocol_flow(world->network, *topo.hosts[i],
                                                 *topo.hosts[sink], cfg.protocol, opts));
        inv->watch(*flows.back().sender);
        auto& sizes = small_bytes.emplace_back();
        for (int o = 0; o < cfg.small_objects; ++o) {
          sizes.push_back(static_cast<std::uint64_t>(rng.uniform_int(2048, 6144)));
        }
      }
    });
    r.times.schedule_s = tr.timed("http.schedule", [&] {
      big_ids.assign(static_cast<std::size_t>(n), 0);
      for (int i = 0; i < n; ++i) {
        auto* sender = flows[i].sender.get();
        sim::Simulator* host_sim = topo.hosts[i]->simulator();
        std::uint64_t sent = 0;
        sim::SimTime t = cfg.small_start;
        for (const std::uint64_t bytes : small_bytes[i]) {
          sent += bytes;
          host_sim->schedule_at(t, [sender, bytes] { sender->write(bytes); });
          t += cfg.small_spacing;
        }
        const std::uint64_t big = cfg.total_bytes > sent ? cfg.total_bytes - sent : 1;
        auto* id_slot = &big_ids[i];
        host_sim->schedule_at(cfg.big_start, [sender, big, id_slot] {
          *id_slot = sender->write(big);
        });
      }
    });
    r.times.run_s = tr.timed("sim.run", [&] { run_counted(*world, cfg.run_until, r.counts); });

    stats::Summary done;
    for (int i = 0; i < n; ++i) {
      const auto& big = flows[i].sender->stats().messages().at(big_ids[i]);
      if (big.done()) done.add((*big.completed - cfg.small_start).to_millis());
      read_flow(flows[i].sender->stats(), r.counts);
    }
    r.counts.expected = static_cast<std::uint64_t>(n);
    r.counts.completed = done.count();
    if (!done.empty()) r.counts.result_ms = done.mean();
    if (r.counts.completed != r.counts.expected) {
      r.failure = std::to_string(r.counts.expected - r.counts.completed) +
                  " hosts' objects unfinished at the deadline";
    }
    finish_sim(*world, inv, tr, r);

    r.times.teardown_s = tr.timed("exp.teardown", [&] {
      inv.reset();
      flows.clear();
      world.reset();
    });
  });
  return r;
}

namespace {

// One connection of the churn. Endpoints are destroyed once both sides
// are terminal; their counts are folded into the result first.
struct Conn {
  tcp::Flow flow;
  int client = 0;
  int port = 0;
  bool sender_closed = false;
  bool sender_graceful = false;
  bool receiver_closed = false;
  bool reaped = false;
};

}  // namespace

SimResult run_churn(const exp::ConnectionStormConfig& cfg, Tracer& tr) {
  exp::validate(cfg);
  if (cfg.bottleneck_fault.any_enabled()) {
    throw std::invalid_argument("perfbench: churn runs the clean profile only");
  }
  SimResult r;
  SimCounts& c = r.counts;
  std::unique_ptr<exp::World> world;
  std::optional<exp::InvariantScope> inv;
  topo::TwoTier topo;
  std::vector<net::Host*> clients;
  std::optional<tcp::ListenQueue> backlog;
  std::vector<std::unique_ptr<tcp::PortAllocator>> ports;
  std::vector<std::unique_ptr<tcp::RstResponder>> responders;
  std::vector<std::unique_ptr<Conn>> conns;
  stats::Summary setup_ms;

  topo::TwoTierConfig topo_cfg;
  topo_cfg.num_switches = cfg.num_switches;
  topo_cfg.servers_per_switch = cfg.clients_per_switch;
  topo_cfg.switch_queue = exp::switch_queue_for(cfg.protocol, topo_cfg.switch_buffer_pkts,
                                                topo_cfg.edge_bps);
  auto opts = exp::default_options(cfg.protocol, topo_cfg.edge_bps, cfg.min_rto);
  opts.tcp.max_rto = cfg.max_rto;
  opts.tcp.simulate_handshake = true;
  opts.tcp.lifecycle = cfg.lifecycle;
  tcp::ReceiverConfig rcfg;
  rcfg.expect_handshake = true;
  rcfg.lifecycle = cfg.lifecycle;

  // Folds one connection's endpoint counts into the result.
  auto account = [&](const Conn& conn) {
    const auto& ls = conn.flow.sender->lifecycle_stats();
    const auto& lr = conn.flow.receiver->lifecycle_stats();
    if (ls.ever_established) setup_ms.add(ls.setup_latency.to_millis());
    c.syn_retx += ls.syn_retx + lr.synack_retx;
    read_flow(conn.flow.sender->stats(), c);
  };

  // Reaping mirrors exp::run_connection_storm: deferred to a zero-delay
  // event, because the trigger runs inside the endpoint being destroyed.
  auto maybe_reap = [&](Conn* conn) {
    if (conn->reaped || !conn->sender_closed) return;
    if (!conn->receiver_closed &&
        conn->flow.receiver->conn_state() != tcp::ConnState::kListen) {
      return;
    }
    conn->reaped = true;
    world->simulator.schedule(sim::SimTime::zero(), [&, conn] {
      account(*conn);
      if (conn->sender_graceful) {
        ports[conn->client]->release(conn->port);
      } else {
        ports[conn->client]->release_with_hold(conn->port, cfg.lifecycle.time_wait);
      }
      inv->unwatch(*conn->flow.sender);
      inv->unwatch(*conn->flow.receiver);
      conn->flow.sender.reset();
      conn->flow.receiver.reset();
    });
  };

  tr.timed("exp.simulation", [&] {
    r.times.world_s = tr.timed("exp.world", [&] { world = make_world(); });
    r.times.topo_s = tr.timed("topo.build", [&] {
      topo = topo::build_two_tier(world->network, topo_cfg);
      for (const auto& group : topo.servers) {
        clients.insert(clients.end(), group.begin(), group.end());
      }
    });
    r.times.flow_setup_s = tr.timed("tcp.flow_setup", [&] {
      inv.emplace(*world);
      backlog.emplace(cfg.backlog);
      inv->watch(*backlog);
      for (net::Host* client : clients) {
        ports.push_back(std::make_unique<tcp::PortAllocator>(&world->simulator, cfg.ports));
        ports.back()->set_telemetry_subject(obs::subject_id(client->name()));
      }
      responders.push_back(std::make_unique<tcp::RstResponder>(topo.front_end));
      topo.front_end->set_default_agent(responders.back().get());
      for (net::Host* client : clients) {
        responders.push_back(std::make_unique<tcp::RstResponder>(client));
        client->set_default_agent(responders.back().get());
      }
      conns.reserve(static_cast<std::size_t>(cfg.connections_total));
    });
    r.times.schedule_s = tr.timed("http.schedule", [&] {
      sim::Rng rng{cfg.seed};
      const auto mean_gap = sim::SimTime::seconds(1.0 / cfg.arrival_rate_cps);
      auto at = cfg.start;
      for (int i = 0; i < cfg.connections_total; ++i) {
        const auto client = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(clients.size()) - 1));
        world->simulator.schedule_at(at, [&, client] {
          const auto port = ports[client]->allocate();
          if (!port) {
            obs::emit(&world->simulator, obs::EventKind::kPortExhausted,
                      obs::subject_id(clients[client]->name()),
                      static_cast<double>(ports[client]->ports_held()));
            return;
          }
          auto conn = std::make_unique<Conn>();
          conn->client = static_cast<int>(client);
          conn->port = *port;
          conn->flow = core::make_protocol_flow(world->network, *clients[client],
                                                *topo.front_end, cfg.protocol, opts, rcfg);
          conn->flow.receiver->set_listen_queue(&*backlog);
          inv->watch(*conn->flow.sender);
          inv->watch(*conn->flow.receiver);
          Conn* cp = conn.get();
          cp->flow.sender->add_closed_callback([&, cp](bool graceful, sim::SimTime) {
            cp->sender_closed = true;
            cp->sender_graceful = graceful;
            maybe_reap(cp);
          });
          cp->flow.receiver->add_closed_callback([&, cp](bool, sim::SimTime) {
            cp->receiver_closed = true;
            maybe_reap(cp);
          });
          cp->flow.sender->connect();
          cp->flow.sender->write(cfg.request_bytes);
          cp->flow.sender->close();
          conns.push_back(std::move(conn));
        });
        at += rng.exponential_time(mean_gap);
      }
    });
    r.times.run_s = tr.timed("sim.run", [&] { run_counted(*world, cfg.run_until, c); });

    std::uint64_t stuck = 0;
    for (const auto& conn : conns) {
      if (conn->sender_closed) ++c.conns_closed;
      if (!conn->reaped) {
        ++stuck;
        account(*conn);
      }
    }
    c.msgs_total = static_cast<std::uint64_t>(cfg.connections_total);
    c.msgs_done = c.conns_closed;
    c.expected = conns.size();
    c.completed = conns.size() - stuck;
    if (!setup_ms.empty()) c.result_ms = setup_ms.mean();
    if (stuck != 0) r.failure = std::to_string(stuck) + " connections stuck at the deadline";
    finish_sim(*world, inv, tr, r);

    r.times.teardown_s = tr.timed("exp.teardown", [&] {
      conns.clear();
      responders.clear();
      ports.clear();
      backlog.reset();
      inv.reset();
      world.reset();
    });
  });
  return r;
}

namespace {

constexpr std::pair<Workload, const char*> kWorkloads[] = {
    {Workload::kTwoTier1050, "twotier_1050"},
    {Workload::kFattreeK8, "fattree_k8"},
    {Workload::kConnChurn, "conn_churn"},
};

SimResult run_sim(const SimConfig& cfg, Tracer& tr) {
  if (const auto* c = std::get_if<exp::LargeScaleConfig>(&cfg)) return run_two_tier(*c, tr);
  if (const auto* c = std::get_if<exp::FattreeConfig>(&cfg)) return run_fat_tree(*c, tr);
  return run_churn(std::get<exp::ConnectionStormConfig>(cfg), tr);
}

}  // namespace

bool parse_workload(const std::string& name, Workload& out) {
  for (const auto& [w, n] : kWorkloads) {
    if (name == n) {
      out = w;
      return true;
    }
  }
  return false;
}

const char* workload_name(Workload w) {
  for (const auto& [id, n] : kWorkloads) {
    if (id == w) return n;
  }
  return "?";
}

std::vector<SimSpec> workload_sims(Workload w, std::uint64_t seed) {
  switch (w) {
    case Workload::kTwoTier1050: {
      // Fig. 8 at its largest point: 25 ToRs x 42 servers, RTO 20 ms.
      exp::LargeScaleConfig cfg;
      cfg.num_switches = 25;
      cfg.servers_per_switch = 42;
      cfg.seed = seed;
      cfg.protocol = tcp::Protocol::kReno;
      auto trim_cfg = cfg;
      trim_cfg.protocol = tcp::Protocol::kTrim;
      return {{"reno", cfg}, {"trim", trim_cfg}};
    }
    case Workload::kFattreeK8: {
      // Fig. 12 at k = 8: 128 hosts, 1 MB each to a random sink.
      exp::FattreeConfig cfg;
      cfg.pods = 8;
      cfg.seed = seed;
      cfg.protocol = tcp::Protocol::kDctcp;
      auto trim_cfg = cfg;
      trim_cfg.protocol = tcp::Protocol::kTrim;
      return {{"dctcp", cfg}, {"trim", trim_cfg}};
    }
    case Workload::kConnChurn: {
      // The clean storm profile of bench_conn_storm, scaled to 20k
      // connections from 80 clients at 20k connections/s.
      exp::ConnectionStormConfig cfg;
      cfg.num_switches = 4;
      cfg.clients_per_switch = 20;
      cfg.connections_total = 20000;
      cfg.arrival_rate_cps = 20000.0;
      cfg.request_bytes = 10 * 1460ull;
      cfg.run_until = sim::SimTime::seconds(6.0);
      cfg.seed = seed;
      cfg.min_rto = sim::SimTime::millis(50);
      cfg.max_rto = sim::SimTime::millis(400);
      cfg.lifecycle.retx_rto_initial = sim::SimTime::millis(50);
      cfg.lifecycle.retx_rto_max = sim::SimTime::millis(400);
      cfg.lifecycle.time_wait = sim::SimTime::millis(100);
      return {{"reno", cfg}};
    }
  }
  return {};
}

PassResult run_pass(const std::vector<SimSpec>& sims, Tracer& tr) {
  PassResult pass;
  pass.wall_s = tr.timed("bench.pass", [&] {
    for (std::size_t i = 0; i < sims.size(); ++i) {
      tr.set_sim(static_cast<int>(i));
      pass.sims.push_back(run_sim(sims[i].cfg, tr));
      pass.sims.back().label = sims[i].label;
    }
    tr.set_sim(-1);
  });

  const SimResult* reno = nullptr;
  SimResult* trim_run = nullptr;
  for (std::size_t i = 0; i < sims.size(); ++i) {
    const auto* cfg = std::get_if<exp::LargeScaleConfig>(&sims[i].cfg);
    if (cfg == nullptr) continue;
    if (cfg->protocol == tcp::Protocol::kReno) reno = &pass.sims[i];
    if (cfg->protocol == tcp::Protocol::kTrim) trim_run = &pass.sims[i];
  }
  if (reno != nullptr && trim_run != nullptr && trim_run->failure.empty() &&
      !(trim_run->counts.result_ms < reno->counts.result_ms)) {
    trim_run->failure = "TRIM mean SPT ACT " + std::to_string(trim_run->counts.result_ms) +
                        " ms is not below Reno's " +
                        std::to_string(reno->counts.result_ms) + " ms";
  }
  return pass;
}

Tally tally(const std::vector<PassResult>& passes) {
  Tally t;
  for (const auto& p : passes) {
    for (const auto& s : p.sims) {
      ++t.attempted;
      if (!s.failure.empty()) ++t.failed;
    }
  }
  return t;
}

SimCounts pass_counts(const PassResult& pass) {
  SimCounts t;
  for (const auto& s : pass.sims) {
    const auto& c = s.counts;
    t.events += c.events;
    t.host_pkts += c.host_pkts;
    t.link_tx += c.link_tx;
    t.drops += c.drops;
    t.ce_marks += c.ce_marks;
    t.segments_sent += c.segments_sent;
    t.acks += c.acks;
    t.data_pkts += c.data_pkts;
    t.retx_pkts += c.retx_pkts;
    t.rto_armed += c.rto_armed;
    t.rto_fired += c.rto_fired;
    t.conns_closed += c.conns_closed;
    t.syn_retx += c.syn_retx;
    t.probe_rounds += c.probe_rounds;
    t.eq3_cuts += c.eq3_cuts;
    t.msgs_done += c.msgs_done;
    t.msgs_total += c.msgs_total;
    t.events_recorded += c.events_recorded;
    t.allocs_in_run += c.allocs_in_run;
    t.completed += c.completed;
    t.expected += c.expected;
  }
  return t;
}

std::uint64_t sim_digest(const PassResult& pass) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ull;
    }
  };
  for (const auto& s : pass.sims) {
    const auto& c = s.counts;
    for (const std::uint64_t v :
         {c.host_pkts, c.link_tx, c.drops, c.ce_marks, c.segments_sent, c.acks,
          c.data_pkts, c.retx_pkts, c.rto_armed, c.rto_fired, c.conns_closed, c.syn_retx,
          c.probe_rounds, c.eq3_cuts, c.msgs_done, c.msgs_total, c.events_recorded,
          c.completed, c.expected}) {
      mix(v);
    }
    std::uint64_t bits = 0;
    std::memcpy(&bits, &c.result_ms, sizeof bits);
    mix(bits);
  }
  return h;
}

}  // namespace perfbench
