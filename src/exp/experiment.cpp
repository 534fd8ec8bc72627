#include "exp/experiment.hpp"

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <system_error>

#include "net/routing.hpp"
#include "obs/profiler.hpp"
#include "obs/trace_export.hpp"

namespace trim::exp {

World::World() : engine{simulator}, network{&simulator} {
  telemetry.attach(simulator);
  memory.attach(simulator);
}

World::World(int shards, std::nullopt_t, std::nullopt_t) : World{} {
  require_serial(shards, "World");
}

World::~World() {
  if (simulator.run_wall_ns() > 0) {
    obs::sweep_profiler().add("sim.run", simulator.run_wall_ns(),
                              simulator.events_dispatched());
  }
  if (obs::trace_enabled()) {
    obs::SpanTracer* tracer = telemetry.tracer();
    if (tracer == nullptr) return;
    tracer->finalize(telemetry.last_event_at());
    if (tracer->spans().empty() && !telemetry.recorder().ring_enabled()) return;
    std::string body = tracer->to_jsonl();
    body += telemetry.recorder().to_jsonl();
    // The "shard0" label predates the serial-only engine; the trace tool
    // and CI read TRACE_shard0_<seq>.jsonl, so the name stays.
    obs::write_trace_jsonl("shard0", body);
  }
}

void require_serial(int shards, const std::string& where) {
  require(shards <= 1, "more than one engine shard", where + "::shards",
          "0 or 1 (the serial engine)");
}

std::uint64_t base_seed() {
  const char* env = std::getenv("REPRO_SEED");
  if (env == nullptr) return 20160701ull;  // ICDCS 2016
  // Whole unsigned decimals only: from_chars rejects an empty string, a
  // sign, whitespace and overflow; the end check rejects trailing junk.
  const std::string_view text{env};
  std::uint64_t seed = 0;
  const auto [end, ec] = std::from_chars(text.data(), text.data() + text.size(), seed);
  if (ec != std::errc{} || end != text.data() + text.size()) {
    throw ConfigError{"bad REPRO_SEED '" + std::string{text} + "'", "REPRO_SEED",
                      "an unsigned decimal integer below 2^64"};
  }
  return seed;
}

bool quick_mode() {
  const char* env = std::getenv("REPRO_QUICK");
  return env != nullptr && env[0] == '1';
}

int repeats(int dflt, int quick) {
  if (const char* env = std::getenv("REPRO_REPEATS")) {
    const int n = std::atoi(env);
    if (n > 0) return n;
  }
  return quick_mode() ? quick : dflt;
}

std::uint64_t run_seed(std::uint64_t experiment_tag, int run_index) {
  return net::mix64(base_seed() ^ net::mix64(experiment_tag) ^
                    (static_cast<std::uint64_t>(run_index) << 17));
}

bool invariants_enabled() {
#ifndef NDEBUG
  return true;
#else
  static const bool on = [] {
    const char* env = std::getenv("TRIM_CHECK_INVARIANTS");
    return env != nullptr && env[0] == '1';
  }();
  return on;
#endif
}

InvariantScope::InvariantScope(World& world, sim::SimTime horizon) {
  if (!invariants_enabled()) return;
  checker_ = std::make_unique<fault::InvariantChecker>(&world.simulator,
                                                       &world.network);
  if (horizon > sim::SimTime::zero()) {
    // A coarse grid: enough samples to catch a transient leak without
    // noticeably slowing debug runs.
    checker_->schedule_checkpoints(horizon.scaled(1.0 / 8.0), horizon);
  }
}

std::size_t InvariantScope::finish(bool fail_hard) {
  finished_ = true;
  if (!checker_) return 0;
  checker_->check_now();
  const auto& violations = checker_->violations();
  for (const auto& v : violations) {
    std::fprintf(stderr, "INVARIANT VIOLATION [%s] t=%.6fs: %s\n",
                 v.invariant.c_str(), v.at.to_seconds(), v.detail.c_str());
  }
  if (fail_hard && !violations.empty()) {
    std::fprintf(stderr, "InvariantScope: %zu violation(s), aborting\n",
                 violations.size());
    std::abort();
  }
  return violations.size();
}

InvariantScope::~InvariantScope() {
  // Too late to inspect senders here (they may already be destroyed);
  // just flag the missing finish() so the scenario gets fixed.
  if (checker_ && !finished_) {
    std::fprintf(stderr, "InvariantScope: finish() never called; invariants "
                         "were not verified for this run\n");
  }
}

void print_banner(const std::string& title, const std::string& paper_ref) {
  std::printf("\n==== %s ====\n", title.c_str());
  std::printf("reproduces: %s (TCP-TRIM, ICDCS 2016)\n", paper_ref.c_str());
  if (quick_mode()) std::printf("[REPRO_QUICK=1: reduced repeats/scale]\n");
  std::printf("\n");
}

core::ProtocolOptions default_options(tcp::Protocol protocol, std::uint64_t nic_bps,
                                      sim::SimTime min_rto) {
  core::ProtocolOptions opts;
  opts.tcp.min_rto = min_rto;
  if (protocol == tcp::Protocol::kTrim) {
    opts.trim = core::TrimConfig::for_link(nic_bps, opts.tcp.mss);
  }
  return opts;
}

namespace {
std::uint32_t ecn_threshold_pkts(std::uint64_t link_bps) {
  // DCTCP guideline: K ~ 20 packets at 1 Gbps, 65 packets at 10 Gbps.
  return link_bps >= 10 * net::kGbps ? 65 : 20;
}
}  // namespace

net::QueueConfig switch_queue_for(tcp::Protocol protocol, std::uint32_t buffer_pkts,
                                  std::uint64_t link_bps) {
  if (protocol == tcp::Protocol::kDctcp || protocol == tcp::Protocol::kL2dct ||
      protocol == tcp::Protocol::kD2tcp) {
    return net::QueueConfig::ecn_packets(buffer_pkts, ecn_threshold_pkts(link_bps));
  }
  return net::QueueConfig::droptail_packets(buffer_pkts);
}

net::QueueConfig switch_queue_bytes_for(tcp::Protocol protocol,
                                        std::uint64_t buffer_bytes,
                                        std::uint64_t link_bps, std::uint32_t mss) {
  if (protocol == tcp::Protocol::kDctcp || protocol == tcp::Protocol::kL2dct ||
      protocol == tcp::Protocol::kD2tcp) {
    const std::uint64_t mark_bytes =
        static_cast<std::uint64_t>(ecn_threshold_pkts(link_bps)) * (mss + 40);
    return net::QueueConfig::ecn_bytes(buffer_bytes, mark_bytes);
  }
  return net::QueueConfig::droptail_bytes(buffer_bytes);
}

}  // namespace trim::exp
