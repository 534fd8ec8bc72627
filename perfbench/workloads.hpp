// The benchmark's workloads: fixed lists of simulations, each driven
// through the layers' public functions and timed from outside.
//
// A simulation is built the way exp::run_large_scale, exp::run_fattree and
// exp::run_connection_storm build theirs (the tests hold the driver to
// their results), but every layer call sits inside its own span so the
// benchmark can say where host time goes: World construction (exp), the
// topology and its routes (topo), flow construction (tcp), application
// scheduling (http), the event loop (sim), the telemetry snapshot (obs)
// and teardown (exp). Per-layer work is read through public accessors
// after the run.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "exp/connection_storm_scenario.hpp"
#include "exp/fattree_scenario.hpp"
#include "exp/large_scale_scenario.hpp"

namespace perfbench {

// One timed interval around a layer call. `parent` indexes the enclosing
// span (-1 for a root); `sim_id` names the simulation it belongs to.
struct Span {
  const char* name = "";
  double start_s = 0.0;  // seconds since the tracer was created
  double end_s = 0.0;
  int parent = -1;
  int sim_id = -1;
};

// Times every span; keeps them in memory only when `record` is set.
// Spans are strictly nested (one thread, calls made one after another).
class Tracer {
 public:
  explicit Tracer(bool record) : record_(record) {}

  // Runs `fn` inside a span named `name`; returns its duration in seconds.
  template <class Fn>
  double timed(const char* name, Fn&& fn) {
    const double start = now();
    int index = -1;
    if (record_) {
      index = static_cast<int>(spans_.size());
      spans_.push_back({name, start, start, open_.empty() ? -1 : open_.back(),
                        sim_id_});
      open_.push_back(index);
    }
    fn();
    const double end = now();
    if (record_) {
      spans_[static_cast<std::size_t>(index)].end_s = end;
      open_.pop_back();
    }
    return end - start;
  }

  void set_sim(int id) { sim_id_ = id; }
  // Hands over the spans recorded so far (all closed) and starts afresh.
  std::vector<Span> take() { return std::exchange(spans_, {}); }

 private:
  double now() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - epoch_)
        .count();
  }

  bool record_;
  std::chrono::steady_clock::time_point epoch_ = std::chrono::steady_clock::now();
  std::vector<Span> spans_;
  std::vector<int> open_;
  int sim_id_ = -1;
};

// Self time per span name: each span's duration minus the time its direct
// children cover. Summed over all names it equals the roots' total duration.
std::map<std::string, double> self_times(const std::vector<Span>& spans);

// Deterministic per-simulation counts: the same config gives the same
// values on every run.
struct SimCounts {
  std::uint64_t events = 0;          // sim: events dispatched
  std::uint64_t host_pkts = 0;       // net: packets sent by hosts
  std::uint64_t link_tx = 0;         // net: packets delivered by links
  std::uint64_t drops = 0;           // net: queue drops
  std::uint64_t ce_marks = 0;        // net: ECN CE marks
  std::uint64_t segments_sent = 0;   // tcp: tcp.segments_sent counter
  std::uint64_t acks = 0;            // tcp: tcp.acks_processed counter
  std::uint64_t data_pkts = 0;       // tcp: data packets sent by senders
  std::uint64_t retx_pkts = 0;       // tcp: of which retransmissions
  std::uint64_t rto_armed = 0;       // tcp: RTO timer arms
  std::uint64_t rto_fired = 0;       // tcp: RTO firings
  std::uint64_t conns_closed = 0;    // tcp: churn connections closed
  std::uint64_t syn_retx = 0;        // tcp: SYN/SYN-ACK retransmissions
  std::uint64_t probe_rounds = 0;    // core: TRIM inter-train probes
  std::uint64_t eq3_cuts = 0;        // core: TRIM Eq. 3 reductions
  std::uint64_t msgs_done = 0;       // http: transfers completed
  std::uint64_t msgs_total = 0;      // http: transfers started
  std::uint64_t events_recorded = 0; // obs: flight-recorder events
  std::uint64_t allocs_in_run = 0;   // mem: operator new calls in run_until
  // The workload's science result: mean SPT ACT (two-tier), mean server
  // completion (fat-tree) or mean connection setup latency (churn), ms.
  double result_ms = 0.0;
  std::uint64_t completed = 0;       // SPTs / servers / connections done
  std::uint64_t expected = 0;        // ... and how many had to finish

  bool operator==(const SimCounts&) const = default;
};

// Host seconds spent in each layer call of one simulation.
struct SimTimes {
  double world_s = 0.0;       // exp::World construction
  double topo_s = 0.0;        // topology + routes + shard assignment
  double flow_setup_s = 0.0;  // flows (and churn's listen/port/RST state)
  double schedule_s = 0.0;    // application events
  double run_s = 0.0;         // World::run_until
  double snapshot_s = 0.0;    // World::telemetry_snapshot
  double teardown_s = 0.0;    // apps, flows, ~World

  double setup_s() const { return world_s + topo_s + flow_setup_s + schedule_s; }
};

struct SimResult {
  std::string label;
  SimCounts counts;
  SimTimes times;
  std::uint64_t invariant_violations = 0;  // 0 unless invariants are enabled
  std::string failure;                     // empty when every check passed
};

// Two-tier incast (Fig. 8). Checks: every SPT completes.
SimResult run_two_tier(const trim::exp::LargeScaleConfig& cfg, Tracer& tr);
// Fat-tree (Fig. 12). Checks: every host's big object completes.
SimResult run_fat_tree(const trim::exp::FattreeConfig& cfg, Tracer& tr);
// Connection churn (clean storm profile). Checks: no stuck connection.
SimResult run_churn(const trim::exp::ConnectionStormConfig& cfg, Tracer& tr);

enum class Workload { kTwoTier1050, kFattreeK8, kConnChurn };

// Parses a workload name; false when it names none.
bool parse_workload(const std::string& name, Workload& out);
const char* workload_name(Workload w);

using SimConfig = std::variant<trim::exp::LargeScaleConfig, trim::exp::FattreeConfig,
                               trim::exp::ConnectionStormConfig>;
struct SimSpec {
  std::string label;
  SimConfig cfg;
};

// The fixed list of simulations one pass of workload `w` runs.
std::vector<SimSpec> workload_sims(Workload w, std::uint64_t seed);

struct PassResult {
  std::vector<SimResult> sims;
  double wall_s = 0.0;
};

// Runs every simulation of `sims` once, in order, inside one "bench.pass"
// span, then applies the cross-simulation check: where a pass holds a
// Reno and a TRIM two-tier run, TRIM's mean SPT ACT must be below Reno's
// (the Fig. 8 claim); otherwise the TRIM run fails.
PassResult run_pass(const std::vector<SimSpec>& sims, Tracer& tr);

// Failed simulations over attempted ones, across passes.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  double fail_ratio() const {
    return attempted == 0 ? 0.0 : static_cast<double>(failed) / attempted;
  }
};
Tally tally(const std::vector<PassResult>& passes);

// Per-pass sum of the counts of every simulation (result_ms excluded).
SimCounts pass_counts(const PassResult& pass);

// FNV-1a over every simulation's simulated statistics, in order. Engine
// events and host allocations are left out: a simulator-only change may
// move them without changing the simulated network.
std::uint64_t sim_digest(const PassResult& pass);

}  // namespace perfbench
