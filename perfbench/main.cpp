// perfbench_driver: runs one benchmark workload (or all three) for a
// fixed host-time budget and prints every metric by name with its unit.
//
//   perfbench_driver --workload twotier_1050|fattree_k8|conn_churn|all
//                    --seed N --seconds S --trace 0|1 [--spans FILE]
//
// The workload's list of simulations runs back to back (a closed loop, one
// client) for about S seconds: one untimed warm-up pass, then at least two
// timed ones. Timings are medians over the timed passes; counts come from
// the warm-up pass and must repeat exactly in every later one. The reference
// kernel (ref_kernel.hpp) runs before every timed pass; the end-to-end times
// and rates are scaled by the square root of its slowdown, and the raw times
// are printed beside them. With --trace 1 the passes alternate between
// untraced and traced (spans recorded, invariant checker on), and the
// per-layer metrics are printed instead of the end-to-end ones; FILE gets
// every span as JSON lines.
//
// The last line of stdout is one JSON object: {"correct", "attempted",
// "failed", "metrics"}. Exit code 0 when every check passed, 1 when one
// failed, 2 on bad arguments or an error.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "ref_kernel.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace perfbench;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string spans_path;
};

bool parse_args(int argc, char** argv, Args& a) {
  bool have_workload = false, have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    try {
      if (key == "--workload") {
        a.workload = val;
        have_workload = true;
      } else if (key == "--seed") {
        a.seed = std::stoull(val);
        have_seed = true;
      } else if (key == "--seconds") {
        a.seconds = std::stod(val);
        have_seconds = a.seconds > 0.0;
      } else if (key == "--trace") {
        a.trace = val == "1";
        have_trace = val == "0" || val == "1";
      } else if (key == "--spans") {
        a.spans_path = val;
      } else {
        return false;
      }
    } catch (const std::exception&) {
      return false;
    }
  }
  return argc % 2 == 1 && have_workload && have_seed && have_seconds && have_trace;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

// Median over passes of one per-pass quantity.
double median_of(const std::vector<PassResult>& passes,
                 const std::function<double(const PassResult&)>& f) {
  std::vector<double> v;
  for (const auto& p : passes) v.push_back(f(p));
  return median(v);
}

double sum_times(const PassResult& p, double SimTimes::*field) {
  double s = 0.0;
  for (const auto& sim : p.sims) s += sim.times.*field;
  return s;
}

double setup_of(const PassResult& p) {
  double s = 0.0;
  for (const auto& sim : p.sims) s += sim.times.setup_s();
  return s;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

double max_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

int nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  return sched_getaffinity(0, sizeof set, &set) == 0 ? CPU_COUNT(&set) : 0;
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

struct WorkloadReport {
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  Tally tally;
  bool deterministic = true;
};

// ref_rss_mb is the reference kernel's memory, resident for the whole run and
// left out of peak_rss_mb.
WorkloadReport measure(Workload w, const Args& args, RefKernel& ref, double ref_rss_mb,
                       std::ofstream* spans_out) {
  const auto sims = workload_sims(w, args.seed);
  Tracer plain{false};
  Tracer traced{true};
  std::vector<PassResult> untraced_passes;
  std::vector<PassResult> traced_passes;
  std::vector<std::vector<Span>> traced_spans;              // per traced pass
  std::vector<std::map<std::string, double>> traced_self;  // per traced pass
  std::vector<PassResult> all;
  std::vector<double> ref_times;  // reference kernel runs, before each timed pass

  const auto start = std::chrono::steady_clock::now();
  auto elapsed = [&] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  };
  // The warm-up pass fills caches and the allocator's free lists; it is
  // checked like every other pass but left out of the timings.
  all.push_back(run_pass(sims, plain));
  std::fprintf(stderr, "# %s warm-up pass: %.3f s\n", workload_name(w), all.back().wall_s);
  // At least two timed passes; after that, no pass that would end past the
  // budget (judged by the previous pass), so a run takes about --seconds.
  double last_pass_s = all.back().wall_s;
  for (int i = 0; i < 2 || elapsed() + last_pass_s < args.seconds; ++i) {
    const bool with_spans = args.trace && i % 2 == 1;
    // About one kernel run per 0.5 s of pass, so that long passes get as
    // many speed samples per run as short ones.
    const int ref_runs = std::max(1, static_cast<int>(last_pass_s / 0.5));
    for (int k = 0; k < ref_runs; ++k) ref_times.push_back(ref.run());
    PassResult pass = run_pass(sims, with_spans ? traced : plain);
    if (with_spans) {
      traced_spans.push_back(traced.take());
      traced_self.push_back(self_times(traced_spans.back()));
      traced_passes.push_back(pass);
    } else {
      untraced_passes.push_back(pass);
    }
    std::fprintf(stderr, "# %s pass %d%s: %.3f s\n", workload_name(w), i,
                 with_spans ? " (traced)" : "", pass.wall_s);
    last_pass_s = pass.wall_s;
    all.push_back(std::move(pass));
  }

  if (spans_out != nullptr) {
    for (std::size_t p = 0; p < traced_spans.size(); ++p) {
      const auto& spans = traced_spans[p];
      for (std::size_t s = 0; s < spans.size(); ++s) {
        *spans_out << "{\"workload\":\"" << workload_name(w) << "\",\"traced_pass\":" << p
                   << ",\"sim\":" << spans[s].sim_id << ",\"span\":" << s
                   << ",\"parent\":" << spans[s].parent << ",\"name\":\"" << spans[s].name
                   << "\",\"start_s\":" << spans[s].start_s << ",\"end_s\":" << spans[s].end_s
                   << "}\n";
      }
    }
  }

  WorkloadReport rep;
  rep.tally = tally(all);
  const PassResult& first = all.front();
  for (const auto& p : all) {
    for (std::size_t s = 0; s < p.sims.size(); ++s) {
      if (!(p.sims[s].counts == first.sims[s].counts)) rep.deterministic = false;
    }
  }

  std::printf("workload %s seed %llu passes %zu (1 warm-up, %zu traced)\n", workload_name(w),
              static_cast<unsigned long long>(args.seed), all.size(), traced_passes.size());
  for (const auto& p : all) {
    for (const auto& s : p.sims) {
      if (!s.failure.empty()) std::printf("FAILED %s: %s\n", s.label.c_str(), s.failure.c_str());
    }
  }
  for (const auto& s : first.sims) {
    std::printf("sim %s result_ms %.6f completed %llu/%llu events %llu\n", s.label.c_str(),
                s.counts.result_ms, static_cast<unsigned long long>(s.counts.completed),
                static_cast<unsigned long long>(s.counts.expected),
                static_cast<unsigned long long>(s.counts.events));
  }
  std::printf("sim_digest %s %016llx\n", workload_name(w),
              static_cast<unsigned long long>(sim_digest(first)));
  if (!rep.deterministic) std::printf("FAILED determinism: counts differ between passes\n");

  // End-to-end metrics come from untraced passes only. Times are scaled
  // towards the machine speed at which the reference kernel takes kNominalS
  // (see ref_kernel.hpp for why by the square root).
  const auto& e2e = untraced_passes;
  const double wall = median_of(e2e, [](const PassResult& p) { return p.wall_s; });
  const double ref_s = median(ref_times);
  const double scale = std::sqrt(RefKernel::kNominalS / ref_s);
  rep.end_to_end = {
      {"wall_s", wall * scale, "s"},
      {"setup_s", median_of(e2e, setup_of) * scale, "s"},
      {"pkts_per_s",
       median_of(e2e, [](const PassResult& p) { return ratio(pass_counts(p).host_pkts, p.wall_s); }) /
           scale,
       "1/s"},
      {"msgs_per_s",
       median_of(e2e, [](const PassResult& p) { return ratio(pass_counts(p).msgs_done, p.wall_s); }) /
           scale,
       "1/s"},
      {"peak_rss_mb", max_rss_mb() - ref_rss_mb, "MB"},
  };

  // Layer times come from the traced passes when there are any.
  const auto& lp = args.trace ? traced_passes : untraced_passes;
  auto layer_time = [&](double SimTimes::*field) {
    return median_of(lp, [field](const PassResult& p) { return sum_times(p, field); });
  };
  const SimCounts c = pass_counts(first);
  std::uint64_t violations = 0;  // over every pass
  for (const auto& p : all) {
    for (const auto& s : p.sims) violations += s.invariant_violations;
  }
  const double run_s = layer_time(&SimTimes::run_s);
  const double events = static_cast<double>(c.events);
  const double pkts = static_cast<double>(c.host_pkts);
  const double hops = static_cast<double>(c.link_tx);
  rep.per_layer = {
      {"host.wall_s", wall, "s"},
      {"host.ref_s", ref_s, "s"},
      {"sim.run_s", run_s, "s"},
      {"sim.ns_per_event", ratio(run_s * 1e9, events), "ns"},
      {"sim.events", events, "count"},
      {"sim.events_per_pkt", ratio(events, pkts), "events/pkt"},
      {"sim.events_per_s", ratio(events, run_s), "1/s"},
      {"net.host_pkts", pkts, "count"},
      {"net.link_tx", hops, "count"},
      {"net.hops_per_pkt", ratio(hops, pkts), "hops/pkt"},
      {"net.events_per_hop", ratio(events, hops), "events/hop"},
      {"net.drops", static_cast<double>(c.drops), "count"},
      {"net.drop_ratio", ratio(static_cast<double>(c.drops), pkts), "ratio"},
      {"net.ce_marks", static_cast<double>(c.ce_marks), "count"},
      {"tcp.segments_sent", static_cast<double>(c.segments_sent), "count"},
      {"tcp.acks", static_cast<double>(c.acks), "count"},
      {"tcp.rto_armed", static_cast<double>(c.rto_armed), "count"},
      {"tcp.rto_fired", static_cast<double>(c.rto_fired), "count"},
      {"tcp.retx_ratio",
       ratio(static_cast<double>(c.retx_pkts), static_cast<double>(c.data_pkts)), "ratio"},
      {"tcp.flow_setup_s", layer_time(&SimTimes::flow_setup_s), "s"},
      {"tcp.conns_closed", static_cast<double>(c.conns_closed), "count"},
      {"tcp.syn_retx", static_cast<double>(c.syn_retx), "count"},
      {"core.probe_rounds", static_cast<double>(c.probe_rounds), "count"},
      {"core.eq3_cuts", static_cast<double>(c.eq3_cuts), "count"},
      {"http.schedule_s", layer_time(&SimTimes::schedule_s), "s"},
      {"http.msgs_done", static_cast<double>(c.msgs_done), "count"},
      {"http.msgs_total", static_cast<double>(c.msgs_total), "count"},
      {"topo.build_s", layer_time(&SimTimes::topo_s), "s"},
      {"obs.snapshot_s", layer_time(&SimTimes::snapshot_s), "s"},
      {"obs.events_recorded", static_cast<double>(c.events_recorded), "count"},
      {"exp.world_s", layer_time(&SimTimes::world_s), "s"},
      {"exp.teardown_s", layer_time(&SimTimes::teardown_s), "s"},
      {"exp.invariant_violations", static_cast<double>(violations), "count"},
      {"fail_ratio", rep.tally.fail_ratio(), "ratio"},
      {"mem.allocs_in_run", static_cast<double>(c.allocs_in_run), "count"},
  };

  if (args.trace) {
    // Self time per span name, median over traced passes. The roots
    // (bench.pass, exp.simulation) hold the benchmark's own glue: reading
    // counters and checking results between layer calls.
    std::map<std::string, std::vector<double>> by_name;
    double worst_gap = 0.0;
    for (std::size_t p = 0; p < traced_self.size(); ++p) {
      double total = 0.0;
      for (const auto& [name, t] : traced_self[p]) {
        by_name[name].push_back(t);
        total += t;
      }
      worst_gap = std::max(worst_gap, std::abs(total - traced_passes[p].wall_s));
    }
    for (const auto& [name, v] : by_name) {
      std::printf("self %-16s %.6f s\n", name.c_str(), median(v));
    }
    std::printf("trace accounting: self times sum to traced wall within %.3g s\n", worst_gap);
    const double traced_wall =
        median_of(traced_passes, [](const PassResult& p) { return p.wall_s; });
    std::vector<double> untimed;
    for (const auto& self : traced_self) {
      untimed.push_back(self.at("bench.pass") + self.at("exp.simulation"));
    }
    rep.per_layer.push_back({"trace.wall_s", traced_wall, "s"});
    rep.per_layer.push_back({"trace.untraced_wall_s", wall, "s"});
    rep.per_layer.push_back({"trace.overhead_s", traced_wall - wall, "s"});
    rep.per_layer.push_back({"trace.untimed_s", median(untimed), "s"});
  }
  return rep;
}

void print_metrics(const std::vector<Metric>& ms) {
  for (const auto& m : ms) std::printf("metric %-24s %.9g %s\n", m.name.c_str(), m.value, m.unit.c_str());
}

void json_metrics(std::string& out, const std::string& prefix, const std::vector<Metric>& ms) {
  char buf[64];
  for (const auto& m : ms) {
    if (out.back() != '{') out += ",";
    std::snprintf(buf, sizeof buf, "%.17g", m.value);
    out += "\"" + prefix + m.name + "\":{\"value\":" + buf + ",\"unit\":\"" + m.unit + "\"}";
  }
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench_driver --workload twotier_1050|fattree_k8|conn_churn|all "
                 "--seed N --seconds S --trace 0|1 [--spans FILE]\n");
    return 2;
  }
  std::vector<Workload> workloads;
  if (args.workload == "all") {
    workloads = {Workload::kTwoTier1050, Workload::kFattreeK8, Workload::kConnChurn};
  } else {
    Workload w{};
    if (!parse_workload(args.workload, w)) {
      std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
      return 2;
    }
    workloads = {w};
  }
  // The traced run also checks the simulation invariants; the knob is read
  // once, before the first world exists.
  if (args.trace) setenv("TRIM_CHECK_INVARIANTS", "1", 1);

  std::printf("env hw_threads %u nproc %d compiler \"%s\" build_type %s\n",
              std::thread::hardware_concurrency(), nproc(), compiler().c_str(),
              PERFBENCH_BUILD_TYPE);

  RefKernel ref;
  const double ref_rss_mb = static_cast<double>(ref.resident_bytes()) / (1024.0 * 1024.0);

  std::ofstream spans_out;
  if (args.trace && !args.spans_path.empty()) {
    spans_out.open(args.spans_path);
    spans_out.precision(12);
  }

  Tally total;
  bool correct = true;
  std::string metrics = "{";
  try {
    for (const Workload w : workloads) {
      const auto rep =
          measure(w, args, ref, ref_rss_mb, spans_out.is_open() ? &spans_out : nullptr);
      print_metrics(rep.end_to_end);
      print_metrics(rep.per_layer);
      total.attempted += rep.tally.attempted;
      total.failed += rep.tally.failed;
      correct = correct && rep.deterministic && rep.tally.failed == 0;
      const std::string prefix =
          workloads.size() > 1 ? std::string(workload_name(w)) + "." : std::string();
      json_metrics(metrics, prefix, args.trace ? rep.per_layer : rep.end_to_end);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
  metrics += "}";
  std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,\"metrics\":%s}\n",
              correct ? "true" : "false", static_cast<unsigned long long>(total.attempted),
              static_cast<unsigned long long>(total.failed), metrics.c_str());
  return correct ? 0 : 1;
}
