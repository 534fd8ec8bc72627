#!/usr/bin/env python3
"""Gate engine throughput (and memory) against the last main-branch baseline.

Compares a freshly produced BENCH_*.json against a baseline copy restored
from the CI cache (written by the last successful run on main):

  - events/s: each gated scenario's `items_per_sec` must not drop more
    than --threshold below the baseline.
  - RSS: the file-level `peak_rss_bytes` must not grow more than
    --rss-threshold above the baseline (0 disables the gate).

Scenarios are filtered by prefix so one bench file can carry several
curves while only the gated ones fail the build.

Beyond the hard gate, --history-dir keeps a rolling window of the last
--history-keep result files and prints the events/s and RSS trajectory
across them, so a slow drift that never trips the single-step threshold
is still visible in the job log.

A missing or unreadable baseline is not an error: the first run on a
fresh cache simply records the current numbers (CI re-saves them when on
main). Shared runners are noisy, so the default thresholds are generous
— these catch real regressions (an accidental O(n) scan in the window
loop, a per-event allocation creeping back in), not scheduling jitter.

Exit status: 0 = no regression (or no baseline), 1 = regression, 2 = bad
invocation.
"""

import argparse
import json
import os
import shutil
import sys


def load_doc(path):
    with open(path) as f:
        return json.load(f)


def results_by_scenario(doc):
    return {row["scenario"]: row for row in doc.get("results", [])}


def gate_throughput(current, baseline, prefix, threshold):
    gated = sorted(s for s in current
                   if s.startswith(prefix) and s in baseline)
    if not gated:
        print(f"no overlapping scenarios with prefix {prefix!r}; "
              "nothing to gate")
        return False

    failed = False
    for scenario in gated:
        cur = current[scenario]["items_per_sec"]
        base = baseline[scenario]["items_per_sec"]
        ratio = cur / base if base > 0 else float("inf")
        status = "ok"
        if base > 0 and ratio < 1.0 - threshold:
            status = f"FAIL (-{(1.0 - ratio) * 100.0:.1f}% > {threshold * 100.0:.0f}%)"
            failed = True
        print(f"{scenario}: {cur:.3g} vs baseline {base:.3g} ev/s "
              f"({ratio:.2f}x)  {status}")
    return failed


def gate_rss(current_doc, baseline_doc, threshold):
    cur = current_doc.get("peak_rss_bytes", 0)
    base = baseline_doc.get("peak_rss_bytes", 0)
    if threshold <= 0 or base <= 0 or cur <= 0:
        return False
    ratio = cur / base
    status = "ok"
    failed = False
    if ratio > 1.0 + threshold:
        status = f"FAIL (+{(ratio - 1.0) * 100.0:.1f}% > {threshold * 100.0:.0f}%)"
        failed = True
    print(f"peak RSS: {cur / 1e6:.1f} MB vs baseline {base / 1e6:.1f} MB "
          f"({ratio:.2f}x)  {status}")
    return failed


def update_history(history_dir, current_path, prefix, keep):
    """Append the current results to the rolling window and print the
    events/s + RSS trajectory across everything stored."""
    os.makedirs(history_dir, exist_ok=True)
    stem = os.path.splitext(os.path.basename(current_path))[0]
    existing = sorted(f for f in os.listdir(history_dir)
                      if f.startswith(stem + ".") and f.endswith(".json"))
    next_idx = 0
    if existing:
        try:
            next_idx = max(int(f[len(stem) + 1:-5]) for f in existing) + 1
        except ValueError:
            next_idx = len(existing)
    shutil.copy(current_path, os.path.join(history_dir, f"{stem}.{next_idx:06d}.json"))
    existing = sorted(f for f in os.listdir(history_dir)
                      if f.startswith(stem + ".") and f.endswith(".json"))
    for stale in existing[:-keep]:
        os.remove(os.path.join(history_dir, stale))
        existing.remove(stale)

    print(f"\nperf trajectory over the last {len(existing)} recorded runs "
          f"(oldest first):")
    for fname in existing:
        try:
            doc = load_doc(os.path.join(history_dir, fname))
        except (json.JSONDecodeError, OSError):
            continue
        rows = results_by_scenario(doc)
        gated = sorted(s for s in rows if s.startswith(prefix))
        rates = ", ".join(f"{s}={rows[s]['items_per_sec']:.3g}" for s in gated)
        rss = doc.get("peak_rss_bytes", 0)
        print(f"  {fname}: rss={rss / 1e6:.1f}MB  {rates}")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--current", required=True,
                        help="BENCH_*.json produced by this run")
    parser.add_argument("--baseline", required=True,
                        help="baseline BENCH_*.json from the cache (may be absent)")
    parser.add_argument("--scenario-prefix", default="",
                        help="only gate scenarios whose name starts with this")
    parser.add_argument("--threshold", type=float, default=0.10,
                        help="allowed fractional drop in items_per_sec (default 0.10)")
    parser.add_argument("--rss-threshold", type=float, default=0.0,
                        help="allowed fractional growth in peak_rss_bytes "
                             "(0 = RSS not gated, which is the default)")
    parser.add_argument("--history-dir", default="",
                        help="rolling-window directory; when set, the current "
                             "results are appended and the stored trajectory printed")
    parser.add_argument("--history-keep", type=int, default=20,
                        help="number of result files the rolling window keeps")
    args = parser.parse_args()

    if not os.path.exists(args.current):
        print(f"error: current results not found: {args.current}")
        return 2
    current_doc = load_doc(args.current)
    current = results_by_scenario(current_doc)

    failed = False
    if not os.path.exists(args.baseline):
        print(f"no baseline at {args.baseline}; recording current numbers only")
    else:
        try:
            baseline_doc = load_doc(args.baseline)
            baseline = results_by_scenario(baseline_doc)
        except (json.JSONDecodeError, KeyError) as err:
            print(f"baseline unreadable ({err}); skipping the gate")
            baseline_doc, baseline = None, None
        if baseline is not None:
            failed |= gate_throughput(current, baseline,
                                      args.scenario_prefix, args.threshold)
            failed |= gate_rss(current_doc, baseline_doc, args.rss_threshold)

    if args.history_dir:
        update_history(args.history_dir, args.current,
                       args.scenario_prefix, max(1, args.history_keep))

    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
