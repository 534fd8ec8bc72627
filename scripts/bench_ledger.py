#!/usr/bin/env python3
"""Record the simulator's performance ledger from repeated perfbench runs.

    python3 scripts/bench_ledger.py --checkout parent=../parent --checkout change=. \\
        --passes 10 --seed 1 --seconds 12

Each pass runs every perfbench workload once per checkout with tracing off
(`perfbench/run.py --trace 0`). Workloads rotate their order from pass to
pass, and the checkouts alternate which goes first, so a parent and a change
measured together form pairs taken back to back on the same host state.

For each checkout the ledger entry records hw_threads, the seed, the pass
count, the median and quartiles of every end-to-end metric named in
BENCHMARK.json and of `topo.build_s`, the per-run values in run order, the
attempted and failed simulation counts, and each workload's sim_digest. An
entry replaces any earlier entry with the same label in the ledger file
(default BENCH_ledger.json at the repository root). The script exits 1 if a
run fails its checks or a digest differs between runs of one checkout.

Each checkout builds perfbench in its own tree: DIR/.bench_build, or
$CARGO_TARGET_DIR/LABEL when CARGO_TARGET_DIR is set.
"""
import argparse
import json
import os
import re
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ["twotier_1050", "fattree_k8", "conn_churn"]
EXTRA_METRICS = ["topo.build_s"]
METRIC_RE = re.compile(r"^metric\s+(\S+)\s+(\S+)\s+(\S+)$")


def end_to_end_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return [m["name"] for m in json.load(f)["end_to_end"]]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def git_commit(repo):
    try:
        out = subprocess.run(["git", "-C", repo, "rev-parse", "--short=12", "HEAD"],
                             capture_output=True, text=True, check=True).stdout.strip()
        dirty = subprocess.run(["git", "-C", repo, "status", "--porcelain", "--untracked-files=no"],
                               capture_output=True, text=True, check=True).stdout.strip()
        return out + ("+dirty" if dirty else "")
    except (subprocess.CalledProcessError, OSError):
        return "unknown"


def run_once(label, repo, workload, seed, seconds):
    """One perfbench run: metrics by name, digest, hw_threads and the result line."""
    cmd = [sys.executable, os.path.join(repo, "perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    env = dict(os.environ)
    if "CARGO_TARGET_DIR" in env:  # one build tree per checkout
        env["CARGO_TARGET_DIR"] = os.path.join(os.path.abspath(env["CARGO_TARGET_DIR"]), label)
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env)
    lines = proc.stdout.splitlines()
    if not lines or not lines[-1].startswith("{"):
        sys.exit("bench_ledger: %s gave no result (exit %d):\n%s" %
                 (" ".join(cmd), proc.returncode, proc.stderr[-2000:]))
    result = json.loads(lines[-1])
    metrics, digest, hw_threads = {}, None, None
    for line in lines:
        m = METRIC_RE.match(line)
        if m:
            metrics[m.group(1)] = (float(m.group(2)), m.group(3))
        elif line.startswith("sim_digest "):
            digest = line.split()[2]
        elif line.startswith("env hw_threads "):
            hw_threads = int(line.split()[2])
    return metrics, digest, hw_threads, result


def summarize(runs, names):
    """runs: list of per-run dicts from run_once for one (checkout, workload)."""
    out = {"attempted": sum(r["result"]["attempted"] for r in runs),
           "failed": sum(r["result"]["failed"] for r in runs),
           "incorrect_runs": sum(not r["result"]["correct"] for r in runs),
           "sim_digest": runs[0]["digest"], "metrics": {}}
    for name in names:
        values = [r["metrics"][name][0] for r in runs if name in r["metrics"]]
        if not values:
            continue
        q1, q3 = quartiles(values)
        out["metrics"][name] = {
            "unit": runs[0]["metrics"][name][1], "median": statistics.median(values),
            "q1": q1, "q3": q3, "iqr": q3 - q1, "runs": values}
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--checkout", action="append", metavar="LABEL=DIR", required=True,
                    help="a checkout to measure; give it twice, parent and change")
    ap.add_argument("--passes", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=12)
    ap.add_argument("--out", default=os.path.join(ROOT, "BENCH_ledger.json"))
    args = ap.parse_args()
    if args.passes < 1 or args.seconds < 1 or args.seed < 0:
        ap.error("--passes and --seconds must be >= 1 and --seed >= 0")

    checkouts = []
    for spec in args.checkout:
        label, sep, repo = spec.partition("=")
        if not sep or not label or not os.path.isfile(os.path.join(repo, "perfbench", "run.py")):
            ap.error("--checkout %r: expected LABEL=DIR with DIR/perfbench/run.py" % spec)
        checkouts.append((label, os.path.abspath(repo)))
    labels = [label for label, _ in checkouts]
    if len(labels) < 2 or len(set(labels)) != len(labels):
        ap.error("--checkout: give two or more checkouts with distinct labels to pair")

    names = end_to_end_metrics() + EXTRA_METRICS
    runs = {(label, w): [] for label, _ in checkouts for w in WORKLOADS}
    hw = {}
    for p in range(args.passes):
        order = WORKLOADS[p % len(WORKLOADS):] + WORKLOADS[:p % len(WORKLOADS)]
        for w in order:
            sides = checkouts if p % 2 == 0 else checkouts[::-1]
            for label, repo in sides:
                metrics, digest, hw_threads, result = run_once(
                    label, repo, w, args.seed, args.seconds)
                hw[label] = hw_threads
                runs[(label, w)].append({"metrics": metrics, "digest": digest, "result": result})
                print("pass %d/%d %-12s %-13s wall_s %.4f setup_s %.4f digest %s%s" % (
                    p + 1, args.passes, label, w, metrics.get("wall_s", (0,))[0],
                    metrics.get("setup_s", (0,))[0], digest,
                    "" if result["correct"] else " FAILED"), file=sys.stderr, flush=True)

    ledger = {"entries": []}
    if os.path.isfile(args.out):
        with open(args.out) as f:
            ledger = json.load(f)
    ok = True
    for label, repo in checkouts:
        entry = {"label": label, "commit": git_commit(repo), "hw_threads": hw[label],
                 "seed": args.seed, "passes": args.passes, "seconds": args.seconds,
                 "workloads": {}}
        for w in WORKLOADS:
            rs = runs[(label, w)]
            entry["workloads"][w] = summarize(rs, names)
            if len({r["digest"] for r in rs}) != 1 or not all(r["result"]["correct"] for r in rs):
                ok = False
        ledger["entries"] = [e for e in ledger["entries"] if e["label"] != label] + [entry]
    with open(args.out, "w") as f:
        json.dump(ledger, f, indent=1)
        f.write("\n")
    for label, _ in checkouts:
        print(label, file=sys.stderr)
        for w in WORKLOADS:
            s = next(e for e in ledger["entries"] if e["label"] == label)["workloads"][w]
            print("  %-13s digest %s failed %d/%d  " % (w, s["sim_digest"], s["failed"],
                                                        s["attempted"]) +
                  "  ".join("%s %.4g [%.4g, %.4g]" % (n, m["median"], m["q1"], m["q3"])
                            for n, m in s["metrics"].items()), file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
