#!/usr/bin/env python3
"""Build the simulator benchmark from source and run one workload.

    python3 perfbench/run.py --workload twotier_1050 --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40 --trace 1
    python3 perfbench/run.py --test        # the benchmark's own tests

The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench
at the repository root), as a Release build of perfbench/CMakeLists.txt,
which compiles ../src. Build output goes to stderr; perfbench_driver's stdout
passes through, so its last line is the result JSON. perfbench_driver runs
single-threaded: TRIM_SHARDS=1, REPRO_JOBS=1 and no other TRIM_/REPRO_ knob
from the caller's environment.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["twotier_1050", "fattree_k8", "conn_churn", "all"]


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(bdir, target):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: simulator sources not found at %s" % os.path.join(ROOT, "src"))
    if not any(os.path.isfile(os.path.join(bdir, f)) for f in ("build.ninja", "Makefile")):
        cmd = ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", bdir, "--target", target, "-j", "3"],
                   stdout=sys.stderr, check=True)
    return os.path.join(bdir, target)


def driver_env():
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("TRIM_", "REPRO_"))}
    env["TRIM_SHARDS"] = "1"
    env["REPRO_JOBS"] = "1"
    return env


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=[0, 1])
    ap.add_argument("--test", action="store_true", help="build and run the benchmark's tests")
    args = ap.parse_args()

    bdir = build_dir()
    try:
        if args.test:
            return subprocess.run([build(bdir, "perfbench_test")], env=driver_env()).returncode
        if None in (args.workload, args.seed, args.seconds, args.trace):
            ap.error("--workload, --seed, --seconds and --trace are required")
        if args.seed < 0 or args.seconds < 1:
            ap.error("--seed must be >= 0 and --seconds >= 1")
        driver = build(bdir, "perfbench_driver")
    except (subprocess.CalledProcessError, OSError) as e:
        sys.exit("perfbench: build failed: %s" % e)

    cmd = [driver, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans", os.path.join(bdir, "spans-%s-seed%d.jsonl" % (args.workload, args.seed))]
    return subprocess.run(cmd, env=driver_env()).returncode


if __name__ == "__main__":
    sys.exit(main())
