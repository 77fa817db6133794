#!/usr/bin/env python3
"""The pcq benchmark: one command for every workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the repository root. Builds perfbench/ (CMake, Release) into the
build directory ($CARGO_TARGET_DIR, default .bench_build), runs one
workload, checks its outputs, and prints as the last line of stdout

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with every end-to-end metric of BENCHMARK.json (--trace 0) or every
per-layer metric (--trace 1), each as {"value": ..., "unit": ...}. The
line before it is the provenance record, which is also saved under
<build>/results/. A traced run writes its span dump to <build>/traces/.
Exits nonzero, without a result line, if anything fails to build or run,
and nonzero after the result line if an output check failed.

Default seed 1; seed 7919 is held out for checking claims (README.md).
"""

import argparse
import json
import math
import os
import platform
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def die(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build(target):
    """Configures once, then builds `target` incrementally; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "include", "pcq", "core", "multi_queue.hpp")):
        die("library headers not found under include/pcq")
    out = build_dir()
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", target, "-j", "4"])
    for cmd in steps:
        p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        if p.returncode != 0:
            sys.stderr.write(p.stdout + p.stderr)
            die(f"build failed: {' '.join(cmd)}")
    return os.path.join(out, target)


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_head():
    # Stop at the checkout root: a checkout that is not a repository
    # must not report the HEAD of some repository above it.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        p = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                           capture_output=True, text=True, timeout=10)
        if p.returncode == 0:
            return p.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        die(f"cannot read BENCHMARK.json: {e}")

    if args.selftest:
        sys.exit(subprocess.run([build("pcqbench_selftest")], cwd=ROOT,
                                timeout=600).returncode)

    workloads = [w["name"] for w in spec["workloads"]]
    if args.workload not in workloads:
        die(f"--workload must be one of {workloads}")
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}

    binary = build("pcqbench")
    trace_dir = os.path.join(build_dir(), "traces")
    os.makedirs(trace_dir, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--trace-dir", trace_dir]
    started = time.time()
    try:
        p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    sys.stderr.write(p.stderr)
    lines = p.stdout.strip().splitlines()
    if not lines:
        die(f"pcqbench printed nothing (exit {p.returncode})")
    try:
        run = json.loads(lines[-1])
    except ValueError:
        die(f"pcqbench printed no JSON (exit {p.returncode})")
    if p.returncode not in (0, 1) or (p.returncode == 1) == run["correct"]:
        die(f"pcqbench exit {p.returncode} disagrees with its result")

    got = run["metrics"]
    if set(got) != set(units):
        die(f"metric names differ from BENCHMARK.json: "
            f"missing {sorted(set(units) - set(got))}, "
            f"extra {sorted(set(got) - set(units))}")
    for name, value in got.items():
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            die(f"metric {name} is not a finite number: {value!r}")

    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "threads": run["threads"],
        "service_workers": run["service_workers"],
        "cores": os.cpu_count(),
        "cpu_model": cpu_model(),
        "compiler": run["build"]["compiler"],
        "flags": run["build"]["flags"],
        "git_head": git_head(),
        "started_unix": started,
        "elapsed_s": time.time() - started,
        "error": run["error"],
        "info": run["info"],
        "metrics": got,
    }
    results = os.path.join(build_dir(), "results")
    os.makedirs(results, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(results, name), "w") as f:
        json.dump(provenance, f, indent=1)
    print(json.dumps({"provenance": provenance}))
    print(json.dumps({
        "correct": run["correct"],
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {k: {"value": got[k], "unit": units[k]} for k in units},
    }))
    sys.exit(0 if run["correct"] else 1)


if __name__ == "__main__":
    main()
