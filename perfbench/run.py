#!/usr/bin/env python3
"""Runs one workload of the repository benchmark and prints its result.

    python3 perfbench/run.py --workload http_hit --seed 1 --seconds 10 --trace 0

Run from the repository root. It builds the benchmark (perfbench/CMakeLists.txt,
which compiles the sunmt library from src/) into .bench_build, runs the
perfbench binary, checks its outputs, writes a run record and the traced run's
spans under .bench_out, prints every metric by name with its unit, and prints
as its last line one JSON object:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

--trace 0 reports the end_to_end metrics of BENCHMARK.json, --trace 1 the
per_layer ones. The exit status is non-zero when the build fails, a response
is wrong or an invariant breaks.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_DIR = ROOT / ".bench_build"
OUT_DIR = ROOT / ".bench_out"
BUILD_TYPE = "RelWithDebInfo"
# setup_s is the median of this many extra set-ups plus the measured run's own.
SETUP_REPEATS = 30
RUN_BUDGET_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def fail(msg):
    log(f"perfbench: {msg}")
    sys.exit(1)


def quiet(cmd, timeout, what):
    """Runs a build step, showing its output only if it fails."""
    p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                       text=True, timeout=timeout)
    if p.returncode != 0:
        log(p.stdout)
        fail(f"{what} failed")


def build():
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        quiet(["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
               f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"], 300, "cmake configure")
    quiet(["cmake", "--build", str(BUILD_DIR), "--target", "perfbench",
           "-j", str(min(4, os.cpu_count() or 1))], 840, "build")


def run_binary(args, timeout):
    """Runs perfbench; returns (exit code, parsed last stdout line or None)."""
    cmd = [str(BUILD_DIR / "perfbench"), "--out-dir",
           str(OUT_DIR.relative_to(ROOT))] + args
    try:
        p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=sys.stderr,
                           text=True, timeout=max(timeout, 1))
    except subprocess.TimeoutExpired:
        fail(f"{' '.join(args)} timed out")
    lines = p.stdout.strip().splitlines()
    try:
        return p.returncode, json.loads(lines[-1])
    except (IndexError, ValueError):
        return p.returncode, None


def cpu_ticks():
    """(steal, total) jiffies of all CPUs, from /proc/stat."""
    with open("/proc/stat") as f:
        fields = [int(x) for x in f.readline().split()[1:]]
    return fields[7], sum(fields[:8])


def git_commit():
    try:
        p = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                           stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                           timeout=10)
        return p.stdout.strip() if p.returncode == 0 else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    started = time.monotonic()

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail("BENCHMARK.json not found at the repository root")
    spec = json.loads(spec_path.read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload}")
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    build()
    OUT_DIR.mkdir(exist_ok=True)
    common = ["--workload", args.workload, "--seed", str(args.seed)]

    setups = []
    if not args.trace:
        for _ in range(SETUP_REPEATS):
            rc, res = run_binary(common + ["--seconds", "1", "--setup-only"], 60)
            if rc != 0 or res is None or "setup_s" not in res["metrics"]:
                fail(f"set-up run failed (exit {rc}): {res and res.get('errors')}")
            setups.append(res["metrics"]["setup_s"]["value"])

    budget = RUN_BUDGET_S - (time.monotonic() - started)
    extra = ["--trace"] if args.trace else []
    steal0, total0 = cpu_ticks()
    rc, res = run_binary(common + ["--seconds", str(args.seconds)] + extra, budget)
    steal1, total1 = cpu_ticks()
    # Time the hypervisor ran other guests on this machine's CPUs: on a
    # shared host it slows every cross-CPU wake-up, so runs made under it
    # are not comparable with quiet ones.
    steal = (steal1 - steal0) / max(total1 - total0, 1)
    if steal > 0.05:
        log(f"perfbench: warning: {steal:.0%} of CPU time was stolen by the host")
    if res is None:
        fail(f"the benchmark run produced no result (exit {rc})")
    measured = res["metrics"]
    if "setup_s" in measured:
        setups.append(measured["setup_s"]["value"])
        measured["setup_s"]["value"] = statistics.median(setups)

    errors = list(res["errors"])
    metrics = {}
    for m in wanted:
        if m["name"] not in measured:
            errors.append(f"metric {m['name']} was not reported")
            continue
        metrics[m["name"]] = {"value": measured[m["name"]]["value"], "unit": m["unit"]}

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "kernel_release": platform.release(),
        "build_type": BUILD_TYPE,
        "git_commit": git_commit(),
        "setup_s_samples": setups,
        "host_steal_frac": steal,
        "exit_code": rc,
        "errors": errors,
    }
    record.update(res["record"])
    record_path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.record.json"
    record_path.write_text(json.dumps(record, indent=2) + "\n")

    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(f"record {record_path.relative_to(ROOT)}")
    for e in errors:
        log(f"perfbench: FAILED CHECK: {e}")
    correct = rc == 0 and not errors and res["failed"] == 0
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
