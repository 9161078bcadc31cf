#!/usr/bin/env python3
"""Benchmark entry point: builds the driver from source, runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The driver (perfbench/main.cc and friends, plus the simulator sources under
src/) is compiled into .bench_build/ on first use. Each workload runs in a
process of its own. Standard output carries every metric by name with its
unit; its last line is one JSON object with the keys correct, attempted,
failed and metrics. With --trace 1 the per-layer ledger is printed and a
Chrome trace-event file is written to .bench_build/trace-<workload>.json.

--workload all runs the four workloads one after another (one process each)
and adds the fidelity line: the simulated SQLite throughput of BFS-DR over
EXT4-DR next to the paper's server-SSD figure.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
DRIVER = os.path.join(BUILD, "perfbench_driver")
WORKLOADS = ["sqlite-bfs-dr", "sqlite-ext4-dr", "varmail-bfs-od", "mq-mixed"]
# Paper (FAST'18, Fig 14(b) text): BFS-DR runs SQLite 270% faster than
# EXT4-DR on the server SSD, i.e. 3.7x.
PAPER_SQLITE_GAIN = 3.7
DRIVER_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "stack.h")):
        fail(f"simulator sources not found under {os.path.join(ROOT, 'src')}", 2)
    if shutil.which("cmake") is None:
        fail("cmake not found", 2)
    configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") is not None and not os.path.isfile(
            os.path.join(BUILD, "Makefile")):
        configure += ["-G", "Ninja"]
    jobs = str(min(4, os.cpu_count() or 1))
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    for cmd in (configure, ["cmake", "--build", BUILD, "-j", jobs]):
        try:
            # Build output goes to stderr: stdout ends with the result line.
            subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                           check=True, timeout=max(1, deadline - time.monotonic()))
        except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
            fail(f"build failed: {e}")


def run_driver(workload, seed, seconds, trace):
    """Runs one workload; returns (stdout lines, parsed result)."""
    cmd = [DRIVER, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        cmd += ["--trace-out", os.path.join(BUILD, f"trace-{workload}.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload}: driver exceeded {DRIVER_TIMEOUT_S} s")
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        fail(f"{workload}: driver exited with {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"{workload}: driver printed no result line")
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail(f"{workload}: malformed result line")
    return lines, result


def run_all(seed, seconds, trace):
    results = {}
    for w in WORKLOADS:
        lines, results[w] = run_driver(w, seed, seconds, trace)
        print(f"== {w}")
        print("\n".join(lines[:-1]))
    if not trace:
        bfs = results["sqlite-bfs-dr"]["metrics"]["sim_ops_per_s"]["value"]
        ext4 = results["sqlite-ext4-dr"]["metrics"]["sim_ops_per_s"]["value"]
        gain = bfs / ext4
        print(f"fidelity: SQLite BFS-DR / EXT4-DR = {bfs:.1f} / {ext4:.1f} tx/s "
              f"= {gain:.2f}x; paper +270% = {PAPER_SQLITE_GAIN:.1f}x; "
              f"error {100 * (gain - PAPER_SQLITE_GAIN) / PAPER_SQLITE_GAIN:+.1f}%")
    merged = {f"{w}.{k}": v for w, r in results.items()
              for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": merged,
    }))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = ap.parse_args()
    if args.seed < 0:
        fail("--seed must be >= 0", 2)
    if not 1 <= args.seconds <= 60:
        fail("--seconds must be in [1, 60]", 2)
    build()
    if args.workload == "all":
        run_all(args.seed, args.seconds, args.trace)
        return
    lines, _ = run_driver(args.workload, args.seed, args.seconds, args.trace)
    print("\n".join(lines))


if __name__ == "__main__":
    main()
