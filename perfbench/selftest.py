#!/usr/bin/env python3
"""Self-test of the benchmark. Run from the repository root:

    python3 perfbench/selftest.py

Checks that
  * BENCHMARK.json has the documented shape and limits;
  * every workload, with --trace 0 and --trace 1, prints exactly the metric
    names and units BENCHMARK.json lists for that mode, passes its
    correctness gate and fails no op;
  * the traced and the untraced run of one seed print the same simulated
    fingerprint (tracing costs no simulated time), and the traced run
    writes its spans;
  * run.py exits non-zero, printing no result, in a directory that holds
    only BENCHMARK.json and the benchmark's own files.
Exits 0 when all hold.
"""
import json
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")

failures = []


def check(ok, what):
    if not ok:
        failures.append(what)
        print(f"FAIL: {what}")


def check_contract(bench):
    check(sorted(bench) == ["command", "end_to_end", "paths", "per_layer",
                            "run_seconds", "workloads"], "top-level keys")
    check(1 <= len(bench["paths"]) <= 16, "paths count")
    for p in bench["paths"]:
        check(PATH.match(p) is not None and not p.startswith("/")
              and ".." not in p.split("/"), f"path {p!r}")
    cmd = bench["command"]
    check(1 <= len(cmd) <= 32 and all(len(c) <= 200 for c in cmd), "command")
    check(isinstance(bench["run_seconds"], int)
          and 1 <= bench["run_seconds"] <= 60, "run_seconds")
    check(2 <= len(bench["workloads"]) <= 8, "workload count")
    names = []
    for w in bench["workloads"]:
        check(sorted(w) == ["name", "why"], f"workload keys {w}")
        check(NAME.match(w["name"]) is not None, f"workload name {w['name']}")
        check(len(w["why"]) <= 200 and "\n" not in w["why"], f"why of {w['name']}")
        names.append(w["name"])
    check(1 <= len(bench["end_to_end"]) <= 16, "end_to_end count")
    check(1 <= len(bench["per_layer"]) <= 128, "per_layer count")
    for m in bench["end_to_end"]:
        check(sorted(m) == ["better", "bound", "name", "unit"], f"keys of {m}")
        check(0 < m["bound"] <= 0.25, f"bound of {m['name']}")
    for m in bench["per_layer"]:
        check(sorted(m) == ["better", "name", "unit"], f"keys of {m}")
    for m in bench["end_to_end"] + bench["per_layer"]:
        names.append(m["name"])
        check(NAME.match(m["name"]) is not None, f"metric name {m['name']}")
        check(UNIT.match(m["unit"]) is not None, f"unit of {m['name']}")
        check(m["better"] in ("higher", "lower"), f"better of {m['name']}")
    check(len(names) == len(set(names)), "names used once")
    setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"]
    check(len(setup) == 1 and setup[0]["unit"] == "s"
          and setup[0]["better"] == "lower"
          and setup[0]["bound"] == max(m["bound"] for m in bench["end_to_end"]),
          "setup_s present, in s, lower, with the largest bound")
    check(len(json.dumps(bench)) <= 64 * 1024, "file size")


def run(bench, workload, trace, cwd=ROOT):
    cmd = bench["command"] + ["--workload", workload, "--seed", "1",
                              "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=900)


def check_workload(bench, workload):
    fingerprints = []
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        proc = run(bench, workload, trace)
        check(proc.returncode == 0, f"{workload} trace {trace}: exit code")
        if proc.returncode != 0:
            print(proc.stderr[-2000:])
            continue
        lines = proc.stdout.strip().split("\n")
        result = json.loads(lines[-1])
        want = {m["name"]: m["unit"] for m in bench[key]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        check(got == want, f"{workload} trace {trace}: metric names/units "
              f"(missing {sorted(set(want) - set(got))}, "
              f"extra {sorted(set(got) - set(want))})")
        for name, unit in want.items():
            check(f" {name} " in proc.stdout and unit in proc.stdout,
                  f"{workload} trace {trace}: prints {name}")
        check(result["correct"] is True, f"{workload} trace {trace}: correct")
        check(result["failed"] == 0 and result["attempted"] >= 1,
              f"{workload} trace {trace}: attempted/failed")
        fingerprints += [l for l in lines if l.startswith("fingerprint:")]
        if trace:
            path = os.path.join(ROOT, ".bench_build", f"trace-{workload}.json")
            with open(path) as f:
                events = json.load(f)["traceEvents"]
            check(len(events) > 0 and
                  result["metrics"]["trace.spans_per_op"]["value"] > 0,
                  f"{workload}: the trace file holds spans")
    check(len(fingerprints) == 2 and fingerprints[0] == fingerprints[1],
          f"{workload}: traced and untraced fingerprints equal")


def check_no_sources(bench):
    # A scratch checkout without the simulator sources, inside the build
    # directory so nothing is written outside the repository.
    bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for p in bench["paths"]:
        shutil.copytree(os.path.join(ROOT, p), os.path.join(bare, p),
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(bench, bench["workloads"][0]["name"], 0, cwd=bare)
    check(proc.returncode != 0, "bare directory: non-zero exit")
    check('"correct"' not in proc.stdout, "bare directory: no result line")
    shutil.rmtree(bare, ignore_errors=True)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    check_contract(bench)
    for w in bench["workloads"]:
        print(f"selftest: {w['name']}", flush=True)
        check_workload(bench, w["name"])
    check_no_sources(bench)
    print("selftest: OK" if not failures else
          f"selftest: {len(failures)} failure(s)")
    sys.exit(0 if not failures else 1)


if __name__ == "__main__":
    main()
