#!/usr/bin/env python3
"""Bench-delta guard: fail CI when a perf scenario regresses.

Compares a freshly produced BENCH_perf.json against the committed baseline
run and flags any ns/io scenario that regressed by more than the threshold.

The baseline and the fresh run come from different machines (the committed
run is a full Release run on a dev box; CI runs --smoke on a shared
runner), so raw ns/io ratios carry a machine-speed factor. The guard
removes it by normalizing every scenario's ratio by the median ratio across
scenarios: a uniform slowdown (slower runner) passes, while one scenario
regressing relative to the rest — the signature of an actual hot-path
regression — fails.

Run-to-run noise on a shared runner easily exceeds 25% per scenario, so
both sides use per-scenario minima: the committed baseline is the
per-scenario best of several full runs, and several fresh runs may be
passed — the guard takes each scenario's minimum ns/io across them (the
standard noise-robust benchmark estimator) before comparing.

Separately from wall-clock ratios, the *simulated* figures (ops, sim_ios,
requests, events, sim_ops_per_sec) are deterministic: fixed seed,
discrete-event sim, no machine-speed factor. The guard requires them to be
bit-identical across all fresh runs, and bit-identical to the baseline for
any scenario run at the same length (same ops). This is the
instrumentation-cost gate: fault-injection hooks, counters, and similar
observability machinery sit disabled on the hot path during perf runs, and
"disabled" must mean zero simulated cost — a hook that adds even one sim
delay or extra request when no fault plan is installed shifts events/sim_ios
and fails here, long before it would move a noisy ns/io ratio.

Heap allocations are deterministic the same way: global_allocs counts
operator-new calls of a fixed-seed run, so at equal length (same ops) the
per-op count may not grow. The guard fails a scenario whose
global_allocs_per_op exceeds the baseline's by more than 10% + 0.5 (the
additive slack absorbs one-off allocations in scenarios near zero). Smoke
and full runs amortize set-up allocations over different op counts, so the
gate only compares runs of equal length, like the sim-fingerprint gate.

Usage:
  tools/bench_delta.py <baseline.json> <fresh.json> [<fresh2.json> ...]
                       [--threshold 1.25] [--warn-only]

Pass at least three fresh runs, locally as in CI. A full-mode sync-*
scenario runs for ~20 ms of wall time, and one run's ns/io can sit 1.2x
above its minimum on an idle machine: a single fresh file has reported a
regression on a tree whose simulation was bit-identical to the baseline's.
With one fresh file the tool prints a note saying so.

Exit codes: 0 ok / warn-only, 1 regression found, 2 usage or schema error.
"""

import argparse
import json
import statistics
import sys

# Purely simulated, machine-independent figures. Deterministic for a given
# scenario length (ops), so any drift means the simulated IO path changed —
# e.g. a "disabled" fault hook that still costs sim time.
SIM_KEYS = ("ops", "sim_ios", "requests", "events", "sim_ops_per_sec")

# Allocation gate: fresh global_allocs_per_op may exceed the baseline's by
# at most ALLOC_REL_SLACK (relative) + ALLOC_ABS_SLACK (absolute).
ALLOC_REL_SLACK = 0.10
ALLOC_ABS_SLACK = 0.5


def alloc_regression(fresh, base):
    """Message if fresh's allocs/op exceed base's slack at equal ops."""
    fa, ba = fresh.get("global_allocs_per_op"), base.get("global_allocs_per_op")
    if fa is None or ba is None or fresh.get("ops") != base.get("ops"):
        return None
    limit = ba * (1 + ALLOC_REL_SLACK) + ALLOC_ABS_SLACK
    if fa <= limit:
        return None
    return f"{fa:.3f} allocs/op vs baseline {ba:.3f} (limit {limit:.3f})"


def sim_fingerprint(s):
    return {k: s[k] for k in SIM_KEYS if s.get(k) is not None}


def sim_drift(a, b):
    """Fields of SIM_KEYS present in both a and b whose values differ."""
    fa, fb = sim_fingerprint(a), sim_fingerprint(b)
    return [f"{k} {fa[k]} vs {fb[k]}"
            for k in SIM_KEYS if k in fa and k in fb and fa[k] != fb[k]]


def load_scenarios(path):
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"bench_delta: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)
    if doc.get("schema") != "bio-perf/1":
        print(f"bench_delta: {path}: unexpected schema "
              f"{doc.get('schema')!r}", file=sys.stderr)
        sys.exit(2)
    return {s["name"]: s for s in doc.get("scenarios", [])}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("baseline")
    ap.add_argument("fresh", nargs="+",
                    help="fresh perf_suite --out files; pass >= 3 (the "
                         "guard takes per-scenario minima across them)")
    ap.add_argument("--threshold", type=float, default=1.25,
                    help="normalized ns/io ratio above which a scenario "
                         "counts as regressed (default 1.25 = +25%%)")
    ap.add_argument("--warn-only", action="store_true",
                    help="report regressions but exit 0 (sanitizer legs)")
    args = ap.parse_args()

    base = load_scenarios(args.baseline)
    runs = [load_scenarios(p) for p in args.fresh]
    if len(runs) == 1:
        print("bench_delta: note: one fresh run. Its ns/io carries the full "
              "run-to-run noise, which can exceed the gate on its own; pass "
              ">= 3 fresh runs, as CI does.")
    # Per-scenario minimum ns/io across the fresh runs.
    fresh = {}
    for run in runs:
        for name, s in run.items():
            if not s.get("ns_per_io"):
                continue
            if name not in fresh or s["ns_per_io"] < fresh[name]["ns_per_io"]:
                fresh[name] = s

    # Determinism / instrumentation-cost gate on the simulated figures.
    # Across fresh runs of the same binary the fingerprint must be
    # bit-identical; against the baseline it must match whenever the
    # scenario ran at the same length (a full run compared to a full run).
    sim_broken = []
    for name, s in fresh.items():
        for run in runs:
            other = run.get(name)
            if other is None:
                continue
            drift = sim_drift(s, other)
            if drift:
                sim_broken.append(
                    f"{name} differs between fresh runs ({'; '.join(drift)})")
                break
        b = base.get(name)
        if b is not None and b.get("ops") == s.get("ops"):
            drift = sim_drift(s, b)
            if drift:
                sim_broken.append(
                    f"{name} drifted from the committed baseline at equal "
                    f"ops ({'; '.join(drift)})")
    for msg in sim_broken:
        print(f"  sim-figure drift: {msg}")

    # Allocation gate at equal length. Every fresh run is checked (not just
    # the fastest): the count is deterministic, so any run over the limit
    # is a real regression.
    alloc_broken = []
    for name, b in sorted(base.items()):
        for run in runs:
            s = run.get(name)
            msg = alloc_regression(s, b) if s is not None else None
            if msg:
                alloc_broken.append(f"{name}: {msg}")
                break
    for msg in alloc_broken:
        print(f"  allocation regression: {msg}")

    ratios = {}
    for name, s in fresh.items():
        b = base.get(name)
        if b is None:
            print(f"  new scenario (no baseline): {name}")
            continue
        if not b.get("ns_per_io"):
            continue
        ratios[name] = s["ns_per_io"] / b["ns_per_io"]

    # A baseline scenario the fresh runs no longer produce means the gate
    # silently lost coverage — fail (re-commit the baseline when a scenario
    # is deliberately removed or renamed).
    missing = [n for n, b in sorted(base.items())
               if b.get("ns_per_io") and n not in fresh]
    for name in missing:
        print(f"  missing scenario (in baseline, not in fresh runs): {name}")

    # Ring QD sweep invariant: batched submission must beat serial awaits
    # at QD >= 8 in *simulated* throughput. sim_ops_per_sec is deterministic
    # (fixed seed, discrete-event sim), so this compares within the fresh
    # run alone — no machine-speed factor to remove.
    ring_broken = []
    best = {}
    for run in runs:
        for name, s in run.items():
            if name.startswith("ring-") and s.get("sim_ops_per_sec"):
                best[name] = max(best.get(name, 0), s["sim_ops_per_sec"])
    serial = best.get("ring-serial")
    if serial:
        for name in ("ring-qd8", "ring-qd32"):
            if name in best and best[name] <= serial:
                ring_broken.append(
                    f"{name} ({best[name]:.0f} sim ops/s) does not beat "
                    f"ring-serial ({serial:.0f})")
        for name, v in sorted(best.items()):
            print(f"  {name:24s} sim ops/s {v:10.0f}  "
                  f"x{v / serial:.2f} vs serial")

    # Multi-queue scaling invariant: four software queues over four flash
    # channels must beat the single-queue layer by >1.3x in *simulated*
    # throughput. Like the ring sweep this is deterministic and compares
    # within the fresh run alone.
    mq_broken = []
    mq_best = {}
    for run in runs:
        for name, s in run.items():
            if name.startswith("mq-scaling-") and s.get("sim_ops_per_sec"):
                mq_best[name] = max(mq_best.get(name, 0),
                                    s["sim_ops_per_sec"])
    mq_q1 = mq_best.get("mq-scaling-q1")
    if mq_q1:
        q4 = mq_best.get("mq-scaling-q4")
        if q4 is not None and q4 <= 1.3 * mq_q1:
            mq_broken.append(
                f"mq-scaling-q4 ({q4:.0f} sim ops/s) is not >1.3x "
                f"mq-scaling-q1 ({mq_q1:.0f})")
        for name, v in sorted(mq_best.items()):
            print(f"  {name:24s} sim ops/s {v:10.0f}  "
                  f"x{v / mq_q1:.2f} vs q1")

    if not ratios:
        print("bench_delta: no comparable ns/io scenarios", file=sys.stderr)
        sys.exit(2)

    med = statistics.median(ratios.values())
    print(f"bench_delta: {len(ratios)} scenarios, median ns/io ratio "
          f"{med:.3f} (machine-speed factor, divided out)")
    regressed = []
    for name in sorted(ratios):
        norm = ratios[name] / med
        flag = "REGRESSED" if norm > args.threshold else "ok"
        print(f"  {name:24s} ratio {ratios[name]:6.3f}  "
              f"normalized {norm:6.3f}  {flag}")
        if norm > args.threshold:
            regressed.append(name)

    problems = []
    if regressed:
        problems.append(f"{len(regressed)} scenario(s) "
                        f">{(args.threshold - 1) * 100:.0f}% over the "
                        f"fleet-normalized baseline: {', '.join(regressed)}")
    if missing:
        problems.append(f"{len(missing)} baseline scenario(s) not produced "
                        f"by the fresh runs: {', '.join(missing)}")
    if ring_broken:
        problems.append("ring QD sweep lost its batching win: "
                        + "; ".join(ring_broken))
    if mq_broken:
        problems.append("multi-queue scaling lost its channel-parallel win: "
                        + "; ".join(mq_broken))
    if alloc_broken:
        problems.append(
            f"{len(alloc_broken)} scenario(s) allocate more per op than the "
            f"baseline at equal ops (>{ALLOC_REL_SLACK * 100:.0f}% + "
            f"{ALLOC_ABS_SLACK}): " + "; ".join(alloc_broken))
    if sim_broken:
        problems.append(
            f"{len(sim_broken)} scenario(s) with non-deterministic or "
            f"drifted simulated figures (disabled instrumentation must "
            f"cost zero sim time): " + "; ".join(sim_broken))
    if problems:
        verdict = "warning" if args.warn_only else "FAIL"
        for p in problems:
            print(f"bench_delta: {verdict}: {p}")
        sys.exit(0 if args.warn_only else 1)
    print("bench_delta: ok")
    sys.exit(0)


if __name__ == "__main__":
    main()
