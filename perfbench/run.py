#!/usr/bin/env python3
"""Run one workload of the λFS benchmark and print its metrics.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The script builds this package (release,
offline) and runs each measurement in its own process:

* ``--trace 0`` runs the workload on ``reps`` derived seeds
  (``seed*1000 + k``) with the untraced binary, then runs the first of
  them again. It prints ``wall_ops_per_s`` as the best rep and every other
  end-to-end metric as the median over the reps, and checks that the repeated run reproduced every simulated-time
  metric and layer count exactly.
* ``--trace 1`` runs the first derived seed untraced and traced, checks
  that both report identical simulated-time metrics and layer counts, and
  prints every per-layer metric. The traced run writes its spans and
  per-second layer samples under ``perfbench/trace/``.

Each child runs the correctness gate (audit, consistency check,
conservation, one ``done`` per ``submit_op``). Any finding, determinism
mismatch or thin latency tail makes ``correct`` false and the exit code 1.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))

# Host seconds of one rep's measured window on a 2-core x86-64 host. The
# rep count is ceil(seconds / window), at least 3 and rounded up to an odd
# number so the median is one rep's value; it depends only on the
# arguments, never on how fast this host happens to be.
NOMINAL_WINDOW_S = {"industrial": 2.0, "namespace-10m": 2.5, "write-durable": 1.5}
MIN_REPS = 3
# Host-time throughput is reported best-of-reps, everything else as the
# median over reps.
BEST_OF = {"wall_ops_per_s"}
# The fewest samples that must lie beyond a reported percentile.
MIN_BEYOND = 10
CHILD_TIMEOUT_S = 150


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"), "--bins",
    ]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        log("perfbench: build failed")
        sys.exit(2)
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    return os.path.join(os.path.abspath(target), "release")


def run_child(bin_dir, binary, workload, seed, extra=()):
    cmd = [os.path.join(bin_dir, binary), "--workload", workload, "--seed", str(seed), *extra]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench: {binary} seed {seed} timed out after {CHILD_TIMEOUT_S}s")
        sys.exit(3)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        log(f"perfbench: {binary} seed {seed} exited {proc.returncode} without a result")
        sys.exit(3)
    return json.loads(lines[-1])


def sim_values(result):
    """Every simulated-time metric and layer count of one child result."""
    out = {}
    for section in ("e2e", "layer"):
        for name, m in result[section].items():
            if m["kind"] == "sim":
                out[name] = m["value"]
    return out


def same_sim(a, b, what):
    va, vb = sim_values(a), sim_values(b)
    return [
        f"determinism ({what}): {k}: {va.get(k)!r} != {vb.get(k)!r}"
        for k in sorted(set(va) | set(vb))
        if va.get(k) != vb.get(k)
    ]


def gate(results):
    problems = []
    for r in results:
        problems += [f"seed {r['seed']}: {f}" for f in r["findings"]]
        for name, (beyond, samples) in r["tails"].items():
            if beyond < MIN_BEYOND:
                problems.append(
                    f"seed {r['seed']}: {name} has {beyond} of {samples} samples beyond it "
                    f"(needs {MIN_BEYOND})"
                )
        for name, m in r["e2e"].items():
            if not math.isfinite(m["value"]):
                problems.append(f"seed {r['seed']}: {name} lands on failed operations")
    return problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(NOMINAL_WINDOW_S))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    bin_dir = build()
    base = args.seed * 1000
    if args.trace == 0:
        reps = max(MIN_REPS, math.ceil(args.seconds / NOMINAL_WINDOW_S[args.workload])) | 1
        results = [
            run_child(bin_dir, "perfbench-run", args.workload, base + k) for k in range(reps)
        ]
        again = run_child(bin_dir, "perfbench-run", args.workload, base)
        problems = gate(results + [again]) + same_sim(results[0], again, "two untraced runs")
        metrics = {}
        for name, m in results[0]["e2e"].items():
            vals = [r["e2e"][name]["value"] for r in results]
            # Co-tenants on a shared host only ever slow a run down, by up
            # to ~20 % per rep; the best rep is the steady estimate of what
            # the code can do. Everything else is the median.
            agg, how = (max, "best") if name in BEST_OF else (statistics.median, "median")
            metrics[name] = {"value": agg(vals), "unit": m["unit"]}
            tails = [r["tails"][name] for r in results if name in r["tails"]]
            tail = ""
            if tails:
                tail = " (beyond it: " + ", ".join(f"{b} of {n}" for b, n in tails) + ")"
            print(f"{args.workload} {name} = {metrics[name]['value']!r} {m['unit']} "
                  f"[{how} of {reps} seeds]{tail}")
        runs = results
    else:
        plain = run_child(bin_dir, "perfbench-run", args.workload, base)
        traced = run_child(
            bin_dir, "perfbench-traced", args.workload, base,
            ("--trace-dir", os.path.join(HERE, "trace")),
        )
        problems = gate([plain, traced]) + same_sim(plain, traced, "untraced vs traced")
        metrics = {}
        for name, m in traced["layer"].items():
            # Host-time layer metrics come from the untraced run, which
            # pays for no tracing; counts are identical in both.
            src = plain if name in plain["layer"] and m["kind"] == "host" else traced
            metrics[name] = {"value": src["layer"][name]["value"], "unit": m["unit"]}
        metrics["trace.overhead_ratio"] = {
            "value": traced["window_s"] / plain["window_s"] if plain["window_s"] > 0 else 0.0,
            "unit": "ratio",
        }
        for name, m in metrics.items():
            print(f"{args.workload} {name} = {m['value']!r} {m['unit']}")
        runs = [traced]

    for p in problems:
        print(f"perfbench: FAILED: {p}", flush=True)
    correct = not problems
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": metrics,
    }))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
