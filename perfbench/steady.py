"""Steadiness check: run one workload n times and report each metric's spread.

    python3 perfbench/steady.py --workload compile-mix --runs 10 --seconds 30
    python3 perfbench/steady.py --workload plane-churn --runs 2 --trace 1 --same-seed

Runs ``run.py`` n times in sequence, with seeds ``--first-seed`` onwards
(or one seed throughout with ``--same-seed``), and prints per metric the
median, the first and third quartiles (``statistics.quantiles(n=4)``), the
spread ``(q3 - q1) / median`` and, for end-to-end metrics, the bound from
``BENCHMARK.json`` and whether the spread stays under a third of it.
Metrics in ``count`` units also say whether they repeated exactly, which
is expected only with ``--same-seed``.  The share of failed operations is
printed last; it must be the same in every run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--same-seed", action="store_true")
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        benchmark = json.load(handle)
    bounds = {metric["name"]: metric.get("bound") for metric in benchmark["end_to_end"]}
    seconds = args.seconds if args.seconds is not None else benchmark["run_seconds"]

    outcomes = []
    for run in range(args.runs):
        seed = args.first_seed + (0 if args.same_seed else run)
        completed = subprocess.run(
            [
                sys.executable, os.path.join(HERE, "run.py"),
                "--workload", args.workload, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", str(args.trace),
            ],
            cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
        )
        outcome = json.loads(completed.stdout.strip().splitlines()[-1])
        outcomes.append(outcome)
        print(
            f"run {run + 1} seed {seed}: attempted {outcome['attempted']} "
            f"failed {outcome['failed']} correct {outcome['correct']}",
            flush=True,
        )

    print(f"{'metric':24s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s}  note")
    for name in sorted(outcomes[0]["metrics"]):
        values = [outcome["metrics"][name]["value"] for outcome in outcomes]
        unit = outcomes[0]["metrics"][name]["unit"]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
        spread = (q3 - q1) / median if median else float("nan")
        notes = []
        bound = bounds.get(name)
        if bound is not None:
            verdict = "ok" if spread < bound / 3 else ("within bound" if spread <= bound else "OVER BOUND")
            notes.append(f"bound {bound}: {verdict}")
        if unit == "count":
            notes.append("repeats" if len(set(values)) == 1 else "varies")
        print(f"{name:24s} {median:12.4f} {q1:12.4f} {q3:12.4f} {spread:8.4f}  {unit} {'; '.join(notes)}")
    shares = {outcome["failed"] / outcome["attempted"] for outcome in outcomes}
    print(f"failed share per run: {sorted(shares)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
