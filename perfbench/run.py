"""Merlin benchmark: one seeded workload, timed end to end or traced per layer.

Run from the root of a checkout (the program is imported from ``src/``)::

    python3 perfbench/run.py --workload compile-mix --seed 1 --seconds 30 --trace 0

``--workload`` is ``compile-mix``, ``plane-churn`` or ``delegation-verify``
(see README.md).  A run plays whole rounds of the workload's seeded
operation sequence until ``--seconds`` have passed, checks every output, and
prints one JSON object as its last line: ``correct``, ``attempted``,
``failed`` and ``metrics``.  Latency and throughput are taken over the
slower half of the rounds (see :func:`slower_half`); ``attempted`` and
``failed`` count every operation.  With ``--trace 0`` the metrics are the
end-to-end ones; with ``--trace 1`` the layer entry points are wrapped (see
tracing.py), the per-layer metrics are printed instead, the spans are
written to ``perfbench/out/`` and the run is repeated untraced, in a child
process and for the same rounds, to measure the tracing overhead.

An operation that raises counts as failed.  An operation whose output
fails a check counts as failed too, and makes ``correct`` false.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SOURCE = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

#: Set-up is timed in this many fresh processes and the median reported.
SETUP_SAMPLES = 3
CHILD_TIMEOUT = 150

WORKLOADS = {
    "compile-mix": ("compile_mix", "CompileMix"),
    "plane-churn": ("plane_churn", "PlaneChurn"),
    "delegation-verify": ("delegation", "DelegationVerify"),
}


class Recorder:
    """Latency and outcome of every operation attempted."""

    def __init__(self) -> None:
        self.latencies = []
        self.failed = 0
        self.wrong = 0
        self.problems = []
        self.known_problems = []
        self._last_failed = False

    def __call__(self, seconds: float, problems, error: bool = False, known_fault: bool = False) -> None:
        """Record one operation.

        ``error``: it raised.  ``known_fault``: it is the workload's fixed
        operation that fails every time on a known program fault; it counts
        as failed but does not make the run incorrect.
        """
        self.latencies.append(seconds)
        self._last_failed = bool(problems)
        if problems:
            self.failed += 1
            if error or known_fault:
                self.known_problems.extend(problems[:1])
            else:
                self.wrong += 1
                self.problems.extend(problems[:3])

    def fail_last(self, problems) -> None:
        """A check that closes a round failed: the round's last operation fails."""
        if not self._last_failed:
            self.failed += 1
            self._last_failed = True
        self.wrong += 1
        self.problems.extend(problems[:3])


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--rounds", type=int, default=0,
                        help="play exactly this many rounds instead of --seconds")
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the time set-up ended, and exit")
    return parser.parse_args(argv)


def require_sources() -> None:
    if not os.path.isdir(os.path.join(SOURCE, "repro")):
        sys.stderr.write(f"no Merlin sources under {SOURCE}; run from a checkout\n")
        sys.exit(2)
    sys.path.insert(0, SOURCE)
    sys.path.insert(0, HERE)


def load_workload(name: str, seed: int):
    import importlib

    import repro  # noqa: F401  (imports are part of set-up)

    module_name, class_name = WORKLOADS[name]
    return getattr(importlib.import_module(module_name), class_name)(seed)


def child(args, *extra) -> subprocess.CompletedProcess:
    command = [
        sys.executable, os.path.abspath(__file__),
        "--workload", args.workload, "--seed", str(args.seed), *extra,
    ]
    return subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT,
        check=True,
    )


def setup_seconds(args) -> float:
    """Median over fresh processes of process start to the first operation."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        started = time.time()
        finished = json.loads(child(args, "--setup-only").stdout.strip().splitlines()[-1])
        samples.append(finished["setup_end"] - started)
    return statistics.median(samples)


def play(workload, recorder, tracer, seconds: float, rounds: int):
    """Whole rounds until ``seconds`` passed (or exactly ``rounds``).

    Returns (busy seconds, operation latencies) per round.
    """
    played = []
    started = time.perf_counter()
    while True:
        number = len(played)
        tracer.start_round(number)
        first = len(recorder.latencies)
        busy = workload.play_round(number, recorder, tracer)
        tracer.finish_round(number)
        latencies = recorder.latencies[first:]
        played.append((busy, latencies))
        print(f"round {number}: ops {len(latencies)} busy_s {busy:.4f} "
              f"p50_ms {statistics.median(latencies) * 1000.0:.3f}")
        if rounds:
            if len(played) >= rounds:
                break
        elif time.perf_counter() - started >= seconds:
            break
    return played


def slower_half(played):
    """The slower half of the rounds, by time spent in operations.

    The machine this benchmark was tuned on runs at a steady speed with
    bursts up to 1.5x faster whose share changes from run to run; the
    slower half of a run's rounds tracks the steady speed, and a change to
    the program moves every round, so it moves this half too.
    """
    keep = math.ceil(len(played) / 2)
    return sorted(played, key=lambda entry: entry[0])[-keep:]


def main(argv) -> int:
    args = parse_args(argv)
    require_sources()
    if args.setup_only:
        workload = load_workload(args.workload, args.seed)
        ended = time.time()
        workload.close()
        print(json.dumps({"setup_end": ended}))
        return 0

    setup = None
    if not args.trace and not args.rounds:
        setup = setup_seconds(args)

    tracer = None
    if args.trace:
        from tracing import LayerTracer

        tracer = LayerTracer()
        tracer.install()
    workload = load_workload(args.workload, args.seed)
    # What set-up built (topologies, inputs, the benchmark's own indexes)
    # lives for the whole run; frozen, it is not rescanned by every cyclic
    # collection inside an operation.
    gc.collect()
    gc.freeze()
    if tracer is None:
        from tracing import NullTracer

        tracer = NullTracer()
    recorder = Recorder()
    try:
        played = play(workload, recorder, tracer, args.seconds, args.rounds)
    finally:
        workload.close()
    rounds = len(played)

    kept = slower_half(played)
    latencies = [latency for _, round_latencies in kept for latency in round_latencies]
    ops_per_s = len(latencies) / sum(busy for busy, _ in kept)
    from common import p90

    if args.trace:
        metrics = dict(tracer.metrics())
        utilisations = workload.utilisations
        metrics["rmax_mean"] = (
            sum(utilisations) / len(utilisations) if utilisations else 0.0, "ratio"
        )
        untraced = json.loads(
            child(args, "--trace", "0", "--rounds", str(rounds)).stdout.strip().splitlines()[-1]
        )
        reference = untraced["metrics"]["ops_per_s"]["value"]
        metrics["trace.overhead_pct"] = (
            (reference - ops_per_s) / reference * 100.0 if reference > 0 else 0.0, "%"
        )
        os.makedirs(OUT, exist_ok=True)
        spans_path = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.jsonl")
        tracer.write_spans(spans_path)
        print(f"spans: {len(tracer.spans)} written to {os.path.relpath(spans_path, ROOT)}")
    else:
        metrics = {
            "p50_ms": (statistics.median(latencies) * 1000.0, "ms"),
            "p90_ms": (p90(latencies) * 1000.0, "ms"),
            "ops_per_s": (ops_per_s, "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        if setup is not None:
            metrics["setup_s"] = (setup, "s")

    if workload.digest is not None:
        print(f"digest {args.workload} seed={args.seed} rounds={rounds}: "
              f"{workload.digest.hexdigest()}")
    for problem in recorder.problems[:10]:
        print(f"problem: {problem}", file=sys.stderr)
    for problem in sorted(set(recorder.known_problems))[:3]:
        print(f"failed: {problem}", file=sys.stderr)
    for name in sorted(metrics):
        value, unit = metrics[name]
        print(f"{name:24s} {value:14.4f} {unit}")
    print(json.dumps({
        "correct": recorder.wrong == 0,
        "attempted": len(recorder.latencies),
        "failed": recorder.failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
