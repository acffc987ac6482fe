"""Show that a guaranteed compile depends on Python's string-hash seed.

    python3 perfbench/hashseed.py

Compiles 120 guaranteed host pairs (the first 120 all-pairs classes) on
``topology_zoo_like(90, seed=1)`` in four fresh processes with
``PYTHONHASHSEED`` 0 to 3 and prints, per process, a digest of the paths
and reservations, the total hop count and the largest link utilisation.
The same input should give one digest; differing digests show that some
choice inside the compiler follows set or dict order of strings.  The
benchmark leaves the hash seed unpinned and prints a digest per run, so
a fix shows up as one digest per seed.
"""

from __future__ import annotations

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def compile_once() -> str:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    from common import Digest, TopologyIndex, max_utilisation
    from repro import MerlinCompiler, topology_zoo_like
    from repro.experiments.policy_builders import all_pairs_policy

    topology = topology_zoo_like(90, seed=1)
    policy = all_pairs_policy(topology, guarantee_fraction=1.0, max_classes=120)
    result = MerlinCompiler(
        topology=topology, overlap="trust", add_catch_all=False, generate_code=False
    ).compile(policy)
    digest = Digest()
    digest.add(result)
    hops = sum(assignment.hop_count() for assignment in result.paths.values())
    rmax = max_utilisation(TopologyIndex(topology), result)
    return f"digest {digest.hexdigest()} hops {hops} r_max {rmax:.6f}"


def main() -> int:
    if "--child" in sys.argv:
        print(compile_once())
        return 0
    for seed in range(4):
        completed = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--child"],
            cwd=ROOT, capture_output=True, text=True, timeout=300, check=True,
            env={**os.environ, "PYTHONHASHSEED": str(seed)},
        )
        print(f"PYTHONHASHSEED={seed}: {completed.stdout.strip()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
