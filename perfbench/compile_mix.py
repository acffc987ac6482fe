"""``compile-mix``: one-shot compiles of distinct policies, source text to switch code.

One round is a fixed list of slots; each slot draws a fresh policy from the
run seed, the round number and the slot, so no two compiles in a run share
a policy.  The slot list fixes how much work of each kind a round holds,
which keeps the per-run medians comparable across seeds; the seed only
changes which hosts, ports and waypoints the policies use.

Families:

* ``campus`` — the Stanford-like campus with DPI and monitor middleboxes:
  web statements waypointed through ``dpi``, some through ``monitor``.
  Most of the time goes to the pairwise overlap check and the product
  graphs of the waypointed statements.
* ``fat-tree-6`` / ``fat-tree-8`` — host-pair statements on k=6 and k=8
  fat trees: endpoint inference, sink trees and rules over many hosts.
* ``zoo`` — zoo-like WANs of 110 switches: the generated catch-all brings
  all-pairs sink trees and their rules.

The seeded policies carry no bandwidth guarantees: guaranteed compiles on
these topologies intermittently return a MIP solution with a flow cycle
(about 1 in 200 random 16-pair compiles on the k=6 fat tree), which shows
as a reservation that no path explains or as a ``ProvisioningError``, so a
run's failed share would depend on its seed.  MIP build and solve are
measured instead by :data:`FAULT`, one fixed guaranteed compile per round
that hits the flow-cycle fault every time; it counts as failed and leaves
``correct`` true.

Every compile uses a fresh ``MerlinCompiler`` on the compiler's defaults
(``overlap="reject"``, generated catch-all, ``MIN_MAX_RATIO``, code
generation on).
"""

from __future__ import annotations

import random
from typing import Dict, List, Tuple

from common import (
    Digest,
    Expected,
    TopologyIndex,
    check_allocation,
    check_sink_trees,
    max_utilisation,
    stream_seed,
)

#: (family, statements, zoo switches) slots of one round.  With the fixed
#: FAULT compile a round holds 18 operations; sorted by cost they form four
#: groups: six small policies, six 40-statement campus policies, three
#: k=8 / fault compiles and three 110-switch zoo members.  The median then
#: falls in the middle of the campus group and the 90th percentile inside
#: the zoo group, never on a boundary between two families, where it would
#: jump from run to run.
ROUND: Tuple[Tuple[str, int, int], ...] = (
    ("campus", 12, 0),
    ("campus", 12, 0),
    ("campus", 12, 0),
    ("fat-tree-6", 16, 0),
    ("fat-tree-6", 16, 0),
    ("fat-tree-6", 16, 0),
    ("campus", 40, 0),
    ("campus", 40, 0),
    ("campus", 40, 0),
    ("campus", 40, 0),
    ("campus", 40, 0),
    ("campus", 40, 0),
    ("fat-tree-8", 40, 0),
    ("fat-tree-8", 40, 0),
    ("zoo", 16, 110),
    ("zoo", 16, 110),
    ("zoo", 16, 110),
)

#: The fixed operation that fails every time: 16 guaranteed host pairs on
#: ``fat_tree(6)``, drawn by ``_policy`` from ``random.Random(1246)``.  The
#: solver's answer carries a flow cycle for one statement, so link
#: a1_2-c2_2 holds 20 Mbps that no path crosses.
FAULT = ("fat-tree-6", 16, 1246)

#: Zoo-like members built in set-up; slots cycle through them, so a run
#: averages over several graph structures.
ZOO_VARIANTS = 6

CAMPUS_WEB_SHARE = 0.35
CAMPUS_MONITOR_SHARE = 0.15


class CompileMix:
    def __init__(self, seed: int) -> None:
        from repro import fat_tree, topology_zoo_like
        from repro.experiments.policy_builders import (
            FIGURE4_PLACEMENTS,
            stanford_with_middleboxes,
        )

        self.seed = seed
        self.topologies = {
            "campus": [stanford_with_middleboxes()],
            "fat-tree-6": [fat_tree(6)],
            "fat-tree-8": [fat_tree(8)],
        }
        for _, _, switches in ROUND:
            if switches and ("zoo", switches) not in self.topologies:
                self.topologies[("zoo", switches)] = [
                    topology_zoo_like(
                        switches, seed=stream_seed(seed, "zoo", switches, variant) % 100000
                    )
                    for variant in range(ZOO_VARIANTS)
                ]
        self.indexes = {
            id(topology): TopologyIndex(topology)
            for group in self.topologies.values()
            for topology in group
        }
        self.placements = {
            "campus": {k: tuple(v) for k, v in FIGURE4_PLACEMENTS.items()},
        }
        family, statements, fault_seed = FAULT
        topology = self.topologies[family][0]
        self.fault = (topology, {}) + _policy(
            family, topology, statements, random.Random(fault_seed), guarantees=True
        )
        self.utilisations: List[float] = []
        self.digest = Digest()
        self._first = self.round(0)  # round 0 inputs are part of set-up

    def _operations(self, number: int):
        if number == 0 and self._first is not None:
            first, self._first = self._first, None
            return first
        return self.round(number)

    def round(self, number: int) -> List[Tuple[object, ...]]:
        """One round: (topology, placements, text, expected, known fault) per slot."""
        operations = []
        for slot, (family, statements, switches) in enumerate(ROUND):
            rng = random.Random(stream_seed(self.seed, number, slot))
            if family == "zoo":
                group = self.topologies[("zoo", switches)]
                topology = group[(number + slot) % len(group)]
            else:
                topology = self.topologies[family][0]
            placements = self.placements.get(family, {})
            text, expected = _policy(family, topology, statements, rng)
            operations.append((topology, placements, text, expected, False))
        operations.append(self.fault + (True,))
        return operations

    def play_round(self, number: int, record, tracer) -> float:
        """Compile every policy of one round; returns the time spent compiling."""
        from repro import MerlinCompiler

        busy = 0.0
        for topology, placements, text, expected, known_fault in self._operations(number):
            with tracer.operation() as timer:
                try:
                    result = MerlinCompiler(
                        topology=topology, placements=placements
                    ).compile(text)
                except Exception as error:  # a failed compile is a failed operation
                    result, problems = None, [f"{type(error).__name__}: {error}"]
            if result is not None:
                problems = self.check(topology, placements, expected, result)
                tracer.add_results([result])
            busy += timer.seconds
            record(timer.seconds, problems, error=result is None, known_fault=known_fault)
        return busy

    def close(self) -> None:
        pass

    def check(self, topology, placements, expected, result) -> List[str]:
        index = self.indexes[id(topology)]
        problems = check_allocation(index, result, expected, placements)
        problems += check_sink_trees(index, result)
        if result.instructions is None or result.instructions.total() <= 0:
            problems.append("no instructions emitted")
        if problems:
            return problems
        self.digest.add(result)
        if any(want.guarantee_bps > 0 for want in expected.values()):
            mine = max_utilisation(index, result)
            if abs(mine - result.max_link_utilization()) > 1e-9:
                return ["reported r_max differs from the reservations"]
            self.utilisations.append(mine)
        return []


def _policy(family: str, topology, count: int, rng: random.Random, guarantees: bool = False):
    """Merlin source text for one policy, and what each statement asked for.

    Campus shares of waypointed statements are fixed counts dealt at random,
    so every policy of a slot carries the same kinds of work.  Statements
    match distinct (source, destination, port) triples, so they are
    pairwise disjoint and pass the compiler's overlap check.  With
    ``guarantees`` every statement asks for 1-20 Mbps.
    """
    functions = [None] * count
    if family == "campus":
        web = round(CAMPUS_WEB_SHARE * count)
        monitored = round(CAMPUS_MONITOR_SHARE * count)
        functions = ["dpi"] * web + ["monitor"] * monitored + [None] * (count - web - monitored)
        rng.shuffle(functions)
    hosts = topology.host_names()
    used = set()
    lines: List[str] = []
    clauses: List[str] = []
    expected: Dict[str, Expected] = {}
    for function in functions:
        while True:
            source, destination = rng.sample(hosts, 2)
            port = rng.choice((80, 443, 8080)) if function == "dpi" else rng.randrange(1024, 60000)
            if (source, destination, port) not in used:
                break
        used.add((source, destination, port))
        identifier = f"s{len(lines)}"
        path = f".* {function} .*" if function else ".*"
        lines.append(
            f"{identifier} : (eth.src = {topology.node(source).mac} and "
            f"eth.dst = {topology.node(destination).mac} and tcp.dst = {port}) -> {path}"
        )
        mbps = rng.randint(1, 20) if guarantees else 0
        if mbps:
            clauses.append(f"min({identifier}, {mbps}Mbps)")
        expected[identifier] = Expected(source, destination, mbps * 1e6, function)
    text = "[ " + " ;\n  ".join(lines) + " ]"
    if clauses:
        text += ",\n" + " and ".join(clauses)
    return text, expected
