"""Self-test of the benchmark's checks: corrupted outputs must be caught.

    python3 perfbench/selftest.py

Produces one real output per workload, shows that each passes its check,
then corrupts it (a shifted reservation, a path through a failed link, a
skipped waypoint, a broken sink tree, a diverging fresh compile, a flipped
verdict) and shows that the check fires.  Exits 1 if any check stays
silent.
"""

from __future__ import annotations

import dataclasses
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from common import check_allocation, check_sink_trees, link_key, same_allocation  # noqa: E402


def _shift_reservation(result):
    key = next(k for k, v in result.link_reservations.items() if v.bps_value > 0)
    reservations = dict(result.link_reservations)
    reservations[key] = type(reservations[key])(reservations[key].bps_value + 1e6)
    return dataclasses.replace(result, link_reservations=reservations)


def _reroute(result, identifier, path):
    paths = dict(result.paths)
    paths[identifier] = dataclasses.replace(paths[identifier], path=tuple(path))
    return dataclasses.replace(result, paths=paths)


def compile_cases(cases) -> None:
    import random

    from compile_mix import CompileMix, _policy
    from repro import MerlinCompiler

    workload = CompileMix(seed=7)
    topology = workload.topologies["campus"][0]
    placements = workload.placements["campus"]
    text, expected = _policy("campus", topology, 12, random.Random(3), guarantees=True)
    result = MerlinCompiler(topology=topology, placements=placements).compile(text)
    index = workload.indexes[id(topology)]

    def allocation(candidate, **failures):
        return check_allocation(index, candidate, expected, placements, **failures)

    cases.append(("compile-mix output passes", allocation(result) + check_sink_trees(index, result), False))
    cases.append(("shifted reservation", allocation(_shift_reservation(result)), True))

    waypointed = next(k for k, v in expected.items() if v.function == "dpi")
    path = result.paths[waypointed].path
    detour = [node for node in path if index.kind[node] != "middlebox"]
    detour = [node for position, node in enumerate(detour) if position == 0 or detour[position - 1] != node]
    cases.append(("path skips its waypoint", allocation(_reroute(result, waypointed, detour)), True))

    guaranteed = next(k for k, v in expected.items() if v.guarantee_bps > 0)
    hops = result.paths[guaranteed].path
    failed = frozenset({link_key(hops[1], hops[2])})
    cases.append(("path through a failed link", allocation(result, failed_links=failed), True))

    root, tree = next(iter(result.sink_trees.items()))
    switch = next(s for s, hop in tree.next_hop.items() if hop != root)
    next_hop = dict(tree.next_hop)
    next_hop[switch] = switch
    broken = dict(result.sink_trees)
    broken[root] = dataclasses.replace(tree, next_hop=next_hop)
    cases.append(("sink tree loops", check_sink_trees(index, dataclasses.replace(result, sink_trees=broken)), True))

    topology, placements, text, expected = workload.fault
    result = MerlinCompiler(topology=topology, placements=placements).compile(text)
    cases.append(
        ("flow-cycle fault compile (real output)",
         check_allocation(workload.indexes[id(topology)], result, expected, placements), True)
    )


def plane_cases(cases) -> None:
    from plane_churn import PlaneChurn, _stop, _Tracked

    workload = PlaneChurn(seed=7)
    scenario, loop, plane = workload._next
    workload._next = None
    try:
        population = scenario.population
        result = loop.run_until_complete(_first_result(plane, scenario))
    finally:
        _stop(loop, plane)
    from common import TopologyIndex

    index = TopologyIndex(population.topology)
    tracked = _Tracked(index, population)
    tracked.apply(scenario.events[0].to_delta())
    expected, failed_links, failed_nodes = tracked.snapshot()

    def allocation(candidate, links=failed_links):
        return check_allocation(
            index, candidate, expected, population.placements,
            failed_links=links, failed_nodes=failed_nodes,
        )

    cases.append(("plane-churn output passes", allocation(result), False))
    identifier = next(iter(sorted(result.paths)))
    hops = result.paths[identifier].path
    cases.append(
        ("plane path through a failed link",
         allocation(result, failed_links | {link_key(hops[1], hops[2])}), True)
    )
    cases.append(("plane shifted reservation", allocation(_shift_reservation(result)), True))
    cases.append(("fresh compile differs", same_allocation(result, _shift_reservation(result)), True))


async def _first_result(plane, scenario):
    ticket = plane.submit("pods", scenario.events[0].to_delta())
    return await ticket.result()


def delegation_cases(cases) -> None:
    from delegation import DelegationVerify, check_verdict
    from repro import verify_refinement

    seen = set()
    for kind, valid, original, refined in DelegationVerify(seed=7).round(0):
        if (kind, valid) in seen:
            continue
        seen.add((kind, valid))
        report = verify_refinement(original, refined)
        label = f"{kind} {'valid' if valid else 'invalid'}"
        cases.append((f"{label} verdict passes", check_verdict(kind, valid, report), False))
        flipped = dataclasses.replace(report, valid=not report.valid)
        cases.append((f"{label} flipped verdict", check_verdict(kind, valid, flipped), True))


def main() -> int:
    cases = []
    compile_cases(cases)
    plane_cases(cases)
    delegation_cases(cases)
    failures = 0
    for label, problems, should_fire in cases:
        fired = bool(problems)
        ok = fired == should_fire
        failures += not ok
        detail = problems[0] if problems else "no problem reported"
        print(f"{'ok  ' if ok else 'FAIL'} {label}: {detail}")
    print(f"{len(cases) - failures}/{len(cases)} self-test cases behaved as expected")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
