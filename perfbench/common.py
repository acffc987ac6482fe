"""Pieces shared by the workloads: statistics, the topology index, the checks.

Every check here is computed from the benchmark's own view of the inputs:
the topology's nodes and links, and the statements, guarantees, waypoints
and failures the benchmark itself generated or sent.  Nothing is compared
against a saved copy of an earlier output.  Each check returns a list of
problems; an empty list means the output passed.
"""

from __future__ import annotations

import hashlib
import statistics
from collections import deque
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Tuple

#: Absolute slack allowed on a reservation, as a share of the link's capacity
#: (the solver returns utilisation fractions as floats).
RESERVATION_TOLERANCE = 1e-6


def stream_seed(seed: int, *parts: object) -> int:
    """A child seed for one round or slot, stable across processes.

    Python's ``hash`` of a string changes with ``PYTHONHASHSEED``, so the
    derivation goes through SHA-256 instead.
    """
    text = ":".join(str(part) for part in (seed, *parts))
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big")


def p90(values: List[float]) -> float:
    """The 90th percentile (the median alone when there are too few values)."""
    if len(values) < 10:
        return statistics.median(values)
    return statistics.quantiles(values, n=10)[8]


def link_key(u: str, v: str) -> Tuple[str, str]:
    return (u, v) if u <= v else (v, u)


class TopologyIndex:
    """The benchmark's own adjacency, capacity and address tables."""

    def __init__(self, topology) -> None:
        self.kind: Dict[str, str] = {}
        self.mac_to_host: Dict[str, str] = {}
        for node in topology.nodes():
            self.kind[node.name] = node.kind.value
            if node.is_host:
                self.mac_to_host[str(node.mac).lower()] = node.name
        self.adjacent: Dict[str, set] = {name: set() for name in self.kind}
        self.capacity: Dict[Tuple[str, str], float] = {}
        for link in topology.links():
            self.adjacent[link.source].add(link.target)
            self.adjacent[link.target].add(link.source)
            self.capacity[link_key(link.source, link.target)] = link.capacity.bps_value

    def is_switch(self, name: str) -> bool:
        return self.kind[name] == "switch"

    def egress_switches(self) -> FrozenSet[str]:
        return frozenset(
            name
            for name in self.kind
            if self.is_switch(name)
            and any(self.kind[peer] == "host" for peer in self.adjacent[name])
        )


@dataclass(frozen=True)
class Expected:
    """What the benchmark asked for one statement."""

    source: str
    destination: str
    guarantee_bps: float = 0.0
    function: Optional[str] = None  # a waypoint the path must visit

    @property
    def needs_path(self) -> bool:
        """Guaranteed or waypointed statements get an explicit path."""
        return self.guarantee_bps > 0 or self.function is not None


def check_allocation(
    index: TopologyIndex,
    result,
    expected: Mapping[str, Expected],
    placements: Mapping[str, Iterable[str]],
    failed_links: FrozenSet[Tuple[str, str]] = frozenset(),
    failed_nodes: FrozenSet[str] = frozenset(),
) -> List[str]:
    """Walks, waypoints, guarantees, reservation sums and capacities."""
    problems: List[str] = []
    load: Dict[Tuple[str, str], float] = {}
    for identifier, want in expected.items():
        rate = result.rates.get(identifier)
        got_guarantee = (
            rate.guarantee.bps_value
            if rate is not None and rate.guarantee is not None
            else 0.0
        )
        if abs(got_guarantee - want.guarantee_bps) > 1.0:
            problems.append(
                f"{identifier}: guarantee {got_guarantee} != asked {want.guarantee_bps}"
            )
        if not want.needs_path:
            continue
        assignment = result.paths.get(identifier)
        if assignment is None or not assignment.path:
            problems.append(f"{identifier}: no path")
            continue
        path = tuple(assignment.path)
        if path[0] != want.source or path[-1] != want.destination:
            problems.append(
                f"{identifier}: path runs {path[0]}..{path[-1]}, "
                f"not {want.source}..{want.destination}"
            )
        for node in path:
            if node not in index.kind or node in failed_nodes:
                problems.append(f"{identifier}: path visits missing node {node}")
        for left, right in zip(path, path[1:]):
            if left == right:
                continue
            key = link_key(left, right)
            if right not in index.adjacent.get(left, ()) or key in failed_links:
                problems.append(f"{identifier}: no live link {left}-{right}")
                continue
            if want.guarantee_bps > 0:
                load[key] = load.get(key, 0.0) + want.guarantee_bps
        if want.function is not None:
            hosts = set(placements.get(want.function, ()))
            if not hosts.intersection(path):
                problems.append(
                    f"{identifier}: path skips every {want.function} location"
                )
    reservations = {
        link_key(*key): value.bps_value
        for key, value in result.link_reservations.items()
    }
    for key in set(load) | set(reservations):
        capacity = index.capacity.get(key)
        if capacity is None:
            problems.append(f"reservation on unknown link {key}")
            continue
        reserved = reservations.get(key, 0.0)
        if abs(reserved - load.get(key, 0.0)) > RESERVATION_TOLERANCE * capacity:
            problems.append(
                f"link {key}: reserved {reserved:.1f} != guarantees crossing it "
                f"{load.get(key, 0.0):.1f}"
            )
        if reserved > capacity * (1.0 + RESERVATION_TOLERANCE):
            problems.append(f"link {key}: reserved {reserved:.1f} > capacity {capacity}")
    return problems


def max_utilisation(index: TopologyIndex, result) -> float:
    """r_max recomputed from the reservations and the topology's capacities."""
    best = 0.0
    for key, value in result.link_reservations.items():
        capacity = index.capacity[link_key(*key)]
        best = max(best, value.bps_value / capacity)
    return best


def hop_distances(index: TopologyIndex, root: str) -> Dict[str, int]:
    """BFS hop counts from ``root`` over the switch-to-switch links."""
    distance = {root: 0}
    queue = deque([root])
    while queue:
        current = queue.popleft()
        for peer in index.adjacent[current]:
            if peer not in distance and index.is_switch(peer):
                distance[peer] = distance[current] + 1
                queue.append(peer)
    return distance


def check_sink_trees(index: TopologyIndex, result) -> List[str]:
    """Every egress switch has a tree whose next hops walk down the BFS distance."""
    problems: List[str] = []
    egress = index.egress_switches()
    if set(result.sink_trees) != egress:
        problems.append(
            f"sink trees for {len(result.sink_trees)} roots, "
            f"{len(egress)} egress switches"
        )
    for root, tree in result.sink_trees.items():
        distance = hop_distances(index, root)
        if set(tree.next_hop) != set(distance) - {root}:
            problems.append(f"tree {root}: does not span its reachable switches")
        for switch, hop in tree.next_hop.items():
            if hop not in index.adjacent.get(switch, ()):
                problems.append(f"tree {root}: {switch}->{hop} is not a link")
            elif distance.get(hop, -1) != distance.get(switch, -2) - 1:
                problems.append(f"tree {root}: {switch}->{hop} does not approach the root")
    return problems


def same_allocation(left, right) -> List[str]:
    """Identical paths and reservations (used for the fresh-compile check)."""
    problems: List[str] = []
    left_paths = {k: tuple(v.path) for k, v in left.paths.items()}
    right_paths = {k: tuple(v.path) for k, v in right.paths.items()}
    if left_paths != right_paths:
        differing = sorted(
            k for k in set(left_paths) | set(right_paths)
            if left_paths.get(k) != right_paths.get(k)
        )
        problems.append(f"paths differ for {differing[:5]}")
    left_res = {link_key(*k): v.bps_value for k, v in left.link_reservations.items()}
    right_res = {link_key(*k): v.bps_value for k, v in right.link_reservations.items()}
    for key in set(left_res) | set(right_res):
        if abs(left_res.get(key, 0.0) - right_res.get(key, 0.0)) > 1.0:
            problems.append(f"reservation differs on {key}")
            break
    return problems


class Digest:
    """A running digest of paths and reservations, to expose run-to-run drift."""

    def __init__(self) -> None:
        self._hash = hashlib.sha256()

    def add(self, result) -> None:
        for identifier in sorted(result.paths):
            self._hash.update(
                f"{identifier}={'/'.join(result.paths[identifier].path)};".encode()
            )
        for key in sorted(result.link_reservations):
            value = result.link_reservations[key].bps_value
            if value > 0:
                self._hash.update(f"{key[0]}~{key[1]}={value:.0f};".encode())

    def hexdigest(self) -> str:
        return self._hash.hexdigest()[:16]
