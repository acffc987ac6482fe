"""``delegation-verify``: checking tenant refinements of delegated sub-policies.

One round is a fixed list of slots (kind, size, valid); each slot draws a
fresh refinement from the run seed and the round number and checks it with
``verify_refinement``.  Kinds:

* ``split`` — a predicate split: the delegated statement (TCP traffic of
  one source) is split by destination port into ``size`` statements plus
  the remainder.  Invalid by construction: the remainder is dropped, which
  leaves packets uncovered (``coverage``).
* ``path`` — a path refinement of a chain ``.* f1 .* ... fk .*`` of about
  ``size`` AST nodes, which gains one waypoint.  Invalid: one of the
  parent's waypoints is dropped as well (``path``).
* ``bandwidth`` — each of ``size`` capped statements is split in two, with
  caps that sum to the parent's cap.  Invalid: one cap is raised by
  1 Mbps (``bandwidth``).

A quarter of the slots are invalid, one of each kind per round.  The check
is that each verdict, and the kind of every violation, is what the
construction implies.
"""

from __future__ import annotations

import random
from typing import List, Optional, Tuple

from common import stream_seed

#: (kind, size, valid) slots of one round.  Splits are the cheapest, path
#: refinements the middle and bandwidth re-splits the dearest, so the median
#: falls inside the path cluster and the 90th percentile inside the
#: bandwidth cluster, whatever the seed.  The invalid path refinement is
#: smaller because its counterexample search costs extra.
ROUND: Tuple[Tuple[str, int, bool], ...] = (
    ("split", 70, True),
    ("split", 70, True),
    ("split", 70, False),
    ("path", 50, True),
    ("path", 50, True),
    ("path", 50, True),
    ("path", 50, True),
    ("path", 50, True),
    ("path", 40, False),
    ("bandwidth", 35, True),
    ("bandwidth", 35, True),
    ("bandwidth", 35, False),
)

FUNCTIONS = tuple(f"fn{number}" for number in range(40))
EXPECTED_KIND = {"split": "coverage", "path": "path", "bandwidth": "bandwidth"}


class DelegationVerify:
    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.utilisations: List[float] = []
        self.digest = None
        self._first = self.round(0)  # round 0 inputs are part of set-up

    def _operations(self, number: int):
        if number == 0 and self._first is not None:
            first, self._first = self._first, None
            return first
        return self.round(number)

    def round(self, number: int):
        operations = []
        for slot, (kind, size, valid) in enumerate(ROUND):
            rng = random.Random(stream_seed(self.seed, number, slot))
            original, refined = BUILDERS[kind](size, valid, rng)
            operations.append((kind, valid, original, refined))
        return operations

    def play_round(self, number: int, record, tracer) -> float:
        from repro import verify_refinement

        busy = 0.0
        for kind, valid, original, refined in self._operations(number):
            with tracer.operation() as timer:
                try:
                    report, error = verify_refinement(original, refined), None
                except Exception as failure:  # a crash is a failed operation
                    report, error = None, f"{type(failure).__name__}: {failure}"
            busy += timer.seconds
            if error:
                record(timer.seconds, [error], error=True)
            else:
                record(timer.seconds, check_verdict(kind, valid, report))
        return busy

    def close(self) -> None:
        pass


def check_verdict(kind: str, valid: bool, report) -> List[str]:
    """The verdict and the violation kinds the construction implies."""
    kinds = sorted({violation.kind for violation in report.violations})
    wanted = [] if valid else [EXPECTED_KIND[kind]]
    if report.valid != valid or kinds != wanted:
        return [
            f"{'valid' if valid else 'invalid'} {kind} refinement: "
            f"verdict {report.valid}, violations {kinds}"
        ]
    return []


def _mac(rng: random.Random) -> str:
    return ":".join(f"{rng.randrange(256):02x}" for _ in range(6))


def _split(size: int, valid: bool, rng: random.Random):
    from repro import Policy, Statement
    from repro.predicates.ast import FieldTest, pred_and, pred_not, pred_or
    from repro.regex.ast import DOT, star

    scope = pred_and(FieldTest("ip.proto", 6), FieldTest("eth.src", _mac(rng)))
    anywhere = star(DOT)
    original = Policy(statements=(Statement("tenant", scope, anywhere),))
    ports = rng.sample(range(1, 65536), size)
    statements = [
        Statement(f"port{port}", pred_and(scope, FieldTest("tcp.dst", port)), anywhere)
        for port in ports
    ]
    if valid:
        rest = pred_and(scope, pred_not(pred_or(*[FieldTest("tcp.dst", p) for p in ports])))
        statements.append(Statement("rest", rest, anywhere))
    return original, Policy(statements=tuple(statements))


def _chain(functions):
    from repro.regex.ast import DOT, Symbol, concat, star

    expression = star(DOT)
    for function in functions:
        expression = concat(expression, Symbol(function), star(DOT))
    return expression


def _path(size: int, valid: bool, rng: random.Random):
    from repro import Policy, Statement
    from repro.predicates.ast import FieldTest, pred_and

    # ``.* f .*`` adds five AST nodes per waypoint to the leading ``.*``.
    waypoints = rng.sample(FUNCTIONS, max(1, (size - 2) // 5))
    extra = rng.choice([f for f in FUNCTIONS if f not in waypoints])
    refined_waypoints = list(waypoints)
    refined_waypoints.insert(rng.randrange(len(waypoints) + 1), extra)
    if not valid:
        refined_waypoints.remove(rng.choice(waypoints))
    predicate = pred_and(FieldTest("ip.proto", 6), FieldTest("eth.dst", _mac(rng)))
    original = Policy(statements=(Statement("tenant", predicate, _chain(waypoints)),))
    refined = Policy(statements=(Statement("tenant", predicate, _chain(refined_waypoints)),))
    return original, refined


def _bandwidth(size: int, valid: bool, rng: random.Random):
    from repro import Bandwidth, Policy, Statement
    from repro.core.ast import BandwidthTerm, FMax, formula_and
    from repro.predicates.ast import FieldTest, pred_and, pred_not
    from repro.regex.ast import DOT, star

    anywhere = star(DOT)
    ports = rng.sample(range(1, 65536), size)
    caps = [rng.randint(10, 200) for _ in ports]
    raised: Optional[int] = None if valid else rng.randrange(size)
    originals, parent_caps, statements, clauses = [], [], [], []
    for position, (port, cap) in enumerate(zip(ports, caps)):
        identifier = f"o{position}"
        base = FieldTest("tcp.dst", port)
        originals.append(Statement(identifier, base, anywhere))
        parent_caps.append(FMax(BandwidthTerm((identifier,)), Bandwidth.mbps(cap)))
        half = FieldTest("eth.src", _mac(rng))
        first = rng.randint(1, cap - 1)
        second = cap - first + (1 if position == raised else 0)
        for suffix, predicate, share in (
            ("a", pred_and(base, half), first),
            ("b", pred_and(base, pred_not(half)), second),
        ):
            statements.append(Statement(identifier + suffix, predicate, anywhere))
            clauses.append(FMax(BandwidthTerm((identifier + suffix,)), Bandwidth.mbps(share)))
    original = Policy(statements=tuple(originals), formula=formula_and(*parent_caps))
    refined = Policy(statements=tuple(statements), formula=formula_and(*clauses))
    return original, refined


BUILDERS = {"split": _split, "path": _path, "bandwidth": _bandwidth}
