"""``plane-churn``: a control plane absorbing a seeded churn stream.

One round is one scenario from ``scenarios.generate_scenario`` (a k=6 fat
tree with per-pod backup chains and DPI middleboxes; link and switch
failures and recoveries, tenant joins and leaves, renegotiations, middlebox
rewrites), seeded by the run seed and the round number.  A fresh
``ControlPlane`` group compiles the population's base policy, then one
client sends the events in waves: it converts each event with
``to_delta()``, submits the whole wave without yielding, and awaits every
ticket before the next wave.  Disjoint policy deltas of a wave therefore
merge into one transaction deterministically; topology deltas run alone.

One operation is one event, timed from ``submit`` until its ticket
resolves.  The compiler is built as the scenario replay harness builds it
(``overlap="trust"``, no catch-all: the generated statements are disjoint
by construction) but with code generation on, as a controller pushes
switch code on every commit.

Checks run once a wave has drained.  Tickets that share one result object
were committed by one transaction; that result is checked against the
statements, guarantees and failures the benchmark tracked from the events
up to the last of those tickets.  Checking an earlier ticket against the
state after the whole wave would flag transactions that committed before
later events of the same wave.  At the end of a round the committed
allocation must equal a fresh compile of the final policy plus one
``TopologyDelta`` holding the final failures.
"""

from __future__ import annotations

import asyncio
from time import perf_counter
from typing import Dict, List, Tuple

from common import (
    Digest,
    Expected,
    TopologyIndex,
    check_allocation,
    max_utilisation,
    same_allocation,
    stream_seed,
)

ARITY = 6
EVENTS_PER_ROUND = 120
WAVE = 8


def _endpoints(index: TopologyIndex, predicate) -> Tuple[str, str]:
    """Source and destination hosts named by a statement's eth.src/eth.dst tests."""
    found: Dict[str, str] = {}
    pending = [predicate]
    while pending:
        node = pending.pop()
        field = getattr(node, "field", None)
        if field in ("eth.src", "eth.dst"):
            found[field] = index.mac_to_host[str(node.value).lower()]
        pending.extend(node.children())
    return found["eth.src"], found["eth.dst"]


def _function(statement, placements) -> object:
    for symbol in statement.path.symbols():
        if symbol in placements:
            return symbol
    return None


class _Tracked:
    """The policy and failure state implied by the events sent so far."""

    def __init__(self, index: TopologyIndex, population) -> None:
        self.index = index
        self.placements = population.placements
        self.statements = {s.identifier: s for s in population.policy.statements}
        self.guarantees = {
            identifier: mbps * 1e6
            for identifier, mbps in population.base_rates_mbps.items()
        }
        self.failed_links: frozenset = frozenset()
        self.failed_nodes: frozenset = frozenset()

    def apply(self, delta) -> None:
        if hasattr(delta, "fail_links"):
            self.failed_links = (
                self.failed_links | set(delta.fail_links)
            ) - set(delta.recover_links)
            self.failed_nodes = (
                self.failed_nodes | set(delta.fail_nodes)
            ) - set(delta.recover_nodes)
            return
        for identifier in delta.remove:
            self.statements.pop(identifier)
            self.guarantees.pop(identifier, None)
        for entry in delta.add:
            identifier = entry.statement.identifier
            self.statements[identifier] = entry.statement
            self.guarantees[identifier] = (
                entry.guarantee.bps_value if entry.guarantee is not None else 0.0
            )
        for update in delta.update_rates:
            self.guarantees[update.identifier] = (
                update.guarantee.bps_value if update.guarantee is not None else 0.0
            )

    def snapshot(self):
        expected = {}
        for identifier, statement in self.statements.items():
            source, destination = _endpoints(self.index, statement.predicate)
            expected[identifier] = Expected(
                source,
                destination,
                self.guarantees.get(identifier, 0.0),
                _function(statement, self.placements),
            )
        return expected, self.failed_links, self.failed_nodes


class PlaneChurn:
    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.utilisations: List[float] = []
        self.digest = Digest()
        self._next = self._prepare(0)

    def _prepare(self, number: int):
        """Generate one round's scenario and open its group (set-up, untimed)."""
        from repro import ControlPlane
        from repro.scenarios import ScenarioConfig, generate_scenario

        scenario = generate_scenario(
            ScenarioConfig(
                seed=stream_seed(self.seed, "churn", number) % 1_000_000,
                events=EVENTS_PER_ROUND,
                arity=ARITY,
            )
        )
        population = scenario.population
        loop = asyncio.new_event_loop()
        plane = ControlPlane()
        compiler = self._compiler(population)

        async def open_group():
            plane.start()
            await plane.open_group("pods", population.policy, compiler=compiler)

        loop.run_until_complete(open_group())
        return scenario, loop, plane

    @staticmethod
    def _compiler(population):
        from repro import MerlinCompiler

        return MerlinCompiler(
            topology=population.topology,
            placements=population.placements,
            overlap="trust",
            add_catch_all=False,
        )

    def play_round(self, number: int, record, tracer) -> float:
        scenario, loop, plane = self._next if self._next is not None else self._prepare(number)
        self._next = None
        try:
            return loop.run_until_complete(
                self._stream(scenario, plane, record, tracer)
            )
        finally:
            _stop(loop, plane)

    def close(self) -> None:
        """Shut down a prepared group that no round consumed."""
        if self._next is not None:
            _, loop, plane = self._next
            self._next = None
            _stop(loop, plane)

    async def _stream(self, scenario, plane, record, tracer) -> float:
        population = scenario.population
        index = TopologyIndex(population.topology)
        tracked = _Tracked(index, population)
        events = list(scenario.events)
        busy = 0.0
        last = None
        for first in range(0, len(events), WAVE):
            wave = events[first:first + WAVE]
            deltas = [event.to_delta() for event in wave]
            with tracer.operation(weight=len(wave)) as timer:
                outcomes = await _send_wave(plane, deltas)
            busy += timer.seconds
            expectations = []
            for delta in deltas:
                tracked.apply(delta)
                expectations.append(tracked.snapshot())
            problems = self._check_wave(index, population, outcomes, expectations)
            for (latency, _, error), trouble in zip(outcomes, problems):
                record(latency, trouble, error=error is not None)
            results = [result for _, result, _ in outcomes if result is not None]
            tracer.add_results(_distinct(results))
            if results:
                last = results[-1]
        tracer.absorb(plane.metrics())
        if last is not None:
            trouble = self._check_final(population, last, tracked)
            if trouble:
                record.fail_last(trouble)
        return busy

    def _check_wave(self, index, population, outcomes, expectations) -> List[List[str]]:
        """Problems per event; tickets sharing a result are checked once."""
        problems: List[List[str]] = [[] for _ in outcomes]
        position = 0
        while position < len(outcomes):
            _, result, error = outcomes[position]
            if error is not None:
                problems[position] = [error]
                position += 1
                continue
            end = position
            while end + 1 < len(outcomes) and outcomes[end + 1][1] is result:
                end += 1
            expected, failed_links, failed_nodes = expectations[end]
            trouble = check_allocation(
                index, result, expected, population.placements,
                failed_links=failed_links, failed_nodes=failed_nodes,
            )
            if result.instructions is None or result.instructions.total() <= 0:
                trouble.append("no instructions emitted")
            if not trouble:
                self.utilisations.append(max_utilisation(index, result))
                self.digest.add(result)
            for slot in range(position, end + 1):
                problems[slot] = list(trouble)
            position = end + 1
        return problems

    def _check_final(self, population, last, tracked) -> List[str]:
        from repro import TopologyDelta

        fresh = self._compiler(population)
        try:
            expected = fresh.compile(last.policy)
            if tracked.failed_links or tracked.failed_nodes:
                expected = fresh.recompile(
                    TopologyDelta(
                        fail_links=tuple(sorted(tracked.failed_links)),
                        fail_nodes=tuple(sorted(tracked.failed_nodes)),
                    )
                )
        except Exception as error:  # the fresh compile itself failing is a finding
            return [f"fresh compile failed: {type(error).__name__}: {error}"]
        return same_allocation(last, expected)


async def _send_wave(plane, deltas) -> List[Tuple[float, object, object]]:
    """Submit a wave without yielding; (latency, result, error) per event."""
    pending = []
    for delta in deltas:
        started = perf_counter()
        try:
            ticket = plane.submit("pods", delta)
        except Exception as error:  # admission or validation refused it
            pending.append((started, None, f"{type(error).__name__}: {error}"))
            continue
        pending.append((started, ticket, None))

    async def settle(started, ticket, error):
        if ticket is None:
            return perf_counter() - started, None, error
        try:
            result = await ticket.result()
        except Exception as failure:
            return perf_counter() - started, None, f"{type(failure).__name__}: {failure}"
        return perf_counter() - started, result, None

    return list(await asyncio.gather(*(settle(*item) for item in pending)))


def _stop(loop, plane) -> None:
    """Drain the plane, join the loop's worker threads and close the loop."""
    loop.run_until_complete(plane.shutdown())
    loop.run_until_complete(loop.shutdown_default_executor())
    loop.close()


def _distinct(results):
    seen = set()
    for result in results:
        if id(result) not in seen:
            seen.add(id(result))
            yield result
