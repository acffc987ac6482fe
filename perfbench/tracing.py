"""Per-layer tracing from outside the program.

:class:`LayerTracer` replaces a fixed list of Merlin's public functions and
methods with timing wrappers, installed from the benchmark's own files: a
function is re-bound in every ``repro`` module that imported it by name, a
method on its class.  Each call made while an operation is running records
a span (name, start, end, parent span, operation id, thread) in memory; the
spans of the first round are written out as JSON lines when the run ends
(later rounds only feed the aggregates, which keeps memory bounded).

A layer's self time is its spans' time minus the time their child spans
cover.  ``unattributed.ms`` is operation time that no top-level span
covers.  Times are per-operation means over the whole run.  Work counts
(calls, states, rows, ...) are taken from the first round only, which every
run completes, so two traced runs of one seed can be compared exactly.

:class:`NullTracer` is what untraced runs use: it only times operations.
"""

from __future__ import annotations

import contextlib
import gc
import importlib
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

perf_counter = time.perf_counter


def settle() -> None:
    """Collect the garbage earlier operations left, outside any timing.

    Each operation then starts from the same collector state, so a cyclic
    collection triggered by one operation's garbage is not paid inside the
    next one; the collections an operation's own allocations trigger still
    fall inside it.
    """
    gc.collect()


class OperationTimer:
    __slots__ = ("seconds",)

    def __init__(self) -> None:
        self.seconds = 0.0


class NullTracer:
    """Times operations and records nothing else."""

    @contextlib.contextmanager
    def operation(self, weight: int = 1):
        settle()
        timer = OperationTimer()
        start = perf_counter()
        try:
            yield timer
        finally:
            timer.seconds = perf_counter() - start

    def start_round(self, number: int) -> None:
        pass

    def finish_round(self, number: int) -> None:
        pass

    def add_results(self, results) -> None:
        pass

    def absorb(self, snapshot) -> None:
        pass


def _standard_form_size(form) -> Tuple[int, int, int]:
    def nonzeros(matrix) -> int:
        if getattr(matrix, "nnz", None) is not None:
            return int(matrix.nnz)
        import numpy

        return int(numpy.count_nonzero(matrix))

    rows = form.a_ub.shape[0] + form.a_eq.shape[0]
    return rows, len(form.variables), nonzeros(form.a_ub) + nonzeros(form.a_eq)


def _count_standard_form(counts, form) -> None:
    rows, cols, nonzeros = _standard_form_size(form)
    counts["mip.rows"] += rows
    counts["mip.cols"] += cols
    counts["mip.nonzeros"] += nonzeros


def _count_verification(counts, report) -> None:
    counts["verify.pairs"] += report.checked_pairs
    counts["verify.clauses"] += report.checked_clauses


#: (layer, module, attribute, work counter applied to the return value).
TARGETS: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    ("parser", "repro.core.parser", "parse_policy", None),
    ("preprocess", "repro.core.preprocessor", "preprocess", None),
    ("sat", "repro.predicates.sat", "find_overlapping_pairs", None),
    ("sat", "repro.predicates.sat", "overlaps", None),
    ("sat", "repro.predicates.sat", "covers", None),
    ("sat", "repro.predicates.sat", "implies", None),
    ("localize", "repro.core.localization", "localize", None),
    ("endpoints", "repro.core.logical", "infer_endpoints", None),
    (
        "logical",
        "repro.core.logical",
        "build_logical_topology",
        lambda counts, logical: counts.__setitem__(
            "logical.edges", counts["logical.edges"] + logical.num_edges()
        ),
    ),
    ("tighten", "repro.core.logical", "prune_to_cost_bound", None),
    ("regex", "repro.regex.nfa", "NFA.from_regex", None),
    (
        "regex",
        "repro.regex.dfa",
        "DFA.from_nfa",
        lambda counts, dfa: counts.__setitem__(
            "dfa.states", counts["dfa.states"] + dfa.num_states()
        ),
    ),
    ("regex", "repro.regex.minimize", "minimize", None),
    ("regex", "repro.regex.operations", "included", None),
    ("regex", "repro.regex.operations", "counterexample", None),
    ("topology", "repro.topology.graph", "Topology.hosts", None),
    ("topology", "repro.topology.graph", "Topology.switches", None),
    ("topology", "repro.topology.graph", "Topology.neighbors", None),
    ("topology", "repro.topology.graph", "Topology.host_by_mac", None),
    ("topology", "repro.topology.graph", "Topology.switch_subgraph", None),
    ("topology", "repro.topology.graph", "Topology.without", None),
    (
        "sink_tree",
        "repro.core.sink_tree",
        "compute_sink_trees",
        lambda counts, trees: counts.__setitem__(
            "sink_tree.trees", counts["sink_tree.trees"] + len(trees)
        ),
    ),
    (
        "partition",
        "repro.incremental.partition",
        "partition_statements",
        lambda counts, spec: counts.__setitem__(
            "partition.components", counts["partition.components"] + len(spec)
        ),
    ),
    ("partition", "repro.incremental.partition", "tighten_logical_topologies", None),
    ("model_build", "repro.core.provisioning", "build_model_for_links", None),
    ("model_build", "repro.lp.model", "Model.to_standard_form", _count_standard_form),
    ("solve", "repro.lp.model", "Model.solve", None),
    (
        "recompile",
        "repro.core.compiler",
        "MerlinCompiler.recompile",
        lambda counts, result: counts.__setitem__(
            "recompile.dirty",
            counts["recompile.dirty"] + result.statistics.dirty_partitions,
        ),
    ),
    ("plane", "repro.service.daemon", "ControlPlane.submit", None),
    (
        "codegen",
        "repro.codegen.generator",
        "CodeGenerator.generate",
        lambda counts, bundle: counts.__setitem__(
            "codegen.instructions", counts["codegen.instructions"] + bundle.total()
        ),
    ),
    ("verify", "repro.negotiator.verification", "verify_refinement", _count_verification),
)

#: Layers reported as ``<layer>.ms`` (self time per operation).
TIMED_LAYERS = (
    "parser", "preprocess", "sat", "localize", "endpoints", "logical",
    "tighten", "regex", "topology", "sink_tree", "partition", "model_build",
    "solve", "recompile", "codegen", "verify",
)

#: Work counts reported for the first round (``<layer>.calls`` counts every
#: wrapped call of the layer).
COUNTS = (
    "sat.calls", "logical.edges", "dfa.builds", "dfa.states", "topology.calls",
    "subgraph.builds", "sink_tree.trees", "partition.components", "mip.rows",
    "mip.cols", "mip.nonzeros", "solve.calls", "bnb.nodes", "recompile.dirty",
    "cache.hits", "cache.misses", "widen.retries", "rollbacks", "plane.batches",
    "plane.batch_deltas", "codegen.instructions", "verify.pairs", "verify.clauses",
)

#: Program counters (read from a telemetry metrics snapshot) -> metric name.
PROGRAM_COUNTERS = {
    "component_cache_hits": "cache.hits",
    "component_cache_misses": "cache.misses",
    "slack_widening_retries": "widen.retries",
    "transactions_rolled_back": "rollbacks",
    "batches_committed": "plane.batches",
}


class LayerTracer:
    """Wraps the layer entry points and aggregates spans into layer metrics."""

    def __init__(self) -> None:
        from repro.telemetry import MetricsRegistry, Telemetry

        self.telemetry = Telemetry(metrics=MetricsRegistry())
        self.op: Optional[int] = None
        self.counting = False
        self.spans: List[tuple] = []
        self.self_seconds: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, float] = defaultdict(float)
        self.operations = 0
        self.unattributed_seconds = 0.0
        self.queue_waits: List[float] = []
        self.execute_seconds: List[float] = []
        self._batch_deltas: List[int] = []
        self._top: List[Tuple[float, float]] = []
        self._ids = itertools.count()
        self._ops = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()

    # -- installation ---------------------------------------------------------
    def install(self) -> None:
        for layer, module_name, attribute, counter in TARGETS:
            module = importlib.import_module(module_name)
            if "." in attribute:
                class_name, method = attribute.split(".")
                owner = getattr(module, class_name)
                raw = owner.__dict__[method]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(layer, attribute, raw.__func__, counter))
                else:
                    wrapped = self._wrap(layer, attribute, raw, counter)
                setattr(owner, method, wrapped)
            else:
                original = getattr(module, attribute)
                wrapped = self._wrap(layer, attribute, original, counter)
                for name, loaded in list(sys.modules.items()):
                    if name.startswith("repro") and getattr(loaded, attribute, None) is original:
                        setattr(loaded, attribute, wrapped)
        daemon = importlib.import_module("repro.service.daemon")
        daemon.BatchRecord = self._batch_record(daemon.BatchRecord)

    def _wrap(self, layer: str, name: str, function, counter):
        tracer = self
        local = self._local
        lock = self._lock
        ids = self._ids

        def wrapper(*args, **kwargs):
            op = tracer.op
            if op is None:
                return function(*args, **kwargs)
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span_id = next(ids)
            parent = stack[-1][1] if stack else -1
            frame = [0.0, span_id]
            stack.append(frame)
            start = perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][0] += duration
                with lock:
                    tracer.self_seconds[layer] += duration - frame[0]
                    if not stack:
                        tracer._top.append((start, end))
                    if tracer.counting:
                        tracer.counts[layer + ".calls"] += 1
                        tracer.counts[name + ".calls"] += 1
                if tracer.counting:
                    tracer.spans.append(
                        (span_id, name, start, end, parent, op, threading.get_ident())
                    )
            if counter is not None and tracer.counting:
                with lock:
                    counter(tracer.counts, result)
            return result

        wrapper.__wrapped__ = function
        wrapper.__name__ = getattr(function, "__name__", name)
        return wrapper

    def _batch_record(self, record_class):
        tracer = self

        def build(*args, **kwargs):
            record = record_class(*args, **kwargs)
            with tracer._lock:
                tracer.execute_seconds.append(record.execute_seconds)
                tracer.queue_waits.extend(record.queue_wait_seconds)
                if tracer.counting:
                    tracer._batch_deltas.append(record.num_deltas)
            return record

        return build

    # -- operations and rounds ------------------------------------------------
    @contextlib.contextmanager
    def operation(self, weight: int = 1):
        """Time one operation (or a wave of ``weight`` concurrent ones)."""
        settle()
        timer = OperationTimer()
        self._top = []
        with self.telemetry.use():
            self.op = next(self._ops)
            start = perf_counter()
            try:
                yield timer
            finally:
                end = perf_counter()
                self.op = None
        timer.seconds = end - start
        with self._lock:
            top = sorted(self._top)
        covered, reach = 0.0, start
        for left, right in top:
            left, right = max(left, reach), min(right, end)
            if right > left:
                covered += right - left
                reach = right
        self.operations += weight
        self.unattributed_seconds += timer.seconds - covered

    def start_round(self, number: int) -> None:
        self.counting = number == 0

    def finish_round(self, number: int) -> None:
        if self.counting:
            self.absorb(self.telemetry.snapshot())
        self.counting = False

    def absorb(self, snapshot) -> None:
        """Add the program's own counters from a telemetry metrics snapshot."""
        if not self.counting:
            return
        for counter, metric in PROGRAM_COUNTERS.items():
            self.counts[metric] += snapshot.counter_total(counter)

    def add_results(self, results) -> None:
        if self.counting:
            for result in results:
                self.counts["bnb.nodes"] += result.statistics.mip_nodes

    # -- output -----------------------------------------------------------------
    def metrics(self) -> Dict[str, Tuple[float, str]]:
        per_op = max(self.operations, 1)
        values: Dict[str, Tuple[float, str]] = {}
        for layer in TIMED_LAYERS:
            values[f"{layer}.ms"] = (self.self_seconds[layer] * 1000.0 / per_op, "ms")
        counts = dict(self.counts)
        counts["dfa.builds"] = self.counts["DFA.from_nfa.calls"]
        counts["subgraph.builds"] = self.counts["Topology.switch_subgraph.calls"]
        counts["plane.batch_deltas"] = (
            sum(self._batch_deltas) / len(self._batch_deltas) if self._batch_deltas else 0.0
        )
        for name in COUNTS:
            values[name] = (float(counts.get(name, 0.0)), "count")
        values["plane.queue_wait_ms"] = (_mean(self.queue_waits) * 1000.0, "ms")
        values["plane.execute_ms"] = (_mean(self.execute_seconds) * 1000.0, "ms")
        values["unattributed.ms"] = (self.unattributed_seconds * 1000.0 / per_op, "ms")
        return values

    def write_spans(self, path: str) -> None:
        with open(path, "w") as handle:
            for span_id, name, start, end, parent, op, thread in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "id": span_id,
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "op": op,
                            "thread": thread,
                        }
                    )
                    + "\n"
                )


def _mean(values: List[float]) -> float:
    return sum(values) / len(values) if values else 0.0
