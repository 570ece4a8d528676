"""Wall-clock span recorder and the layer table of the traced run.

The traced run patches the package's callables at each layer boundary
(class methods on their class, module functions in every module that
imported them) for the duration of one round, then restores them.  A
span is ``(name, start, end, parent)`` in ``time.perf_counter`` seconds;
a span's layer is the part of its name before the first dot.  Self time
is a span's duration minus the durations of its direct children, so the
self times of all spans partition the covered wall time.  Entry time is
the time inside a layer's outermost calls (those made straight from the
benchmark's round loop), children included: the time a user's call
into that layer costs.

These spans measure the benchmark's own process in wall-clock time.
They are unrelated to the program's simulated-time ``repro.trace``
records and never enter them.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import pathlib
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, Iterator, List, Optional, Tuple

Span = Tuple[str, float, float, int]  # name, start, end, parent index (-1: root)


class NullRecorder:
    """The untraced run's recorder: every span is a no-op."""

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        yield


class SpanRecorder:
    """Keeps every span of one round in memory, in start order."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: List[Optional[Span]] = []
        self._stack: List[int] = []
        #: Exact counts the hooks collect (rows generated, chain lengths, ...).
        self.counts: Dict[str, float] = defaultdict(float)
        #: Failed correctness checks found by hooks.
        self.errors: List[str] = []
        #: Layer-table entries missing from the program.
        self.unpatched: List[str] = []

    def _open(self) -> Tuple[int, int]:
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        return index, parent

    def _close(self, name: str, index: int, parent: int, start: float) -> None:
        end = time.perf_counter()
        self._stack.pop()
        self.spans[index] = (name, start, end, parent)

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        index, parent = self._open()
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(name, index, parent, start)

    def wrap(self, name: str, fn: Callable, hook: Optional[Callable] = None) -> Callable:
        """``fn`` recorded as span ``name``; ``hook(result, args, kwargs)``
        runs after the span closes, inside a ``check`` span of its own."""
        recorder = self

        def wrapper(*args, **kwargs):
            index, parent = recorder._open()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                recorder._close(name, index, parent, start)
            if hook is not None:
                with recorder.span("check." + name):
                    hook(recorder, result, args, kwargs)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def write_jsonl(self, path: pathlib.Path) -> None:
        with open(path, "a", encoding="utf-8") as out:
            for name, start, end, parent in self.spans:
                out.write(json.dumps(
                    {"run": self.run_id, "name": name, "start": start,
                     "end": end, "parent": parent}
                ) + "\n")


# -- hooks: exact counts and correctness checks on the traced calls --------

def _check_join(rec: SpanRecorder, result, args, kwargs) -> None:
    from repro.core.joins.base import JoinAlgorithm

    join = args[0]
    build = kwargs["build"] if "build" in kwargs else args[2]
    probe = kwargs["probe"] if "probe" in kwargs else args[3]
    expected = JoinAlgorithm.reference_match_count(build, probe)
    rec.counts["join_checks"] += 1
    if result.matches != expected:
        rec.errors.append(
            f"{type(join).__name__}: {result.matches} matches, reference "
            f"says {expected}"
        )


def _chain_length(rec: SpanRecorder, result, args, kwargs) -> None:
    rec.counts["hash_tables"] += 1
    rec.counts["hash_chain_sum"] += args[0].max_chain_length


def _rows_generated(rec: SpanRecorder, result, args, kwargs) -> None:
    if isinstance(result, tuple):
        tables = result
    else:
        tables = getattr(result, "tables", (result,))
    rec.counts["rows"] += sum(len(t) for t in tables)


def _arms(rec: SpanRecorder, result, args, kwargs) -> None:
    rec.counts["arms"] += sum(len(arms) for arms in result.values())


def _proof(rec: SpanRecorder, result, args, kwargs) -> None:
    rec.counts["proofs"] += 1
    rec.counts["proved"] += bool(result.accepted)


def _submit(rec: SpanRecorder, result, args, kwargs) -> None:
    rec.counts["shuffles"] += kwargs.get("shuffle_s", 0.0) > 0


#: The layer table: span name -> (module, attribute path, hook).  An
#: attribute path ``Class.method`` is patched on that class; a bare
#: function name is patched in every loaded module that holds it.
LAYERS: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    ("core.join", "repro.core.joins.base", "JoinAlgorithm.run", _check_join),
    ("core.hash_build", "repro.core.structures.hashtable", "ChainedHashTable.__init__", _chain_length),
    ("core.hash_probe", "repro.core.structures.hashtable", "ChainedHashTable.probe_first", None),
    ("core.hash_probe", "repro.core.structures.hashtable", "ChainedHashTable.probe_count", None),
    ("core.query", "repro.core.queries.executor", "QueryExecutor.run", None),
    ("core.scan", "repro.core.scans.simd_scan", "BitvectorScan.run", None),
    ("core.scan", "repro.core.scans.packed_scan", "PackedScan.run", None),
    ("core.scan", "repro.core.scans.index_scan", "RowIdScan.run", None),
    ("core.ops", "repro.core.ops.aggregate", "HashAggregate.run", None),
    ("core.ops", "repro.core.ops.sort", "ParallelSort.run", None),
    ("core.ops", "repro.core.ops.sort", "TopK.run", None),
    ("tables.gen", "repro.tables.generator", "generate_join_relation_pair", _rows_generated),
    ("tables.gen", "repro.tables.generator", "generate_key_value_table", _rows_generated),
    ("tables.gen", "repro.tables.tpch", "generate_tpch", _rows_generated),
    ("exec.phase", "repro.exec.executor", "ParallelExecutor.run_phase", None),
    ("memory.price", "repro.memory.cost_model", "MemoryCostModel.profile_cycles", None),
    ("jobs.price", "repro.workload.jobs", "JobCatalog.profile", None),
    ("jobs.price", "repro.workload.jobs", "JobCatalog.candidate_cost", None),
    ("planner.arms", "repro.workload.engine", "ServingEngine.plan_arms", _arms),
    ("planner.top_k", "repro.planner.choose", "Planner.top_k", None),
    ("planner.estimate", "repro.planner.costing", "estimate_candidate", None),
    ("rewrite.plan", "repro.rewrite.race", "plan_rewrites", None),
    ("rewrite.prove", "repro.rewrite.prove", "prove_candidate", _proof),
    ("rewrite.race", "repro.rewrite.race", "estimate_rewrite", None),
    ("storage.spill_join", "repro.storage.spill", "GraceHashJoin.run", _check_join),
    ("storage.spill_agg", "repro.storage.spill", "ExternalGroupAggregate.run", None),
    ("scheduler.run", "repro.workload.scheduler", "WorkloadScheduler.run", None),
    ("scheduler.step", "repro.workload.scheduler", "SchedulerLoop.step", None),
    ("scheduler.submit", "repro.workload.scheduler", "SchedulerLoop.submit", _submit),
    ("metrics.result", "repro.workload.scheduler", "SchedulerLoop.result", None),
    ("metrics.merge", "repro.workload.metrics", "MetricsRegistry.merged", None),
    ("cluster.run", "repro.cluster.scheduler", "ClusterScheduler.run", None),
    ("trace.emit", "repro.trace.tracer", "Tracer.event", None),
    ("trace.emit", "repro.trace.tracer", "Tracer.span", None),
    ("trace.emit", "repro.trace.tracer", "Tracer.gauge", None),
    ("trace.export", "repro.trace.exporters", "write_jsonl", None),
)

#: Layers the self-time table reports, in report order.
LAYER_NAMES = (
    "core", "tables", "exec", "memory", "jobs", "planner", "rewrite",
    "storage", "scheduler", "metrics", "cluster", "trace",
)


@contextlib.contextmanager
def patched(recorder: SpanRecorder) -> Iterator[None]:
    """Install ``recorder``'s wrappers for the scope, then restore."""
    undo: List[Tuple[object, str, object]] = []
    try:
        for name, module_name, path, hook in LAYERS:
            try:
                module = importlib.import_module(module_name)
                if "." in path:
                    owner_name, attr = path.split(".")
                    owner = getattr(module, owner_name)
                    original = owner.__dict__[attr]
                else:
                    original = getattr(module, path)
            except (ImportError, AttributeError, KeyError):
                # A boundary the program no longer has: its layer reads 0.
                recorder.unpatched.append(f"{module_name}.{path}")
                continue
            if "." in path:
                undo.append((owner, attr, original))
                setattr(owner, attr, recorder.wrap(name, original, hook))
                continue
            wrapper = recorder.wrap(name, original, hook)
            for holder in list(sys.modules.values()):
                # The module dict, not getattr: some modules compute
                # attributes lazily in a module ``__getattr__``.
                if getattr(holder, "__dict__", {}).get(path) is original:
                    undo.append((holder, path, original))
                    setattr(holder, path, wrapper)
        yield
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)


def layer_metrics(recorder: SpanRecorder, round_wall_s: float) -> Dict[str, float]:
    """Inclusive time and calls per span name, self time per layer."""
    spans = recorder.spans
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    inclusive: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    self_time: Dict[str, float] = defaultdict(float)
    entry_time: Dict[str, float] = defaultdict(float)
    for index, (name, start, end, parent) in enumerate(spans):
        duration = end - start
        layer = name.split(".", 1)[0]
        self_time[layer] += duration - child_time[index]
        if parent >= 0 and spans[parent][0].startswith("bench."):
            entry_time[layer] += duration
        calls[name] += 1
        # Inclusive time counts only the outermost of nested same-name
        # spans, so a join calling a join is not counted twice.
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            inclusive[name] += duration
    counts = recorder.counts
    proofs = counts["proofs"]
    memo_total = counts["memo_hits"] + counts["memo_misses"]
    dispatches = counts["scheduler.dispatches"]
    serving_s = inclusive["scheduler.run"] + inclusive["cluster.run"]

    def share(seconds: float) -> float:
        return seconds / round_wall_s

    metrics = {
        "core.join_share": share(inclusive["core.join"]),
        "core.join_calls": calls["core.join"],
        "core.hash_probe_share": share(inclusive["core.hash_probe"]),
        "core.hash_probe_calls": calls["core.hash_probe"],
        "core.hash_max_chain": (
            counts["hash_chain_sum"] / counts["hash_tables"] if counts["hash_tables"] else 0.0
        ),
        "core.query_share": share(inclusive["core.query"]),
        "core.scan_share": share(inclusive["core.scan"]),
        "tables.gen_share": share(inclusive["tables.gen"]),
        "tables.rows": counts["rows"],
        "exec.phase_calls": calls["exec.phase"],
        "memory.price_share": share(inclusive["memory.price"]),
        "jobs.price_calls": calls["jobs.price"],
        "jobs.price_share": share(inclusive["jobs.price"]),
        "cache.memo_hits": counts["memo_hits"],
        "cache.memo_misses": counts["memo_misses"],
        "cache.memo_hit_ratio": counts["memo_hits"] / memo_total if memo_total else 0.0,
        "planner.estimate_calls": calls["planner.estimate"],
        "planner.estimate_share": share(inclusive["planner.estimate"]),
        "planner.arms": counts["arms"],
        "rewrite.proofs": proofs,
        "rewrite.prove_share": share(inclusive["rewrite.prove"]),
        "rewrite.proved_ratio": counts["proved"] / proofs if proofs else 0.0,
        "rewrite.race_share": share(inclusive["rewrite.race"]),
        "storage.spill_join_share": share(inclusive["storage.spill_join"]),
        "storage.sealed_bytes": counts["storage.sealed_bytes"],
        "scheduler.dispatches": dispatches,
        "scheduler.dispatches_per_s": dispatches / serving_s if serving_s else 0.0,
        "cluster.dispatches_per_s": (
            dispatches / inclusive["cluster.run"] if inclusive["cluster.run"] else 0.0
        ),
        "cluster.routed": counts["cluster.routed"],
        "cluster.shuffles": counts["shuffles"],
        "trace.events": counts["trace.events"],
        "trace.export_share": share(inclusive["trace.export"]),
        "trace.export_bytes": counts["trace.export_bytes"],
        "bench.fig03_share": share(inclusive["bench.fig03"]),
        "bench.fig17_share": share(inclusive["bench.fig17"]),
        "bench.join_checks": counts["join_checks"],
        "bench.spans": len(spans),
        "bench.round_s": round_wall_s,
        # Time inside no layer span: the benchmark's own round loop.
        "bench.unattributed_share": share(self_time["bench"]),
    }
    for layer in LAYER_NAMES:
        metrics[f"{layer}.self_share"] = share(self_time[layer])
    for layer in LAYER_NAMES:
        metrics[f"{layer}.entry_share"] = share(entry_time[layer])
    return metrics
