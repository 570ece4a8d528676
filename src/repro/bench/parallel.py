"""Parallel session driver: fan experiments out, memoize their results.

:func:`run_session` is the one engine behind ``sgxv2-bench``'s table,
report, CSV, and trace outputs.  It executes the requested experiments —
serially in-process, or across a ``--jobs N`` pool of **spawned** worker
processes — optionally in front of a content-addressed
:class:`~repro.cache.MemoStore`, and merges the results deterministically
in request order.  Three properties hold by construction:

* **Determinism** — ``--jobs 8`` produces byte-identical reports, CSVs,
  and per-experiment traces to ``--jobs 1``: each experiment runs under
  its own seed (threaded explicitly into every worker, never via the
  parent's :data:`~repro.bench.runner.DEFAULT_BASE_SEED` mutation, which
  spawned processes do not inherit) and its own tracer, and the merge
  order is the request order regardless of completion order.
* **Warm-cache replay** — a cache hit re-emits the stored report *and*
  the stored trace texts verbatim, so a fully cached rerun performs zero
  operator re-simulations yet writes the same artifacts.
* **Observability** — the session tracer counts ``bench.cache.hits`` /
  ``bench.cache.misses`` (one ``bench.cache.hit``/``.miss`` event per
  experiment), ``bench.memo.hits`` / ``bench.memo.misses`` (per-query
  profile-memo traffic, summed across workers), and gauges per-worker
  wall seconds.  This is the only non-deterministic output (wall clock,
  cache state), which is why it lives in a separate ``_session`` trace,
  never in the per-experiment files the byte-identity guarantee covers.

Below the experiment cache, the **per-query profile memo**
(:mod:`repro.cache.profile`) memoizes individual pricing runs inside each
process: the serial path shares one memo across the session's
experiments, and each spawned worker keeps its own.
"""

from __future__ import annotations

import contextlib
import pathlib
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Union

from repro.bench.registry import get_experiment, run_experiment
from repro.bench.report import ExperimentReport
from repro.bench.runner import DEFAULT_BASE_SEED, use_repetition_jobs
from repro.cache import MemoStore, calibration_digest, experiment_key
from repro.errors import BenchmarkError
from repro.machine import SimMachine
from repro.runconfig import RunConfig
from repro.trace import Tracer

@dataclass(frozen=True)
class _Task:
    """One experiment's worker payload.

    Spawned workers inherit no ambient state (run config, seed), so every
    setting rides in here as a pickled value.
    """

    experiment_id: str
    quick: bool
    base_seed: int
    traced: bool
    repetition_jobs: int
    run: RunConfig


@dataclass
class ExperimentRun:
    """One experiment's merged outcome within a session."""

    experiment_id: str
    report: ExperimentReport
    trace_jsonl: Optional[str] = None
    trace_csv: Optional[str] = None
    from_cache: bool = False
    wall_s: float = 0.0

    def write_artifacts(
        self,
        csv_dir: Optional[pathlib.Path],
        trace_dir: Optional[pathlib.Path],
    ) -> Optional[pathlib.Path]:
        """Write the CSV and trace files; returns the JSON-lines path."""
        if csv_dir is not None:
            (csv_dir / f"{self.experiment_id}.csv").write_text(self.report.to_csv())
        if trace_dir is None or self.trace_jsonl is None:
            return None
        path = trace_dir / f"{self.experiment_id}.trace.jsonl"
        path.write_text(self.trace_jsonl)
        (trace_dir / f"{self.experiment_id}.trace.csv").write_text(self.trace_csv)
        return path


@dataclass
class SessionResult:
    """All runs of one session, in request order, plus the session tracer."""

    runs: List[ExperimentRun] = field(default_factory=list)
    tracer: Tracer = field(default_factory=lambda: Tracer(label="_session"))

    @property
    def cache_hits(self) -> int:
        return self.tracer.counters.get("bench.cache.hits", 0)

    @property
    def cache_misses(self) -> int:
        return self.tracer.counters.get("bench.cache.misses", 0)

    @property
    def memo_hits(self) -> int:
        """Per-query profile-memo hits summed across every run/worker."""
        return self.tracer.counters.get("bench.memo.hits", 0)

    @property
    def memo_misses(self) -> int:
        """Per-query profile-memo misses summed across every run/worker."""
        return self.tracer.counters.get("bench.memo.misses", 0)

    def write_session_trace(
        self, trace_dir: Union[str, pathlib.Path]
    ) -> pathlib.Path:
        """Export the session tracer (cache + worker telemetry) to files.

        Written as ``_session.trace.jsonl``/``.csv`` — the underscore keeps
        it apart from experiment ids and flags it as the one artifact that
        is *not* byte-deterministic (it carries wall-clock gauges).
        """
        from repro.trace import write_csv, write_jsonl

        trace_dir = pathlib.Path(trace_dir)
        path = write_jsonl(self.tracer, trace_dir / "_session.trace.jsonl")
        write_csv(self.tracer, trace_dir / "_session.trace.csv")
        return path


def _worker(task: _Task, machine: Optional[SimMachine] = None) -> Dict:
    """Run one task; return its JSON-safe result payload.

    The process-pool entry point (top-level so spawn can pickle it) and
    the serial path alike.  The ambient profile memo's hit/miss *delta*
    rides on the payload (pool workers are reused across tasks, and the
    ambient memo outlives the session), so summing the payload stats
    across tasks never double-counts.
    """
    from repro.cache import profile_memo

    start = time.perf_counter()
    tracer = Tracer(label=task.experiment_id) if task.traced else None
    with use_repetition_jobs(task.repetition_jobs):
        memo = profile_memo()
        hits_before, misses_before = memo.hits, memo.misses
        report = run_experiment(
            task.experiment_id,
            machine,
            quick=task.quick,
            tracer=tracer,
            base_seed=task.base_seed,
            run=task.run,
        )
        payload: Dict = {
            "report": report.as_dict(),
            "trace_jsonl": None,
            "trace_csv": None,
            "wall_s": time.perf_counter() - start,
            "memo_hits": memo.hits - hits_before,
            "memo_misses": memo.misses - misses_before,
        }
    if tracer is not None:
        from repro.trace import to_csv, to_jsonl

        payload["trace_jsonl"] = to_jsonl(tracer)
        payload["trace_csv"] = to_csv(tracer)
    return payload


def _run_from_payload(
    experiment_id: str, payload: Dict, *, from_cache: bool
) -> ExperimentRun:
    return ExperimentRun(
        experiment_id=experiment_id,
        report=ExperimentReport.from_dict(payload["report"]),
        trace_jsonl=payload.get("trace_jsonl"),
        trace_csv=payload.get("trace_csv"),
        from_cache=from_cache,
        wall_s=float(payload.get("wall_s", 0.0)),
    )


def run_session(
    experiment_ids: Sequence[str],
    machine: Optional[SimMachine] = None,
    *,
    quick: bool = True,
    jobs: int = 1,
    cache: Optional[Union[MemoStore, str, pathlib.Path]] = None,
    base_seed: Optional[int] = None,
    traced: bool = False,
    run: Optional[RunConfig] = None,
) -> SessionResult:
    """Run ``experiment_ids`` (possibly in parallel, possibly cached).

    ``jobs`` caps the worker-process count; leftover slots fan out inside
    experiments as repetition threads (``jobs=8`` over one experiment runs
    its repetitions eight-wide).  ``cache`` is a :class:`MemoStore` or a
    directory for one; ``traced`` attaches a private tracer per experiment
    and returns its exported texts on each :class:`ExperimentRun`.  A
    non-default ``machine`` runs in-process (live machine objects stay out
    of worker pickles) but still keys the cache by its calibration digest.
    ``run`` (default ``RunConfig()``) holds the session settings: it is
    installed for every run, pickled into workers and hashed into every
    cache key, so serial, parallel and cached-replay runs of one config
    stay byte-identical while different configs never collide.
    """
    ids = list(experiment_ids)
    for experiment_id in ids:
        get_experiment(experiment_id)  # fail fast on unknown ids
    if jobs < 1:
        raise BenchmarkError(f"jobs must be at least 1, got {jobs}")
    if base_seed is None:
        base_seed = DEFAULT_BASE_SEED
    if run is None:
        run = RunConfig()
    store: Optional[MemoStore]
    if cache is None or isinstance(cache, MemoStore):
        store = cache
    else:
        store = MemoStore(cache)

    session = SessionResult()
    results: Dict[str, ExperimentRun] = {}
    keys: Dict[str, str] = {}
    digest = None
    unique_ids = list(dict.fromkeys(ids))
    pending: List[str] = []

    if store is not None:
        params = machine.params if machine is not None else None
        spec = machine.spec if machine is not None else None
        digest = calibration_digest(params, spec)
        for experiment_id in unique_ids:
            keys[experiment_id] = experiment_key(
                experiment_id,
                quick=quick,
                base_seed=base_seed,
                traced=traced,
                params=params,
                spec=spec,
                run=run,
            )
            payload = store.get(keys[experiment_id])
            hit: Optional[ExperimentRun] = None
            if payload is not None:
                try:
                    hit = _run_from_payload(experiment_id, payload, from_cache=True)
                    hit.wall_s = 0.0  # a hit costs no simulation time
                except BenchmarkError:
                    hit = None  # malformed entry: recompute below
            if hit is not None and traced and hit.trace_jsonl is None:
                hit = None  # entry predates tracing for this key shape
            if hit is not None:
                results[experiment_id] = hit
                session.tracer.count("bench.cache.hits")
                session.tracer.event("bench.cache.hit", experiment=experiment_id)
            else:
                session.tracer.count("bench.cache.misses")
                session.tracer.event("bench.cache.miss", experiment=experiment_id)
                pending.append(experiment_id)
    else:
        pending = unique_ids

    # Split the job budget: one process per pending experiment first, the
    # remainder as repetition threads inside each worker.
    repetition_jobs = max(1, jobs // len(pending)) if pending else 1
    tasks = [
        _Task(experiment_id, quick, base_seed, traced, repetition_jobs, run)
        for experiment_id in pending
    ]
    pool = None
    if jobs > 1 and len(tasks) > 1 and machine is None:
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        pool = ProcessPoolExecutor(
            max_workers=min(jobs, len(tasks)),
            mp_context=multiprocessing.get_context("spawn"),
        )
    with pool or contextlib.nullcontext():
        # Both paths yield in request order: completion order never leaks
        # into the merged output.
        if pool is None:
            payloads = (_worker(task, machine) for task in tasks)
        else:
            payloads = pool.map(_worker, tasks)
        for task, payload in zip(tasks, payloads):
            experiment_id = task.experiment_id
            computed = _run_from_payload(experiment_id, payload, from_cache=False)
            results[experiment_id] = computed
            session.tracer.gauge(
                f"bench.worker.wall_s.{experiment_id}", computed.wall_s
            )
            # Memo traffic belongs to the session trace only (it depends on
            # what ran before), never to the cached payload the replay
            # guarantee covers.
            memo_hits = int(payload.pop("memo_hits"))
            memo_misses = int(payload.pop("memo_misses"))
            if memo_hits:
                session.tracer.count("bench.memo.hits", memo_hits)
            if memo_misses:
                session.tracer.count("bench.memo.misses", memo_misses)
            if store is not None:
                store.put(keys[experiment_id], {**payload, "calibration": digest})

    session.runs = [results[experiment_id] for experiment_id in ids]
    return session
