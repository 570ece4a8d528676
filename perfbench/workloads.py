"""The four benchmark workloads, each driven through the package's public API.

A workload has three parts, timed separately by ``run.py``:

* ``setup()`` — everything before the first measured call: catalog
  construction and template pricing.  Its duration (plus the imports)
  is ``setup_s``.
* ``measure(state)`` — the measured phase.  Its duration is ``wall_s``.
* ``verify(state, outcome)`` — correctness checks on the outputs.  Never
  timed, so a slower check cannot move a metric.

Every input derives from the ``--seed`` argument; the program sees only
generated streams and seeds.  Simulated failures (squeeze timeouts, shed
arrivals) are program output that the checks account for, not benchmark
errors.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import pathlib
from typing import Any, Dict, List, Optional

from repro.bench.experiments import common, workload_common
from repro.bench.registry import run_experiment
from repro.cluster import ClusterConfig, ClusterSpec
from repro.faults import NO_FAULTS, FaultKind, FaultPlan, FaultSpec
from repro.memory.access import CodeVariant
from repro.storage import StorageConfig
from repro.trace import Tracer, read_jsonl, serving_breakdown, use_tracer, write_jsonl
from repro.workload import (
    JobCatalog,
    JobKind,
    JobTemplate,
    OpenLoopStream,
    QueryMix,
    ServingEngine,
    WorkloadConfig,
    WorkloadMetrics,
    serving_templates,
)

# Modules the program imports lazily on first use.  Importing them here
# keeps their import cost inside ``setup_s`` instead of the first round's
# measured phase.
import repro.cluster.scheduler  # noqa: F401
import repro.planner.costing  # noqa: F401
import repro.rewrite.race  # noqa: F401
import repro.storage.sealed  # noqa: F401
import repro.storage.spill  # noqa: F401

PERCENTILES = (50, 95, 99)


@dataclasses.dataclass
class Outcome:
    """What one measured phase produced."""

    #: Simulated outputs; hashed into the run's determinism digest.
    outputs: Dict[str, Any]
    #: Simulated queries served (0 for the figure workload).
    sim_queries: int = 0
    #: Public-API calls the phase made (experiments or serving passes).
    calls: int = 0
    #: Per-layer counts only the outputs know (dispatches, bytes, ...).
    counts: Dict[str, float] = dataclasses.field(default_factory=dict)
    #: Anything verify needs that is not a simulated output.
    extra: Dict[str, Any] = dataclasses.field(default_factory=dict)


def digest(outputs: Dict[str, Any]) -> str:
    """sha256 of the canonical JSON of a phase's simulated outputs."""
    blob = json.dumps(outputs, sort_keys=True, separators=(",", ":"), default=repr)
    return hashlib.sha256(blob.encode()).hexdigest()


def _serving_outputs(metrics: WorkloadMetrics, stream: Optional[str] = None) -> Dict:
    c = metrics.counters
    return {
        "counters": c.as_dict(),
        "faults": c.fault_dict(),
        "storage": c.storage_dict(),
        "percentiles_s": [
            metrics.latency_percentile_s(p, stream=stream) for p in PERCENTILES
        ],
        "records": len(metrics.records),
        "failures": len(metrics.failures),
        "epc_high_water_bytes": metrics.epc_high_water_bytes,
    }


def _dispatches(metrics: WorkloadMetrics) -> int:
    """Dispatched attempts: completions plus attempts aborted mid-service."""
    c = metrics.counters
    return c.completed + c.timeouts + c.crashes + c.torn_blocks + c.poisoned


def _accounting_errors(label: str, metrics: WorkloadMetrics, offered: int,
                       rejected: int = 0) -> List[str]:
    """Every arrival must be completed, failed, shed, or rejected."""
    c = metrics.counters
    accounted = c.completed + c.failed + c.shed + rejected
    errors = []
    if accounted != offered:
        errors.append(
            f"{label}: {offered} arrivals offered but {accounted} accounted "
            f"(completed {c.completed}, failed {c.failed}, shed {c.shed}, "
            f"rejected {rejected})"
        )
    if len(metrics.records) != c.completed:
        errors.append(
            f"{label}: {len(metrics.records)} records for {c.completed} completions"
        )
    return errors


def _finite(label: str, values) -> List[str]:
    bad = [v for v in values if not (isinstance(v, (int, float)) and math.isfinite(v))]
    return [f"{label}: non-finite output {bad[:3]}"] if bad else []


def _offered(streams, duration_s: float) -> int:
    return sum(len(s.arrivals(duration_s)) for s in streams)


class PaperFigures:
    """fig03 + fig17 in quick mode: the operator-kernel workload."""

    name = "paper-figures"
    experiments = ("fig03", "fig17")

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def setup(self):
        return None

    def measure(self, state, scratch: pathlib.Path, rec) -> Outcome:
        reports = {}
        for experiment in self.experiments:
            with rec.span(f"bench.{experiment}"):
                report = run_experiment(experiment, quick=True, base_seed=self.seed)
            reports[experiment] = report.as_dict()
        return Outcome(outputs=reports, calls=len(reports))

    def verify(self, state, outcome: Outcome) -> List[str]:
        errors = []
        for experiment, report in outcome.outputs.items():
            rows = report["rows"]
            if not rows:
                errors.append(f"{experiment}: empty report")
            errors += _finite(experiment, [r["value"] for r in rows])
            if any(r["value"] <= 0 for r in rows if r["unit"] == "M rows/s"):
                errors.append(f"{experiment}: non-positive join throughput")
        return errors


class ServeSingle:
    """wl01's mix on one enclave: native and SGX-in at 0.4x..1.3x load."""

    name = "serve-single"
    mix_weights = {"scan-small": 0.5, "join-medium": 0.3, "q12": 0.2}
    load_fractions = (0.4, 0.7, 0.9, 1.1, 1.3)
    settings = (("native", common.SETTING_PLAIN), ("sgx", common.SETTING_SGX_IN))
    queries_per_pass = 2000

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def setup(self):
        catalog = JobCatalog(quick=True, variant=CodeVariant.NAIVE)
        engine = ServingEngine(catalog)
        costs = {
            name: catalog.cost(engine.templates[name], common.SETTING_PLAIN)
            for name in self.mix_weights
        }
        # Price the SGX side too, so the measured phase never prices.
        for name in self.mix_weights:
            catalog.cost(engine.templates[name], common.SETTING_SGX_IN)
        capacity = workload_common.capacity_qps(costs, self.mix_weights, cores=16)
        return {"engine": engine, "capacity": capacity}

    def _config(self, setting, qps: float) -> WorkloadConfig:
        return WorkloadConfig(
            setting=setting,
            open_streams=(
                OpenLoopStream(
                    "tenant", qps=qps, mix=QueryMix.of(self.mix_weights),
                    seed=self.seed,
                ),
            ),
            duration_s=self.queries_per_pass / qps,
            cores=16,
            policy="fifo",
            faults=NO_FAULTS,
            planner="static",
        )

    def measure(self, state, scratch: pathlib.Path, rec) -> Outcome:
        engine = state["engine"]
        outputs, exports = {}, []
        served = dispatches = events = export_bytes = 0
        for short, setting in self.settings:
            for fraction in self.load_fractions:
                config = self._config(setting, fraction * state["capacity"])
                tracer = Tracer(label=f"{short}@{fraction}")
                with use_tracer(tracer):
                    metrics = engine.run(config)
                with rec.span("metrics.reduce"):
                    result = _serving_outputs(metrics)
                    result["achieved_qps"] = metrics.achieved_qps()
                    result["shares"] = serving_breakdown(tracer).fractions()
                path = scratch / f"{short}-{fraction}.jsonl"
                write_jsonl(tracer, path)
                result["trace_sha256"] = hashlib.sha256(path.read_bytes()).hexdigest()
                outputs[f"{short}@{fraction}"] = result
                exports.append((path, len(tracer.snapshot()), config, metrics))
                served += metrics.counters.completed
                dispatches += _dispatches(metrics)
                events += len(tracer)
                export_bytes += path.stat().st_size
        return Outcome(
            outputs=outputs,
            sim_queries=served,
            calls=len(outputs),
            counts={
                "scheduler.dispatches": dispatches,
                "trace.events": events,
                "trace.export_bytes": export_bytes,
            },
            extra={"exports": exports},
        )

    def verify(self, state, outcome: Outcome) -> List[str]:
        errors = []
        for path, count, config, metrics in outcome.extra["exports"]:
            label = path.stem
            read_back = len(read_jsonl(path))
            if read_back != count:
                errors.append(f"{label}: exported {count} records, read back {read_back}")
            errors += _accounting_errors(
                label, metrics, _offered(config.open_streams, config.duration_s)
            )
        for label, result in outcome.outputs.items():
            errors += _finite(label, result["percentiles_s"] + [result["achieved_qps"]])
        return errors


class ServeCluster:
    """wl06's scale-out arm: 200 tenants at 1.35x a socket on 2x4 shards."""

    name = "serve-cluster"
    mix_weights = {"lookup-join": 1.0}
    tenants = 200
    overload = 1.35
    spec = "2x4"
    queries = 20000

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def setup(self):
        catalog = JobCatalog(quick=True)
        templates = serving_templates()
        templates["lookup-join"] = JobTemplate(
            name="lookup-join", kind=JobKind.JOIN, threads=1,
            build_bytes=0.25e6, probe_bytes=1.0e6,
        )
        engine = ServingEngine(catalog, templates=templates)
        costs = {
            name: catalog.cost(engine.templates[name], common.SETTING_SGX_IN)
            for name in self.mix_weights
        }
        capacity = workload_common.capacity_qps(costs, self.mix_weights, cores=16)
        offered = self.overload * capacity
        mix = QueryMix.of(self.mix_weights)
        base = self.seed * 10_000
        streams = tuple(
            OpenLoopStream(f"tenant-{i:04d}", qps=offered / self.tenants, mix=mix,
                           seed=base + i)
            for i in range(self.tenants)
        )
        config = WorkloadConfig(
            setting=common.SETTING_SGX_IN,
            open_streams=streams,
            duration_s=self.queries / offered,
            policy="fifo",
            faults=NO_FAULTS,
            planner="static",
            cluster=ClusterConfig(spec=ClusterSpec.parse(self.spec), routing="load-aware"),
        )
        return {"engine": engine, "config": config}

    def measure(self, state, scratch: pathlib.Path, rec) -> Outcome:
        result = state["engine"].run_cluster(state["config"])
        metrics = result.metrics
        with rec.span("metrics.reduce"):
            outputs = _serving_outputs(metrics)
            outputs["goodput_qps"] = metrics.goodput_qps()
            outputs["shards"] = {
                label: _serving_outputs(result.registry.shard(label))["counters"]
                for label in result.registry.labels
            }
        outputs["cluster"] = {
            "routed": result.routed, "rejected": result.rejected,
            "failovers": result.failovers, "shuffle_s": result.shuffle_s,
        }
        return Outcome(
            outputs=outputs,
            sim_queries=metrics.counters.completed,
            calls=1,
            counts={
                "scheduler.dispatches": _dispatches(metrics),
                "cluster.routed": result.routed,
            },
            extra={"result": result},
        )

    def verify(self, state, outcome: Outcome) -> List[str]:
        result = outcome.extra["result"]
        config = state["config"]
        offered = _offered(config.open_streams, config.duration_s)
        errors = _accounting_errors("cluster", result.metrics, offered, result.rejected)
        if result.routed + result.rejected != offered:
            errors.append(f"cluster: routed {result.routed} + rejected "
                          f"{result.rejected} != offered {offered}")
        return errors + _finite("cluster", outcome.outputs["percentiles_s"])


class PlanTpch:
    """wl08's squeezed TPC-H mix planned three ways, with sealed spill."""

    name = "plan-tpch"
    mix_weights = {"q3": 0.45, "q10": 0.35, "scan-small": 0.2}
    load_fraction = 0.4
    queries = 400
    budget_pad = 1.1
    #: Sealed-storage budget as a share of the padded EPC budget: small
    #: enough that overflowing admissions take the spill path and the
    #: planner prices sealed-spill twins of the hash-join arms.
    storage_share = 0.5
    squeeze = (0.35, 0.25, 4.0)  # magnitude, start and end x arrival window
    passes = (
        ("adaptive+learned", "adaptive", "learned"),
        ("cost+race", "cost", "race"),
        ("oracle", "oracle", "off"),
    )
    top_k = 6
    unsound_rewrite = "build-on-orders"

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def setup(self):
        catalog = JobCatalog(quick=True)
        templates = serving_templates()
        templates["q10"] = JobTemplate(
            name="q10", kind=JobKind.TPCH, threads=4, query="Q10", scale_factor=1.0
        )
        engine = ServingEngine(catalog, templates=templates)
        costs = {
            name: catalog.cost(engine.templates[name], common.SETTING_SGX_IN)
            for name in self.mix_weights
        }
        capacity = workload_common.capacity_qps(costs, self.mix_weights, cores=16)
        qps = self.load_fraction * capacity
        duration = self.queries / qps
        base = WorkloadConfig(
            setting=common.SETTING_SGX_IN,
            open_streams=(
                OpenLoopStream("clients", qps=qps, mix=QueryMix.of(self.mix_weights),
                               seed=self.seed),
            ),
            duration_s=duration,
            cores=16,
            policy="fifo",
            faults=NO_FAULTS,
            planner="static",
            plan_top_k=self.top_k,
            plan_seed=self.seed,
        )
        # The unsqueezed static probe's EPC high water sizes the budget,
        # so only the squeeze forces overflow (as in wl08).
        probe = engine.run(base)
        budget = self.budget_pad * probe.epc_high_water_bytes
        magnitude, start, end = self.squeeze
        plan = FaultPlan(
            name="bench-epc-squeeze",
            seed=self.seed,
            specs=(FaultSpec(FaultKind.EPC_SQUEEZE, start_s=start * duration,
                             end_s=end * duration, magnitude=magnitude),),
        )
        storage = StorageConfig(budget_bytes=int(self.storage_share * budget))
        config = dataclasses.replace(
            base, epc_budget_bytes=budget, faults=plan, storage=storage
        )
        return {"engine": engine, "config": config}

    def measure(self, state, scratch: pathlib.Path, rec) -> Outcome:
        engine, config = state["engine"], state["config"]
        outputs, runs = {}, []
        served = dispatches = sealed = events = 0
        for label, planner, rewrite in self.passes:
            tracer = Tracer(label=label)
            run_config = dataclasses.replace(config, planner=planner, rewrite=rewrite)
            with use_tracer(tracer):
                metrics = engine.run(run_config)
            with rec.span("metrics.reduce"):
                result = _serving_outputs(metrics, stream="clients")
                result["goodput_qps"] = metrics.goodput_qps()
            result["rewrite_events"] = [
                [r.name, r.attrs.get("template"), r.attrs.get("rewrite")]
                for r in tracer.snapshot() if r.name.startswith("rewrite.")
            ]
            outputs[label] = result
            runs.append((label, run_config, metrics, rewrite))
            served += metrics.counters.completed
            dispatches += _dispatches(metrics)
            sealed += metrics.counters.spilled_bytes
            events += len(tracer)
        return Outcome(
            outputs=outputs,
            sim_queries=served,
            calls=len(outputs),
            counts={
                "scheduler.dispatches": dispatches,
                "storage.sealed_bytes": sealed,
                "trace.events": events,
            },
            extra={"runs": runs},
        )

    def verify(self, state, outcome: Outcome) -> List[str]:
        errors = []
        for label, config, metrics, rewrite in outcome.extra["runs"]:
            errors += _accounting_errors(
                label, metrics, _offered(config.open_streams, config.duration_s)
            )
            events = outcome.outputs[label]["rewrite_events"]
            proved = {(t, r) for name, t, r in events if name == "rewrite.proved"}
            rejected = {r for name, _, r in events if name == "rewrite.rejected"}
            raced = {(t, r) for name, t, r in events if name == "rewrite.race"}
            if rewrite == "off":
                if events:
                    errors.append(f"{label}: rewrite events with rewriting off")
                continue
            if not proved:
                errors.append(f"{label}: no rewrite candidate was proved")
            if raced - proved:
                errors.append(f"{label}: unproved candidates raced: {sorted(raced - proved)}")
            if self.unsound_rewrite not in rejected:
                errors.append(f"{label}: unsound {self.unsound_rewrite!r} was not rejected")
            if any(r == self.unsound_rewrite for _, r in proved | raced):
                errors.append(f"{label}: unsound {self.unsound_rewrite!r} was accepted")
        return errors


WORKLOADS = {w.name: w for w in (PaperFigures, ServeSingle, ServeCluster, PlanTpch)}
