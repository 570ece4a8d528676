"""The fault-injection + resilience subsystem: plans, injector, scheduler."""

import dataclasses
import hashlib

import pytest

from repro.cache import experiment_key
from repro.errors import ConfigurationError
from repro.faults import (
    NO_FAULTS,
    NULL_INJECTOR,
    CircuitBreaker,
    FaultKind,
    FaultPlan,
    FaultSpec,
    PlanInjector,
    ResiliencePolicy,
    fault_plans,
    get_fault_plan,
    make_injector,
)
from repro.hardware import paper_calibration
from repro.planner import ArmCost, EpsilonGreedySelector, PlanCandidate
from repro.runconfig import RunConfig, current_run, use_run
from repro.storage import SealedStore, SpillModel
from repro.trace import Tracer, fault_breakdown, to_jsonl, use_tracer
from repro.trace.breakdown import FAILED, RETRY, RUN_END, SHED
from repro.workload import (
    ClosedLoopStream,
    JobCost,
    OpenLoopStream,
    QueryMix,
    WorkloadScheduler,
    make_policy,
)

MB = 1_000_000

COSTS = {
    "small": JobCost("small", threads=1, service_s=0.01,
                     working_set_bytes=10 * MB),
    "big": JobCost("big", threads=4, service_s=0.10,
                   working_set_bytes=400 * MB),
}


def scheduler(policy="fifo", *, cores=8, epc=1_000 * MB, injector=None,
              resilience=None, selector=None, storage=None):
    return WorkloadScheduler(
        COSTS,
        make_policy(policy),
        cores=cores,
        epc_budget_bytes=epc,
        setting_label="test",
        injector=injector,
        resilience=resilience,
        selector=selector,
        storage=storage,
    )


def spill_model():
    """A sealed-spill pricer at a fixed 2 GHz (no machine needed)."""
    return SpillModel(SealedStore(paper_calibration()), 2.0e9)


def stream(qps=50.0, mix=None, seed=7, name="s"):
    return OpenLoopStream(
        name, qps=qps, mix=QueryMix.of(mix or {"small": 1.0}), seed=seed
    )


def run(sched, *, duration=2.0, streams=None, closed=()):
    return sched.run(
        open_streams=streams if streams is not None else (stream(),),
        closed_streams=closed,
        duration_s=duration,
    )


def plan_of(*specs, seed=23):
    return FaultPlan(name="t", seed=seed, specs=tuple(specs))


class TestFaultSpec:
    def test_empty_window_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultSpec(FaultKind.AEX_STORM, start_s=2.0, end_s=2.0)
        with pytest.raises(ConfigurationError):
            FaultSpec(FaultKind.AEX_STORM, start_s=-1.0)

    def test_probability_bounds(self):
        with pytest.raises(ConfigurationError):
            FaultSpec(FaultKind.ENCLAVE_CRASH, probability=1.5)

    def test_storm_cannot_speed_up(self):
        with pytest.raises(ConfigurationError):
            FaultSpec(FaultKind.AEX_STORM, magnitude=0.5)

    def test_squeeze_magnitude_bounds(self):
        with pytest.raises(ConfigurationError):
            FaultSpec(FaultKind.EPC_SQUEEZE, magnitude=1.5)
        with pytest.raises(ConfigurationError):
            FaultSpec(FaultKind.EPC_SQUEEZE, magnitude=0.0)

    def test_poison_needs_template(self):
        with pytest.raises(ConfigurationError):
            FaultSpec(FaultKind.POISON_JOB)

    def test_active_window(self):
        spec = FaultSpec(FaultKind.AEX_STORM, start_s=1.0, end_s=2.0)
        assert not spec.active(0.5)
        assert spec.active(1.0)
        assert not spec.active(2.0)


class TestFaultPlan:
    def test_catalog_contains_chaos(self):
        plans = fault_plans()
        assert "none" in plans and "chaos" in plans
        assert plans["none"].empty
        assert len(plans["chaos"].specs) == 5

    def test_unknown_plan_lists_known(self):
        with pytest.raises(ConfigurationError, match="chaos"):
            get_fault_plan("nope")

    def test_window_edges_only_squeezes(self):
        plan = plan_of(
            FaultSpec(FaultKind.EPC_SQUEEZE, start_s=1.0, end_s=3.0,
                      magnitude=0.5),
            FaultSpec(FaultKind.AEX_STORM, start_s=0.5, end_s=2.5),
        )
        assert plan.window_edges(10.0) == (1.0, 3.0)
        assert plan.window_edges(2.0) == (1.0,)  # end past the horizon

    def test_use_fault_plan_scopes(self):
        assert current_run().faults is None
        with use_run(RunConfig(faults=get_fault_plan("chaos"))) as run:
            assert current_run().faults is run.faults
        assert current_run().faults is None


class TestInjector:
    def test_null_injector_is_identity(self):
        inj = NULL_INJECTOR
        assert not inj.active
        assert inj.service_multiplier(1.0, 0, 0) == 1.0
        assert inj.epc_multiplier(1.0) == 1.0
        assert not inj.edmm_denied(1.0, 0, 0)
        assert not inj.squeezed(1.0)
        assert inj.crash(1.0, 0, 0) is None
        assert not inj.poisoned(1.0, "small")
        assert inj.wake_times(10.0) == ()

    def test_make_injector_empty_plan_is_null(self):
        assert make_injector(None) is NULL_INJECTOR
        assert make_injector(NO_FAULTS) is NULL_INJECTOR
        assert make_injector(get_fault_plan("chaos")).active

    def test_storms_compose(self):
        inj = PlanInjector(plan_of(
            FaultSpec(FaultKind.AEX_STORM, end_s=5.0, magnitude=2.0),
            FaultSpec(FaultKind.AEX_STORM, end_s=5.0, magnitude=3.0),
        ))
        assert inj.service_multiplier(1.0, 0, 0) == 6.0
        assert inj.service_multiplier(7.0, 0, 0) == 1.0

    def test_draws_are_order_independent(self):
        plan = plan_of(FaultSpec(FaultKind.ENCLAVE_CRASH, probability=0.5))
        a, b = PlanInjector(plan), PlanInjector(plan)
        # Query the two instances in different orders: per-query outcomes
        # must match exactly (pure function of identity, not call order).
        ids = list(range(50))
        first = {i: a.crash(0.0, i, 0) is not None for i in ids}
        second = {i: b.crash(0.0, i, 0) is not None for i in reversed(ids)}
        assert first == second
        assert any(first.values()) and not all(first.values())

    def test_seed_changes_draws(self):
        spec = FaultSpec(FaultKind.ENCLAVE_CRASH, probability=0.5)
        a = PlanInjector(plan_of(spec, seed=1))
        b = PlanInjector(plan_of(spec, seed=2))
        outcomes_a = [a.crash(0.0, i, 0) is not None for i in range(64)]
        outcomes_b = [b.crash(0.0, i, 0) is not None for i in range(64)]
        assert outcomes_a != outcomes_b

    def test_crash_fraction_strictly_inside_service(self):
        inj = PlanInjector(plan_of(
            FaultSpec(FaultKind.ENCLAVE_CRASH, probability=1.0, reinit_s=0.4)
        ))
        for i in range(32):
            draw = inj.crash(0.0, i, 0)
            assert 0.0 < draw.fraction < 1.0
            assert draw.reinit_s == 0.4


class TestResiliencePolicy:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ResiliencePolicy(max_retries=-1)
        with pytest.raises(ConfigurationError):
            ResiliencePolicy(backoff_multiplier=0.5)
        with pytest.raises(ConfigurationError):
            ResiliencePolicy(jitter=1.5)
        with pytest.raises(ConfigurationError):
            ResiliencePolicy(timeout_s=0.0)
        with pytest.raises(ConfigurationError):
            ResiliencePolicy(breaker_threshold=0)

    def test_backoff_grows_exponentially_without_jitter(self):
        policy = ResiliencePolicy(backoff_base_s=0.1, backoff_multiplier=2.0,
                                  jitter=0.0)
        assert policy.backoff_s(5, 1) == pytest.approx(0.1)
        assert policy.backoff_s(5, 2) == pytest.approx(0.2)
        assert policy.backoff_s(5, 3) == pytest.approx(0.4)

    def test_jitter_is_bounded_and_deterministic(self):
        policy = ResiliencePolicy(backoff_base_s=0.1, jitter=0.5)
        delays = [policy.backoff_s(q, 1) for q in range(32)]
        assert delays == [policy.backoff_s(q, 1) for q in range(32)]
        assert all(0.05 <= d <= 0.15 for d in delays)
        assert len(set(delays)) > 1  # jitter actually varies per query


class TestCircuitBreaker:
    def test_opens_after_threshold_and_cools_down(self):
        breaker = CircuitBreaker(threshold=3, cooldown_s=1.0)
        assert not breaker.record_failure("t", 0.0)
        assert not breaker.record_failure("t", 0.1)
        assert breaker.record_failure("t", 0.2)  # opens exactly here
        assert breaker.is_open("t", 0.5)
        assert not breaker.is_open("t", 1.3)  # cooldown elapsed: closed
        assert breaker.opened_total == 1

    def test_success_resets_consecutive_count(self):
        breaker = CircuitBreaker(threshold=2, cooldown_s=1.0)
        breaker.record_failure("t", 0.0)
        breaker.record_success("t")
        assert not breaker.record_failure("t", 0.1)
        assert breaker.record_failure("t", 0.2)

    def test_streams_are_independent(self):
        breaker = CircuitBreaker(threshold=1, cooldown_s=10.0)
        breaker.record_failure("a", 0.0)
        assert breaker.is_open("a", 1.0)
        assert not breaker.is_open("b", 1.0)


class TestScheduledFaults:
    def test_null_injector_equals_plain_run(self):
        plain = run(scheduler())
        nulled = run(scheduler(injector=NULL_INJECTOR))
        assert plain.records == nulled.records
        assert plain.counters == nulled.counters
        assert nulled.failures == [] and nulled.downtime_s == 0.0

    def test_aex_storm_inflates_services(self):
        inj = make_injector(plan_of(
            FaultSpec(FaultKind.AEX_STORM, magnitude=3.0)
        ))
        base = run(scheduler())
        stormy = run(scheduler(injector=inj))
        assert stormy.counters.aex_inflations == stormy.counters.completed
        assert stormy.makespan_s > base.makespan_s
        # Same arrivals, same completions: the storm only stretches time.
        assert [r.query_id for r in stormy.records] == [
            r.query_id for r in base.records
        ]

    def test_crash_without_resilience_fails_terminally(self):
        inj = make_injector(plan_of(
            FaultSpec(FaultKind.ENCLAVE_CRASH, probability=0.3, reinit_s=0.2)
        ))
        metrics = run(scheduler(injector=inj))
        assert metrics.counters.crashes > 0
        assert metrics.counters.failed == len(metrics.failures) > 0
        assert all(f.outcome == "crash" and f.attempts == 1
                   for f in metrics.failures)
        assert metrics.downtime_s == pytest.approx(
            0.2 * metrics.counters.crashes
        )
        assert metrics.availability < 1.0

    def test_crash_with_retries_recovers(self):
        plan = plan_of(
            FaultSpec(FaultKind.ENCLAVE_CRASH, probability=0.3, reinit_s=0.05)
        )
        unmitigated = run(scheduler(injector=make_injector(plan)))
        mitigated = run(scheduler(
            injector=make_injector(plan),
            resilience=ResiliencePolicy(max_retries=5, breaker_threshold=100),
        ))
        assert mitigated.counters.retries > 0
        assert mitigated.counters.completed > unmitigated.counters.completed
        assert mitigated.availability > unmitigated.availability
        assert any(r.attempts > 1 for r in mitigated.records)

    def test_poison_breaker_sheds_stream(self):
        inj = make_injector(plan_of(
            FaultSpec(FaultKind.POISON_JOB, template="small")
        ))
        metrics = run(scheduler(
            injector=inj,
            resilience=ResiliencePolicy(
                max_retries=0, breaker_threshold=3, breaker_cooldown_s=100.0
            ),
        ))
        assert metrics.counters.completed == 0
        assert metrics.counters.poisoned >= 3
        assert metrics.counters.shed > 0
        # Shed arrivals fail instantly: no service time burned.
        shed = [f for f in metrics.failures if f.outcome == "shed"]
        assert shed and all(f.failed_s == f.arrival_s for f in shed)

    def test_epc_squeeze_overflows_without_degradation(self):
        inj = make_injector(plan_of(
            FaultSpec(FaultKind.EPC_SQUEEZE, end_s=10.0, magnitude=0.3)
        ))
        base = run(scheduler(epc=1_000 * MB),
                   streams=(stream(mix={"big": 1.0}, qps=30.0),))
        squeezed = run(scheduler(epc=1_000 * MB, injector=inj),
                       streams=(stream(mix={"big": 1.0}, qps=30.0),))
        assert base.counters.edmm_admissions == 0
        assert squeezed.counters.edmm_admissions > 0
        assert squeezed.counters.degraded == 0

    def test_degradation_replaces_overflow_under_squeeze(self):
        inj = make_injector(plan_of(
            FaultSpec(FaultKind.EPC_SQUEEZE, end_s=10.0, magnitude=0.3)
        ))
        degraded = run(
            scheduler(
                epc=1_000 * MB,
                injector=inj,
                resilience=ResiliencePolicy(degrade_on_squeeze=True),
            ),
            streams=(stream(mix={"big": 1.0}, qps=30.0),),
        )
        assert degraded.counters.degraded > 0
        assert degraded.counters.edmm_admissions == 0
        assert degraded.counters.completed == degraded.counters.arrivals
        # Degradation is far cheaper than the EDMM overflow penalty.
        overflowed = run(
            scheduler(epc=1_000 * MB, injector=inj),
            streams=(stream(mix={"big": 1.0}, qps=30.0),),
        )
        assert (degraded.latency_percentile_s(99)
                < overflowed.latency_percentile_s(99))

    def test_edmm_denied_fails_overflow_admissions(self):
        inj = make_injector(plan_of(
            FaultSpec(FaultKind.EDMM_DENIED, probability=1.0),
            FaultSpec(FaultKind.EPC_SQUEEZE, end_s=10.0, magnitude=0.3),
        ))
        metrics = run(scheduler(epc=1_000 * MB, injector=inj),
                      streams=(stream(mix={"big": 1.0}, qps=30.0),))
        assert metrics.counters.edmm_denied > 0
        assert any(f.outcome == "edmm_denied" for f in metrics.failures)

    def test_timeout_bounds_attempts(self):
        inj = make_injector(plan_of(
            FaultSpec(FaultKind.AEX_STORM, magnitude=50.0)
        ))
        metrics = run(
            scheduler(
                injector=inj,
                resilience=ResiliencePolicy(
                    max_retries=0, timeout_s=0.05, breaker_threshold=1000
                ),
            ),
            streams=(stream(qps=5.0),),
        )
        assert metrics.counters.timeouts > 0
        assert all(f.outcome == "timeout" for f in metrics.failures)
        # A timed-out attempt burns exactly the timeout, never the full
        # inflated service.
        assert metrics.makespan_s < 50.0 * 0.01 * metrics.counters.arrivals

    def test_closed_loop_resubmits_after_terminal_failure(self):
        # A poisoned closed-loop stream must keep cycling: each client
        # resubmits after its query fails, so failures accumulate well
        # beyond the client count instead of the stream going silent.
        inj = make_injector(plan_of(
            FaultSpec(FaultKind.POISON_JOB, template="small")
        ))
        closed = ClosedLoopStream(
            "loop", clients=2, think_s=0.01,
            mix=QueryMix.of({"small": 1.0}), seed=3,
        )
        metrics = scheduler(injector=inj).run(
            open_streams=(), closed_streams=(closed,), duration_s=1.0
        )
        assert metrics.counters.completed == 0
        assert len(metrics.failures) > 2 * 5

    def test_faulted_run_is_deterministic(self):
        plan = get_fault_plan("chaos")
        resilience = ResiliencePolicy()

        def once():
            return run(
                scheduler(injector=make_injector(plan),
                          resilience=resilience),
                streams=(stream(mix={"small": 0.8, "big": 0.2}),),
            )

        a, b = once(), once()
        assert a.records == b.records
        assert a.failures == b.failures
        assert a.counters == b.counters
        assert a.downtime_s == b.downtime_s


class TestFaultTracing:
    def test_unfaulted_trace_has_no_fault_events(self):
        tracer = Tracer()
        with use_tracer(tracer):
            run(scheduler())
        names = {e.name for e in tracer.records}
        assert not any(n.startswith(("fault.", "resilience."))
                       for n in names)
        assert FAILED not in names
        breakdown = fault_breakdown(tracer)
        assert breakdown.lost_s == 0.0 and breakdown.retries == 0

    def test_fault_breakdown_matches_counters(self):
        plan = plan_of(
            FaultSpec(FaultKind.ENCLAVE_CRASH, probability=0.3, reinit_s=0.1)
        )
        tracer = Tracer()
        with use_tracer(tracer):
            metrics = run(scheduler(
                injector=make_injector(plan),
                resilience=ResiliencePolicy(max_retries=2,
                                            breaker_threshold=1000),
            ))
        breakdown = fault_breakdown(tracer)
        assert breakdown.retries == metrics.counters.retries
        assert breakdown.failed == metrics.counters.failed
        assert breakdown.downtime_s == pytest.approx(metrics.downtime_s)
        assert breakdown.retry_wait_s > 0
        names = {e.name for e in tracer.records}
        assert RETRY in names

    def test_shed_events_emitted(self):
        tracer = Tracer()
        inj = make_injector(plan_of(
            FaultSpec(FaultKind.POISON_JOB, template="small")
        ))
        with use_tracer(tracer):
            run(scheduler(
                injector=inj,
                resilience=ResiliencePolicy(max_retries=0,
                                            breaker_threshold=2,
                                            breaker_cooldown_s=100.0),
            ))
        names = [e.name for e in tracer.records]
        assert SHED in names

    def test_run_end_fault_attrs_follow_faulting_not_storage(self):
        # Un-faulted runs emit no fault attributes, with or without a
        # spill model: availability and friends ride on run_end only
        # when fault machinery is live.
        def run_end_attrs(**kwargs):
            tracer = Tracer()
            with use_tracer(tracer):
                metrics = run(scheduler(epc=300 * MB, **kwargs),
                              streams=(stream(mix={"big": 1.0}, qps=30.0),))
            (end,) = [e for e in tracer.records if e.name == RUN_END]
            return metrics, end.attrs

        _, faulted = run_end_attrs(injector=make_injector(plan_of(
            FaultSpec(FaultKind.AEX_STORM, magnitude=2.0)
        )))
        assert {"availability", "failed", "shed", "retries",
                "downtime_s"} <= set(faulted)
        metrics, spilled = run_end_attrs(storage=spill_model())
        assert metrics.counters.spills > 0
        assert "availability" not in spilled


class TestFaultCacheKeys:
    @staticmethod
    def key(plan=None):
        return experiment_key(
            "wl01", quick=True, base_seed=42, run=RunConfig(faults=plan)
        )

    def test_plan_changes_experiment_key(self):
        base = self.key()
        chaos = self.key(get_fault_plan("chaos"))
        storm = self.key(get_fault_plan("aex-storm"))
        assert len({base, chaos, storm}) == 3

    def test_same_plan_same_key(self):
        assert self.key(get_fault_plan("chaos")) == \
            self.key(get_fault_plan("chaos"))

    def test_plan_seed_changes_key(self):
        plan = get_fault_plan("chaos")
        reseeded = FaultPlan(name=plan.name, seed=plan.seed + 1,
                             specs=plan.specs)
        assert self.key(plan) != self.key(reseeded)


def scheduler_fingerprint(sched, **run_kwargs):
    """sha256 over every WorkloadMetrics field and the traced run."""
    tracer = Tracer("scheduler-test")
    with use_tracer(tracer):
        metrics = run(sched, **run_kwargs)
    parts = [
        f"{f.name}={getattr(metrics, f.name)!r}"
        for f in dataclasses.fields(metrics)
    ]
    blob = "\n".join(parts) + "\n" + to_jsonl(tracer.snapshot())
    names = {r.name for r in tracer.records}
    return hashlib.sha256(blob.encode("utf-8")).hexdigest(), names


def _arms(*specs):
    return tuple(
        ArmCost(
            candidate=PlanCandidate(alg, threads=threads),
            label=label,
            service_s=service,
            working_set_bytes=ws,
        )
        for alg, label, threads, service, ws in specs
    )


_SQUEEZE = FaultSpec(FaultKind.EPC_SQUEEZE, end_s=1.0, magnitude=0.3)
_BIG = (stream(mix={"big": 1.0}, qps=30.0),)
_MIXED = (stream(mix={"small": 0.7, "big": 0.3}, qps=60.0),)
_CLOSED = (
    ClosedLoopStream("loop", clients=2, think_s=0.02,
                     mix=QueryMix.of({"small": 1.0}), seed=5),
)

#: Small WorkloadScheduler runs reaching dispatch branches no pinned CLI
#: case reaches, each with the trace events that prove it got there.  A
#: change to the dispatch path must reproduce every byte.
SCHEDULER_PIN_CASES = {
    "edmm-denied-squeeze": (
        lambda: scheduler(
            injector=make_injector(plan_of(
                FaultSpec(FaultKind.EDMM_DENIED, probability=0.5), _SQUEEZE
            )),
            resilience=ResiliencePolicy(
                max_retries=2, breaker_threshold=1000,
                degrade_on_squeeze=False,
            ),
        ),
        {"streams": _BIG},
        {"fault.edmm_denied", "query.edmm_overflow", "resilience.retry"},
    ),
    "degrade-squeeze": (
        lambda: scheduler(
            injector=make_injector(plan_of(_SQUEEZE)),
            resilience=ResiliencePolicy(degrade_on_squeeze=True),
        ),
        {"streams": _BIG},
        {"resilience.degraded"},
    ),
    "poison-breaker": (
        lambda: scheduler(
            injector=make_injector(plan_of(
                FaultSpec(FaultKind.POISON_JOB, template="small",
                          end_s=1.2)
            )),
            resilience=ResiliencePolicy(
                max_retries=2, breaker_threshold=3, breaker_cooldown_s=0.3
            ),
        ),
        {"streams": _MIXED, "closed": _CLOSED},
        {"resilience.breaker_open", "resilience.shed", "query.failed"},
    ),
    "crash-timeout": (
        lambda: scheduler(
            injector=make_injector(plan_of(
                FaultSpec(FaultKind.AEX_STORM, start_s=0.5, end_s=1.0,
                          magnitude=20.0),
                FaultSpec(FaultKind.ENCLAVE_CRASH, probability=0.2,
                          reinit_s=0.05),
            )),
            resilience=ResiliencePolicy(
                max_retries=1, timeout_s=0.08, breaker_threshold=1000
            ),
        ),
        {"streams": _MIXED},
        {"fault.aex_storm", "fault.enclave_crash", "query.attempt_failed"},
    ),
    "spill-torn-stall": (
        lambda: scheduler(
            epc=300 * MB,
            injector=make_injector(plan_of(
                FaultSpec(FaultKind.TORN_BLOCK, probability=0.2),
                FaultSpec(FaultKind.STORAGE_STALL, start_s=1.0, end_s=8.0,
                          magnitude=3.0),
            )),
            resilience=ResiliencePolicy(max_retries=1,
                                        breaker_threshold=1000),
            storage=spill_model(),
        ),
        {"streams": _BIG},
        {"fault.torn_block", "fault.storage_stall", "storage.spill"},
    ),
    "adaptive-retries": (
        lambda: scheduler(
            injector=make_injector(plan_of(
                FaultSpec(FaultKind.ENCLAVE_CRASH, probability=0.2,
                          reinit_s=0.02),
                _SQUEEZE,
            )),
            resilience=ResiliencePolicy(max_retries=2,
                                        breaker_threshold=1000),
            selector=EpsilonGreedySelector(
                {
                    "small": _arms(("PHT", "PHT", 1, 0.01, 10 * MB),
                                   ("RHO", "RHO", 2, 0.008, 40 * MB)),
                    "big": _arms(("RHO", "RHO", 4, 0.10, 400 * MB),
                                 ("PHT", "PHT", 2, 0.14, 250 * MB)),
                },
                seed=7,
                epsilon=0.3,
            ),
        ),
        {"streams": _MIXED, "closed": _CLOSED},
        {"planner.choice", "planner.observe", "resilience.retry"},
    ),
}

#: sha256 of :func:`scheduler_fingerprint` per case.  A deliberate change
#: re-blesses these from the digests the test prints on mismatch.
SCHEDULER_PINS = {
    "adaptive-retries":
        "4fbb055335652e370157679beb1e2244c49a69c47ae5e80e9897c2730b94ede2",
    "crash-timeout":
        "c1a1ad778fd0eea8d483df31ded25e927bf230dd3d3807fa105c3d25e40b4b92",
    "degrade-squeeze":
        "c97548ba5d01b5c6553a13429f25013b3637a522ee485867b6442f85d02a4fb0",
    "edmm-denied-squeeze":
        "b0b35d83cb9e50f2ae8b30557334cbead066bdf39f0af0c726cf8ddeb05dc4ab",
    "poison-breaker":
        "b75c1a55d6c29eb5365d61181fe2a7298e8149277c4994c1bc08981fe20ad421",
    "spill-torn-stall":
        "9534c8f07e118aac3c8259194184c3edb1d8712736f292fc9547328d61e269ee",
}


class TestSchedulerPins:
    @pytest.mark.parametrize("case", sorted(SCHEDULER_PIN_CASES), ids=str)
    def test_small_runs_are_pinned(self, case):
        make, kwargs, expected_events = SCHEDULER_PIN_CASES[case]
        actual, names = scheduler_fingerprint(make(), **kwargs)
        assert expected_events <= names, f"{case!r} missed its branch"
        assert actual == SCHEDULER_PINS[case], (
            f"{case!r} moved; actual: {actual}"
        )
