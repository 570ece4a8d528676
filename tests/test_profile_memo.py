"""The per-query profile memo: keys, scoping, invalidation, byte-identity.

The memo sits *below* the experiment cache: it memoizes priced service
times and plan/rewrite estimates per (template, plan, setting, sizes,
calibration), so repeated pricing skips operator re-execution.  These
tests pin the load-bearing contracts: keys rotate with every component,
calibration changes invalidate at the query level, hit/miss traffic is
counted, a hit returns exactly what the miss priced, and — above all —
a warm rerun is byte-identical to the cold run it skipped work for.
"""

import dataclasses

import pytest

from repro.bench.experiments.common import SETTING_PLAIN, SETTING_SGX_IN
from repro.cache import (
    ProfileMemo,
    profile_memo,
    query_profile_key,
    use_profile_memo,
)
from repro.hardware.calibration import paper_calibration
from repro.machine import SimMachine
from repro.memory.access import CodeVariant
from repro.planner import estimate_candidate
from repro.planner.candidates import static_candidate
from repro.rewrite import estimate_rewrite, generate_rewrites
from repro.trace import Tracer, to_jsonl, use_tracer
from repro.workload import (
    JobCatalog,
    OpenLoopStream,
    QueryMix,
    ServingEngine,
    WorkloadConfig,
)
from repro.workload.jobs import serving_templates

TEMPLATES = serving_templates()


def _key(**overrides):
    template = TEMPLATES["scan-small"]
    defaults = dict(
        kind="catalog-price",
        template=template.name,
        setting=SETTING_SGX_IN,
        candidate=static_candidate(template, CodeVariant.NAIVE),
        pricing_seed=13,
        row_cap=100_000,
        sf_cap=0.01,
    )
    defaults.update(overrides)
    return query_profile_key(**defaults)


class TestQueryProfileKey:
    def test_stable_for_identical_inputs(self):
        assert _key() == _key()

    def test_every_component_rotates_the_key(self):
        base = _key()
        template = TEMPLATES["join-medium"]
        assert _key(kind="plan-estimate") != base
        assert _key(template=template.name) != base
        assert _key(setting=SETTING_PLAIN) != base
        assert (
            _key(candidate=static_candidate(template, CodeVariant.NAIVE))
            != base
        )
        assert _key(pricing_seed=14) != base
        assert _key(row_cap=200_000) != base
        assert _key(sf_cap=0.02) != base

    def test_calibration_rotates_the_key(self):
        params = paper_calibration()
        nudged = dataclasses.replace(
            params,
            linear_write_penalty=params.linear_write_penalty * 1.5,
        )
        assert _key(params=params) != _key(params=nudged)


class TestMemoScoping:
    def test_get_or_price_prices_each_key_once(self):
        memo = ProfileMemo()
        calls = []

        def price():
            calls.append(1)
            return len(calls)

        assert memo.get_or_price("a", price) == 1
        assert memo.get_or_price("a", price) == 1
        assert memo.get_or_price("b", price) == 2
        assert (memo.hits, memo.misses) == (1, 2)
        assert len(calls) == 2

    def test_a_failed_pricing_stores_nothing(self):
        memo = ProfileMemo()

        def fail():
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError):
            memo.get_or_price("a", fail)
        assert memo.get_or_price("a", lambda: 7) == 7
        assert (memo.hits, memo.misses) == (0, 2)

    def test_scopes_nest_and_restore(self):
        outer, inner = ProfileMemo(), ProfileMemo()
        with use_profile_memo(outer) as scoped:
            assert scoped is outer
            assert profile_memo() is outer
            with use_profile_memo(inner):
                assert profile_memo() is inner
            assert profile_memo() is outer
        assert profile_memo() is not outer

    def test_scope_restores_after_an_exception(self):
        before = profile_memo()
        with pytest.raises(RuntimeError):
            with use_profile_memo(ProfileMemo()):
                raise RuntimeError("boom")
        assert profile_memo() is before


class TestCatalogMemoization:
    def catalog(self, machine=None):
        return JobCatalog(machine, quick=True, variant=CodeVariant.NAIVE)

    def test_fresh_catalog_hits_a_warm_memo(self):
        memo = ProfileMemo()
        template = TEMPLATES["scan-small"]
        with use_profile_memo(memo):
            cold = self.catalog().cost(template, SETTING_SGX_IN)
            assert memo.misses > 0 and memo.hits == 0
            misses_after_cold = memo.misses
            # A *fresh* catalog has no instance-level cache: only the
            # ambient memo can explain skipping the operator run.
            warm = self.catalog().cost(template, SETTING_SGX_IN)
            assert memo.hits > 0
            assert memo.misses == misses_after_cold
        assert warm == cold

    def test_calibration_change_invalidates_at_query_level(self):
        memo = ProfileMemo()
        template = TEMPLATES["scan-small"]
        params = paper_calibration()
        nudged = dataclasses.replace(
            params,
            linear_write_penalty=params.linear_write_penalty * 1.5,
        )
        with use_profile_memo(memo):
            self.catalog(SimMachine(params=params)).cost(
                template, SETTING_SGX_IN
            )
            assert memo.hits == 0
            # Same template, same setting, different calibration: the
            # memo must miss, never serve the stale profile.
            self.catalog(SimMachine(params=nudged)).cost(
                template, SETTING_SGX_IN
            )
            assert memo.hits == 0
            # And the original calibration still hits its own entries.
            self.catalog(SimMachine(params=params)).cost(
                template, SETTING_SGX_IN
            )
            assert memo.hits > 0


def _field_types(value):
    if dataclasses.is_dataclass(value):
        return [type(getattr(value, f.name)) for f in dataclasses.fields(value)]
    return [type(item) for item in value]


class TestHitsReturnTheMissValue:
    """At each pricing site, a hit returns the value the miss priced: equal
    to an independent pricing on a fresh memo, field types included."""

    def priced_twice(self, price):
        cold_memo = ProfileMemo()
        with use_profile_memo(cold_memo):
            miss = price()
            hit = price()
        assert (cold_memo.hits, cold_memo.misses) == (1, 1)
        with use_profile_memo(ProfileMemo()):
            independent = price()
        assert hit is miss
        assert hit == independent
        assert _field_types(hit) == _field_types(independent)

    def test_catalog_price(self):
        template = TEMPLATES["scan-small"]
        self.priced_twice(
            lambda: JobCatalog(quick=True, variant=CodeVariant.NAIVE)._price(
                template, SETTING_SGX_IN
            )
        )

    def test_plan_estimate(self):
        template = TEMPLATES["scan-small"]
        candidate = static_candidate(template, CodeVariant.SIMD)
        self.priced_twice(
            lambda: estimate_candidate(
                SimMachine(), SETTING_SGX_IN, template, candidate
            )
        )

    def test_rewrite_estimate(self):
        template = TEMPLATES["q12"]
        rewrite = generate_rewrites(template)[0]
        self.priced_twice(
            lambda: estimate_rewrite(
                SimMachine(), SETTING_SGX_IN, template, rewrite
            )
        )


def _serve(*, queries=40):
    """One small traced serving run; returns (metrics, trace jsonl text)."""
    catalog = JobCatalog(quick=True, variant=CodeVariant.NAIVE)
    engine = ServingEngine(catalog)
    mix = QueryMix.of({"scan-small": 0.7, "join-medium": 0.3})
    qps = 50.0
    config = WorkloadConfig(
        setting=SETTING_SGX_IN,
        open_streams=(OpenLoopStream("tenant", qps=qps, mix=mix, seed=42),),
        duration_s=queries / qps,
        cores=8,
        policy="fifo",
    )
    tracer = Tracer(label="memo-identity")
    with use_tracer(tracer):
        metrics = engine.run(config)
    return metrics, to_jsonl(tracer)


class TestByteIdentity:
    """The memo is a wall-clock optimization ONLY: a warm rerun answered
    from the memo must equal the cold run that priced it, byte for byte."""

    def test_serving_rerun_identical_on_a_warm_memo(self):
        memo = ProfileMemo()
        with use_profile_memo(memo):
            cold_metrics, cold_trace = _serve()
            hits_after_cold = memo.hits
            warm_metrics, warm_trace = _serve()
        assert memo.hits > hits_after_cold
        assert warm_trace == cold_trace
        assert warm_metrics.records == cold_metrics.records
        assert vars(warm_metrics.counters) == vars(cold_metrics.counters)

    def test_clustered_rerun_identical_on_a_warm_memo(self):
        from repro.cluster import ClusterConfig
        from repro.runconfig import RunConfig, use_run

        run = RunConfig(cluster=ClusterConfig.parse("1x2"))
        memo = ProfileMemo()
        with use_run(run), use_profile_memo(memo):
            cold_metrics, cold_trace = _serve()
            hits_after_cold = memo.hits
            warm_metrics, warm_trace = _serve()
        assert memo.hits > hits_after_cold
        assert warm_trace == cold_trace
        assert warm_metrics.records == cold_metrics.records


class TestSessionCounters:
    """The session driver reports memo traffic in the session trace."""

    def test_memoized_session_counts_traffic(self):
        from repro.bench.parallel import run_session

        with use_profile_memo(ProfileMemo()):
            session = run_session(["wl01"], quick=True)
        assert session.memo_misses > 0
        counters = session.tracer.counters
        assert counters.get("bench.memo.misses") == session.memo_misses

    def test_memo_counters_never_enter_the_result_cache(self, tmp_path):
        from repro.bench.parallel import run_session
        from repro.cache import MemoStore

        store = MemoStore(tmp_path / "cache")
        with use_profile_memo(ProfileMemo()):
            run_session(["wl01"], quick=True, cache=store)
        for path in (tmp_path / "cache").glob("*.json"):
            text = path.read_text()
            assert "memo_hits" not in text
            assert "memo_misses" not in text
