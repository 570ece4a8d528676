"""RunConfig: the six session settings as one value, scope and key."""

from __future__ import annotations

import dataclasses
import subprocess
import sys

import pytest

from repro.bench.registry import run_experiment
from repro.cache.keys import CACHE_FORMAT, experiment_key
from repro.cli import RUN_FLAGS, build_parser, run_config
from repro.errors import ConfigurationError
from repro.faults import get_fault_plan
from repro.runconfig import RunConfig, current_run, use_run

FIELDS = ("faults", "planner", "cluster", "storage", "backend", "rewrite")


class TestRunConfig:
    def test_exactly_six_fields_with_canonical_defaults(self):
        assert tuple(f.name for f in dataclasses.fields(RunConfig)) == FIELDS
        default = RunConfig()
        assert (default.faults, default.planner, default.cluster) == \
            (None, "static", None)
        assert (default.storage, default.backend, default.rewrite) == \
            (None, "sim", "off")

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            RunConfig().planner = "cost"

    def test_default_config_imports_no_setting_package(self):
        # Building the default config must not drag the planner, backend,
        # rewrite, cluster, storage or fault packages into a process.
        code = (
            "import sys; from repro.runconfig import RunConfig; RunConfig(); "
            "print(' '.join(sys.modules))"
        )
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, check=True,
        )
        heavy = {
            f"repro.{name}"
            for name in ("planner", "backends", "rewrite", "cluster",
                         "storage", "faults")
        }
        assert not heavy & set(out.stdout.split())


class TestScope:
    def test_nests_and_restores(self):
        assert current_run() == RunConfig()
        outer = RunConfig(planner="cost")
        inner = RunConfig(rewrite="prove")
        with use_run(outer) as entered:
            assert entered is outer and current_run() is outer
            with use_run(inner):
                assert current_run() is inner
            assert current_run() is outer
        assert current_run() == RunConfig()

    def test_restores_after_an_exception(self):
        with pytest.raises(RuntimeError):
            with use_run(RunConfig(planner="adaptive")):
                raise RuntimeError("boom")
        assert current_run() == RunConfig()

    def test_run_experiment_scopes_its_config(self):
        run_experiment("tab01", run=RunConfig(planner="cost"))
        assert current_run() == RunConfig()


class TestCacheKey:
    BASE = dict(quick=True, base_seed=42)

    def test_format_nine(self):
        assert CACHE_FORMAT == 9

    def test_none_is_the_default_config(self):
        assert experiment_key("wl01", **self.BASE) == experiment_key(
            "wl01", run=RunConfig(), **self.BASE
        )

    @pytest.mark.parametrize(
        "change",
        [
            {"faults": get_fault_plan("chaos")},
            {"planner": "cost"},
            {"cluster": "2x4"},
            {"storage": "256m"},
            {"backend": "sqlite"},
            {"rewrite": "prove"},
        ],
        ids=lambda change: next(iter(change)),
    )
    def test_every_field_rotates_the_key(self, change):
        assert experiment_key("wl01", **self.BASE) != experiment_key(
            "wl01", run=RunConfig(**change), **self.BASE
        )


class TestCliTable:
    def test_one_row_per_field(self):
        assert tuple(row[0] for row in RUN_FLAGS) == FIELDS

    def test_unflagged_and_explicit_defaults_build_the_default(self):
        for argv in (
            ["wl01"],
            ["wl01", "--planner", "static", "--backend", "sim",
             "--rewrite", "off"],
        ):
            assert run_config(build_parser().parse_args(argv)) == RunConfig()

    def test_flags_parse_into_their_fields(self):
        args = build_parser().parse_args(
            ["wl01", "--faults", "chaos", "--cluster", "2x4",
             "--storage", "256m", "--planner", "adaptive",
             "--rewrite", "learned"]
        )
        assert run_config(args) == RunConfig(
            faults=get_fault_plan("chaos"),
            cluster="2x4",
            storage="256m",
            planner="adaptive",
            rewrite="learned",
        )

    def test_conflicts_raise_before_any_run(self):
        for argv in (
            ["wl01", "--backend", "sqlite", "--planner", "cost"],
            ["wl01", "--backend", "sqlite", "--rewrite", "race"],
        ):
            with pytest.raises(ConfigurationError):
                run_config(build_parser().parse_args(argv))
