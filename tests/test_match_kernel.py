"""Differential tests: the global match kernel against per-partition joins.

RHO, CrkJoin and the Grace spill join all take their rows from
:func:`~repro.core.joins.radix.match_first`, one chained hash table over
the whole build side.  The oracles below are the per-partition loops
those joins used to execute: one table per radix (or hash) partition,
probed with that partition's probe rows.  Equal keys always share a
partition and chained insertion returns the highest build index among
equal keys, so both must agree row for row on any input.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.joins import ParallelHashJoin
from repro.core.joins.radix import group_rows, match_first, radix_partition
from repro.core.structures.hashtable import ChainedHashTable
from repro.enclave.runtime import ExecutionSetting
from repro.machine import SimMachine
from repro.memory.access import CodeVariant
from repro.storage import GraceHashJoin, SealedStore
from repro.storage.spill import _partition_of, partition_count
from repro.tables import generate_join_relation_pair
from repro.tables.table import Column, Table

SGX = ExecutionSetting.sgx_data_in_enclave()

int64_keys = st.integers(min_value=-(2**63), max_value=2**63 - 1)


def _table(name: str, keys, sim_scale: float = 1.0) -> Table:
    keys = np.asarray(keys, dtype=np.int64)
    payload = np.arange(len(keys), dtype=np.int64)
    return Table(
        name, [Column("key", keys), Column("payload", payload)], sim_scale=sim_scale
    )


def _match_rows(build_index, build_rows, probe_rows, local_index, hits):
    matched = probe_rows[hits]
    build_index[matched] = build_rows[local_index[hits]]


def partitioned_match_oracle(build: Table, probe: Table, num_partitions: int):
    """The former RHO/CrkJoin kernel: one table per low-bit radix partition."""
    r_keys, r_payloads = build["key"], build["payload"]
    s_keys = probe["key"]
    r_order, r_offsets = radix_partition(r_keys, num_partitions)
    s_order, s_offsets = radix_partition(s_keys, num_partitions)
    build_index = np.full(len(s_keys), -1, dtype=np.int64)
    for p in range(num_partitions):
        r_rows = r_order[r_offsets[p] : r_offsets[p + 1]]
        s_rows = s_order[s_offsets[p] : s_offsets[p + 1]]
        if len(r_rows) == 0 or len(s_rows) == 0:
            continue
        table = ChainedHashTable(r_keys[r_rows], r_payloads[r_rows])
        local_index, hits = table.probe_first(s_keys[s_rows])
        _match_rows(build_index, r_rows, s_rows, local_index, hits)
    return build_index, build_index >= 0


def grace_match_oracle(build: Table, probe: Table, partitions: int):
    """The former Grace kernel: a ``flatnonzero`` scan per hash partition."""
    build_parts = _partition_of(build["key"], partitions)
    probe_parts = _partition_of(probe["key"], partitions)
    build_index = np.full(probe.num_rows, -1, dtype=np.int64)
    for part in range(partitions):
        build_rows = np.flatnonzero(build_parts == part)
        probe_rows = np.flatnonzero(probe_parts == part)
        if len(probe_rows) == 0:
            continue
        table = ChainedHashTable(
            build["key"][build_rows], build["payload"][build_rows]
        )
        local_index, hits = table.probe_first(probe["key"][probe_rows])
        _match_rows(build_index, build_rows, probe_rows, local_index, hits)
    return build_index


@st.composite
def join_inputs(draw):
    """Build keys with duplicates, and probes mixing hits and misses."""
    build = draw(st.lists(int64_keys, min_size=0, max_size=200))
    if build and draw(st.booleans()):
        build += draw(
            st.lists(st.sampled_from(build), min_size=1, max_size=50)
        )
    from_build = (
        st.lists(st.sampled_from(build), max_size=150) if build else st.just([])
    )
    probe = draw(from_build) + draw(st.lists(int64_keys, max_size=100))
    return build, draw(st.permutations(probe))


class TestMatchFirst:
    @given(inputs=join_inputs(), bits=st.integers(min_value=0, max_value=12))
    @settings(max_examples=80, deadline=None)
    def test_equals_per_partition_oracle(self, inputs, bits):
        build, probe = _table("R", inputs[0]), _table("S", inputs[1])
        index, hits = match_first(build, probe)
        expected, expected_hits = partitioned_match_oracle(build, probe, 1 << bits)
        assert np.array_equal(index, expected)
        assert np.array_equal(hits, expected_hits)

    @pytest.mark.parametrize("bits", [0, 3, 12])
    def test_duplicates_return_the_highest_build_index(self, bits):
        build = _table("R", [5, 9, 5, 2**62, 5, -(2**63), 2**62])
        probe = _table("S", [5, 2**62, -(2**63), 9])
        index, _ = match_first(build, probe)
        assert index.tolist() == [4, 6, 5, 1]
        oracle, _ = partitioned_match_oracle(build, probe, 1 << bits)
        assert np.array_equal(index, oracle)

    @pytest.mark.parametrize("bits", [0, 5, 12])
    @pytest.mark.parametrize(
        "build_keys, probe_keys",
        [
            ([], [1, 2, 3]),  # empty build side
            ([1, 2, 3], []),  # empty probe side
            ([0, 4096, 8192], [1, 4097, -4096, 2**63 - 1]),  # all miss
        ],
        ids=["empty-build", "empty-probe", "all-miss"],
    )
    def test_edge_cases(self, bits, build_keys, probe_keys):
        build, probe = _table("R", build_keys), _table("S", probe_keys)
        index, hits = match_first(build, probe)
        assert len(index) == len(probe_keys)
        assert not hits.any()
        oracle, _ = partitioned_match_oracle(build, probe, 1 << bits)
        assert np.array_equal(index, oracle)


class TestGroupRows:
    @given(
        ids=st.lists(st.integers(min_value=0, max_value=63), max_size=300),
        groups=st.integers(min_value=64, max_value=80),
    )
    @settings(max_examples=60, deadline=None)
    def test_equals_a_scan_per_group(self, ids, groups):
        ids = np.asarray(ids, dtype=np.int64)
        order, offsets = group_rows(ids, groups)
        assert len(offsets) == groups + 1
        for group in range(groups):
            rows = order[offsets[group] : offsets[group + 1]]
            assert np.array_equal(rows, np.flatnonzero(ids == group))


#: Spill budgets in bytes: deep partitioning, shallow, and in-memory.
GRACE_BUDGETS = (2e6, 16e6, 64e6, 10_000e6)


class TestGraceMatch:
    @given(inputs=join_inputs(), budget=st.sampled_from(GRACE_BUDGETS))
    @settings(max_examples=40, deadline=None)
    def test_match_index_equals_per_partition_oracle(self, inputs, budget):
        # A large sim_scale makes the logical build side outgrow the budget.
        build = _table("R", inputs[0], sim_scale=50_000.0)
        probe = _table("S", inputs[1], sim_scale=50_000.0)
        machine = SimMachine()
        join = GraceHashJoin(
            CodeVariant.NAIVE, store=SealedStore(machine.params), budget_bytes=budget
        )
        with machine.context(SGX, threads=4) as ctx:
            result = join.run(ctx, build, probe)
        partitions = partition_count(float(build.logical_bytes), budget)
        expected = grace_match_oracle(build, probe, partitions)
        assert np.array_equal(result.match_index, expected)
        assert result.matches == int((expected >= 0).sum())

    @pytest.mark.parametrize("budget", [2e6, 10_000e6], ids=["spill", "in-memory"])
    def test_empty_probe_matches_nothing(self, budget):
        build, _ = generate_join_relation_pair(
            100e6, 400e6, seed=3, physical_row_cap=5_000
        )
        probe = _table("S", [], sim_scale=1000.0)
        machine = SimMachine()
        join = GraceHashJoin(
            CodeVariant.NAIVE, store=SealedStore(machine.params), budget_bytes=budget
        )
        with machine.context(SGX, threads=4) as ctx:
            result = join.run(ctx, build, probe, materialize=True)
        with machine.context(SGX, threads=4) as ctx:
            reference = ParallelHashJoin(CodeVariant.NAIVE).run(ctx, build, probe)
        assert result.matches == reference.matches == 0
        assert result.output.num_rows == 0
        assert np.array_equal(result.match_index, reference.match_index)
        # Only the spill path partitions; the partition pass stays priced.
        spills = partition_count(float(build.logical_bytes), budget) > 1
        assert ("partition" in result.phase_cycles) == spills


def _skewed_probe_case():
    """Eight probe rows on two build keys, so most partitions are unprobed
    and the largest build partition is among them."""
    build, _ = generate_join_relation_pair(
        100e6, 400e6, seed=3, physical_row_cap=5_000
    )
    keys = np.repeat(build["key"][38:40], 4)
    probe = Table(
        "S",
        [Column("key", keys), Column("payload", np.arange(8, dtype=np.int32))],
        sim_scale=1000.0,
    )
    return build, probe


def _grace_case(name):
    if name == "few-probes":
        return _skewed_probe_case()
    shape = tuple(int(part) for part in name.split("x"))
    return generate_join_relation_pair(
        shape[0] * 1e6, shape[1] * 1e6, seed=11, physical_row_cap=30_000
    )


#: Grace's priced cycles as the per-partition loop computed them, before
#: the loop became one global match: (case, budget MB) -> (cycles,
#: phase_cycles).
GRACE_PINNED = {
    ("100x400", 16): (
        1037195346.2279422,
        {
            "build": 135785692.40927893,
            "partition": 410517844.18154764,
            "probe": 490891809.6371157,
        },
    ),
    ("100x400", 64): (
        1063482966.8001926,
        {
            "build": 141043216.523729,
            "partition": 410517844.18154764,
            "probe": 511921906.094916,
        },
    ),
    ("100x400", 10_000): (
        2536917182.3878293,
        {
            "build": 876925146.7158941,
            "probe": 1659992035.6719353,
        },
    ),
    ("30x60", 16): (
        188938528.91985,
        {
            "build": 40962558.18905715,
            "partition": 73896674.35267857,
            "probe": 74079296.3781143,
        },
    ),
    ("30x60", 64): (
        193178579.43103153,
        {
            "build": 42375908.35945098,
            "partition": 73896674.35267857,
            "probe": 76905996.71890196,
        },
    ),
    ("30x60", 10_000): (
        341591236.9021698,
        {
            "build": 163283620.36237836,
            "probe": 178307616.5397915,
        },
    ),
    ("few-probes", 16): (
        218055388.71722126,
        {
            "build": 135812383.67706317,
            "partition": 82156248.19940476,
            "probe": 86756.84075332043,
        },
    ),
    ("few-probes", 64): (
        223287321.71040848,
        {
            "build": 141040970.37476385,
            "partition": 82156248.19940476,
            "probe": 90103.13623984886,
        },
    ),
}


@pytest.mark.parametrize(
    "case, budget_mb", sorted(GRACE_PINNED), ids=lambda v: str(v)
)
def test_grace_priced_cycles_unchanged(case, budget_mb):
    build, probe = _grace_case(case)
    machine = SimMachine()
    join = GraceHashJoin(
        CodeVariant.NAIVE,
        store=SealedStore(machine.params),
        budget_bytes=budget_mb * 1e6,
    )
    with machine.context(SGX, threads=4) as ctx:
        result = join.run(ctx, build, probe)
    cycles, phases = GRACE_PINNED[(case, budget_mb)]
    assert result.cycles == cycles
    assert dict(result.phase_cycles) == phases
    with machine.context(SGX, threads=4) as ctx:
        reference = ParallelHashJoin(CodeVariant.NAIVE).run(ctx, build, probe)
    assert np.array_equal(result.match_index, reference.match_index)
