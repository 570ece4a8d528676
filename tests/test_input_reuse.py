"""Per-seed TPC-H input reuse in fig17 and ext05 (``common.tpch_per_seed``).

Each experiment run generates one dataset per repetition seed and shares it,
read-only, across its (query, case) cells.  The memo is local to one
``run()`` call, so a second run generates its data again.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

from repro.bench.experiments import common, ext05_pipelining, fig17_tpch


@pytest.fixture
def generations(monkeypatch):
    """Count ``generate_tpch`` calls made through the helper."""
    calls = []
    real = common.generate_tpch

    def counting(*args, **kwargs):
        calls.append(kwargs["seed"])
        return real(*args, **kwargs)

    monkeypatch.setattr(common, "generate_tpch", counting)
    return calls


@pytest.mark.parametrize("module", [fig17_tpch, ext05_pipelining],
                         ids=["fig17", "ext05"])
def test_one_generation_per_seed_and_run(module, generations):
    runs = common.BenchConfig(quick=True).runs
    module.run(quick=True)
    assert len(generations) == runs
    assert len(set(generations)) == runs
    # A second run builds its own data: the memo is not process-global.
    module.run(quick=True)
    assert len(generations) == 2 * runs


def test_shared_columns_are_read_only():
    data = common.tpch_per_seed(common.BenchConfig(quick=True), 10.0)(42)
    for table in data.tables:
        for name in table.column_names:
            column = table.column(name).data
            assert not column.flags.writeable
            with pytest.raises(ValueError):
                column[:1] = column[:1]


def test_same_seed_same_instance_distinct_seeds_distinct():
    tpch = common.tpch_per_seed(common.BenchConfig(quick=True), 0.01)
    assert tpch(1) is tpch(1)
    assert tpch(2) is not tpch(1)
    np.testing.assert_array_equal(
        tpch(1).orders.column("o_orderkey").data,
        common.generate_tpch(0.01, seed=1).orders.column("o_orderkey").data,
    )


def test_racing_threads_share_one_instance():
    # Repetition threads ask for distinct seeds; even if several ever asked
    # for the same one at once, every caller must get the same dataset.
    tpch = common.tpch_per_seed(common.BenchConfig(quick=True), 0.01)
    got = []
    barrier = threading.Barrier(8)

    def worker():
        barrier.wait(timeout=10)
        got.append(tpch(5))

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(previous)
    assert not any(thread.is_alive() for thread in threads)
    assert len(got) == 8
    assert all(data is got[0] for data in got)
    assert tpch(5) is got[0]
