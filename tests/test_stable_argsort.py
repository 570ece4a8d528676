"""Differential tests: the composite-key sort against numpy's stable argsort.

:func:`~repro.core.order.stable_argsort` packs ``(key - min) << bits | row``
into int64 and sorts once; it must return, element for element, the
permutation ``np.argsort(kind="stable")`` returns, on every integer width
and on the inputs that fall back to it.  The oracles below are the
kernels the hash table and the B+-tree ran before they used it.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.order import stable_argsort
from repro.core.structures.btree import BPlusTree
from repro.core.structures.hashtable import _KNUTH_MULTIPLIER, ChainedHashTable

INTEGER_DTYPES = [
    np.int8, np.int16, np.int32, np.int64,
    np.uint8, np.uint16, np.uint32, np.uint64,
    np.bool_,
]

int64_keys = st.integers(min_value=-(2**63), max_value=2**63 - 1)


def _assert_stable_order(keys) -> None:
    keys = np.asarray(keys)
    assert np.array_equal(stable_argsort(keys), np.argsort(keys, kind="stable"))


@pytest.fixture
def argsort_calls(monkeypatch):
    """Count calls of ``np.argsort``, which only the fallback makes."""
    calls = []
    real = np.argsort

    def spy(*args, **kwargs):
        calls.append(kwargs.get("kind"))
        return real(*args, **kwargs)

    monkeypatch.setattr(np, "argsort", spy)
    return calls


class TestStableArgsort:
    @pytest.mark.parametrize("dtype", INTEGER_DTYPES, ids=lambda d: np.dtype(d).name)
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_equals_numpy_on_every_width(self, dtype, data):
        keys = data.draw(hnp.arrays(dtype, st.integers(min_value=0, max_value=300)))
        _assert_stable_order(keys)

    @pytest.mark.parametrize("dtype", INTEGER_DTYPES, ids=lambda d: np.dtype(d).name)
    @given(data=st.data())
    @settings(max_examples=20, deadline=None)
    def test_few_distinct_keys_keep_row_order(self, dtype, data):
        # Many ties: the row index alone orders most of the words.
        pool = data.draw(hnp.arrays(dtype, st.integers(min_value=1, max_value=3)))
        rows = data.draw(st.lists(st.integers(0, len(pool) - 1), max_size=300))
        _assert_stable_order(pool[np.asarray(rows, dtype=np.int64)])

    @given(keys=st.lists(int64_keys, max_size=200))
    @settings(max_examples=80, deadline=None)
    def test_equals_numpy_on_int64_lists(self, keys):
        _assert_stable_order(np.asarray(keys, dtype=np.int64))

    def test_negative_keys(self):
        keys = np.array([-3, 7, -3, -(2**40), 0, 7, -1], dtype=np.int64)
        assert stable_argsort(keys).tolist() == [3, 0, 2, 6, 4, 1, 5]
        _assert_stable_order(keys)

    @pytest.mark.parametrize("value", [0, -5, 2**62, -(2**63), 2**63 - 1])
    def test_all_equal_keys_are_the_identity(self, value):
        keys = np.full(1000, value, dtype=np.int64)
        assert np.array_equal(stable_argsort(keys), np.arange(1000))

    @pytest.mark.parametrize("dtype", INTEGER_DTYPES, ids=lambda d: np.dtype(d).name)
    @pytest.mark.parametrize("n", [0, 1])
    def test_empty_and_single(self, dtype, n):
        keys = np.ones(n, dtype=dtype)
        result = stable_argsort(keys)
        assert result.tolist() == list(range(n))
        assert result.dtype == np.argsort(keys, kind="stable").dtype

    def test_result_dtype_matches_numpy(self):
        keys = np.array([3, 1, 2], dtype=np.int32)
        assert stable_argsort(keys).dtype == np.argsort(keys, kind="stable").dtype

    def test_input_is_not_modified(self):
        keys = np.array([5, -2, 5, 0], dtype=np.int64)
        stable_argsort(keys)
        assert keys.tolist() == [5, -2, 5, 0]

    def test_full_range_int64_falls_back(self, argsort_calls):
        keys = np.array([2**63 - 1, -(2**63), 0, 2**63 - 1, -(2**63)], dtype=np.int64)
        assert stable_argsort(keys).tolist() == [1, 4, 2, 0, 3]
        assert argsort_calls == ["stable"]

    def test_full_range_uint64_falls_back(self, argsort_calls):
        keys = np.array([2**64 - 1, 0, 2**64 - 1, 1], dtype=np.uint64)
        assert stable_argsort(keys).tolist() == [1, 3, 0, 2]
        assert argsort_calls == ["stable"]

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_floats_fall_back(self, dtype, argsort_calls):
        keys = np.array([0.5, -1.0, 0.5, np.nan, -0.0, 0.0], dtype=dtype)
        _assert_stable_order(keys)
        assert "stable" in argsort_calls

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 1000, 1025])
    @pytest.mark.parametrize("over", [0, 1], ids=["packs", "falls-back"])
    @pytest.mark.parametrize("dtype, base", [
        (np.int64, -(2**62)),
        (np.int64, 2**63 - 2**62),
        (np.uint64, 2**64 - 2**62),
    ])
    def test_span_at_the_packing_limit(self, n, over, dtype, base, argsort_calls):
        # The largest span that packs is 2**(63 - bits) - 1.
        bits = (n - 1).bit_length()
        span = (1 << (63 - bits)) - 1 + over
        if base + span >= 1 << (64 if dtype == np.uint64 else 63):
            base -= span
        rng = np.random.default_rng(n)
        keys = np.array(
            [base + span, base] + [base + int(o) for o in rng.integers(0, 3, n - 2)],
            dtype=dtype,
        )
        keys = keys[rng.permutation(n)]
        _assert_stable_order(keys)
        packed = argsort_calls.count("stable") == 1  # the oracle's own call
        assert packed == (over == 0)


def chained_build_oracle(table: ChainedHashTable):
    """The former ``_build``: ``np.argsort`` of the copied hash buckets."""
    hashed = table.keys.astype(np.uint64) * _KNUTH_MULTIPLIER
    buckets = (hashed & table._mask).astype(np.int64)
    heads = np.full(table.num_buckets, -1, dtype=np.int64)
    links = np.full(len(table.keys), -1, dtype=np.int64)
    if len(buckets):
        order = np.argsort(buckets, kind="stable")
        sorted_buckets = buckets[order]
        same_bucket = sorted_buckets[1:] == sorted_buckets[:-1]
        links[order[1:][same_bucket]] = order[:-1][same_bucket]
        run_ends = np.flatnonzero(
            np.r_[sorted_buckets[1:] != sorted_buckets[:-1], True]
        )
        heads[sorted_buckets[run_ends]] = order[run_ends]
    return heads, links, buckets


class TestChainedBuild:
    @given(
        keys=st.lists(int64_keys, max_size=300),
        load_factor=st.sampled_from([0.25, 1.0, 4.0, 64.0]),
    )
    @settings(max_examples=80, deadline=None)
    def test_heads_and_links_equal_the_argsort_oracle(self, keys, load_factor):
        keys = np.asarray(keys + keys[: len(keys) // 3], dtype=np.int64)
        table = ChainedHashTable(keys, np.arange(len(keys)), load_factor)
        heads, links, buckets = chained_build_oracle(table)
        assert np.array_equal(table.heads, heads)
        assert np.array_equal(table.links, links)
        assert np.array_equal(table._hash(keys), buckets)
        assert table._hash(keys).dtype == np.int64

    @pytest.mark.parametrize("dtype", [np.int32, np.uint32, np.int64, np.uint64])
    def test_hash_matches_the_copying_hash(self, dtype):
        keys = np.array([0, 1, 7, 2**31 - 1, 12345], dtype=dtype)
        table = ChainedHashTable(keys, np.arange(len(keys)), load_factor=0.01)
        _, _, buckets = chained_build_oracle(table)
        assert np.array_equal(table._hash(keys), buckets)
        assert keys.tolist() == [0, 1, 7, 2**31 - 1, 12345]


class TestBPlusTreeLookup:
    @given(
        build=st.lists(int64_keys, unique=True, max_size=300),
        extra=st.lists(int64_keys, max_size=100),
        fanout=st.sampled_from([2, 4, 16]),
        data=st.data(),
    )
    @settings(max_examples=80, deadline=None)
    def test_positions_equal_a_plain_searchsorted(self, build, extra, fanout, data):
        keys = np.asarray(build, dtype=np.int64)
        tree = BPlusTree(keys, np.arange(len(keys)), fanout)
        assert np.array_equal(tree.order, np.argsort(keys, kind="stable"))
        pool = build + extra
        probe = np.asarray(
            data.draw(st.lists(st.sampled_from(pool), max_size=200)) if pool else [],
            dtype=np.int64,
        )
        positions, hits = tree.lookup(probe)
        if not len(keys):
            assert not hits.any()
            return
        plain = np.clip(
            np.searchsorted(tree.leaf_keys, probe, side="left"), 0, len(keys) - 1
        )
        plain_hits = tree.leaf_keys[plain] == probe
        assert np.array_equal(hits, plain_hits)
        assert np.array_equal(positions, np.where(plain_hits, plain, -1))
        assert np.array_equal(keys[tree.order[positions[hits]]], probe[hits])
