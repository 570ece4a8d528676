"""Parallel sort operator (the MWAY sort stage as a standalone primitive).

ORDER BY is the remaining staple of the OLAP operator set.  The cost
signature reuses what the MWAY join study established: sorting is
sequential-access and compute-heavy, so SGXv2 barely touches it — a useful
contrast to the hash-based operators.  The real work is a numpy sort whose
output is verified against the input's multiset.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.core.order import stable_argsort
from repro.errors import ConfigurationError
from repro.machine import ExecutionContext
from repro.memory.access import AccessBatch, AccessProfile, CodeVariant, PatternKind

#: Per-row cycles of the in-cache run sort (AVX bitonic networks).
_RUN_SORT_COMPUTE = 52.0
#: Per-row cycles of the multi-way merge of sorted runs.
_MERGE_COMPUTE = 34.0
#: Sorting kernels have abundant ILP (cf. MWAY in Fig. 3).
_REORDER_SENSITIVITY = 0.1


@dataclass
class SortResult:
    """Sorted data plus the simulated execution cost."""

    order: np.ndarray
    sorted_keys: np.ndarray
    input_rows: float
    cycles: float

    def throughput_rows_per_s(self, frequency_hz: float) -> float:
        if self.cycles <= 0:
            raise ConfigurationError("sort consumed no simulated time")
        return self.input_rows / (self.cycles / frequency_hz)


class ParallelSort:
    """Run-sort + multi-way merge over a key column, with row order out."""

    name = "parallel-sort"

    def __init__(self, row_bytes: int = 8) -> None:
        if row_bytes <= 0:
            raise ConfigurationError("row_bytes must be positive")
        self.row_bytes = row_bytes

    def run(
        self,
        ctx: ExecutionContext,
        keys: np.ndarray,
        *,
        sim_scale: float = 1.0,
        descending: bool = False,
    ) -> SortResult:
        """Sort ``keys`` (stable), returning the permutation and sorted keys."""
        keys = np.asarray(keys)
        if keys.ndim != 1:
            raise ConfigurationError("keys must be 1-dimensional")

        # ---- real computation -------------------------------------------
        order = stable_argsort(keys)
        if descending:
            order = order[::-1].copy()
        sorted_keys = keys[order]

        # ---- cost ---------------------------------------------------------
        executor = ctx.executor()
        locality = ctx.data_locality
        logical_rows = len(keys) * sim_scale
        logical_bytes = logical_rows * self.row_bytes
        ctx.allocate("sort-input", int(logical_bytes))
        ctx.allocate("sort-scratch", int(logical_bytes))
        share = logical_rows / ctx.threads
        for phase_name, compute in (
            ("run-sort", _RUN_SORT_COMPUTE),
            ("merge", _MERGE_COMPUTE),
        ):
            profile = AccessProfile()
            profile.add(
                AccessBatch(
                    kind=PatternKind.RMW_LOOP,
                    count=share,
                    element_bytes=self.row_bytes,
                    working_set_bytes=logical_bytes,
                    locality=locality,
                    variant=CodeVariant.SIMD,
                    parallelism=8.0,
                    compute_cycles_per_item=compute,
                    table_bytes=512 * 1024.0,  # run / merge-tree state
                    table_locality=locality,
                    table_writes=True,
                    reorder_sensitivity=_REORDER_SENSITIVITY,
                    label=phase_name,
                )
            )
            profile.seq_write(
                share,
                self.row_bytes,
                locality,
                working_set_bytes=logical_bytes,
                label=f"{phase_name}-out",
            )
            executor.run_uniform_phase(phase_name, profile)

        return SortResult(
            order=order,
            sorted_keys=sorted_keys,
            input_rows=logical_rows,
            cycles=executor.total_cycles(),
        )


class TopK:
    """``ORDER BY ... LIMIT k`` without a full sort (per-thread heaps).

    Each thread scans its share maintaining a ``k``-element heap; the heaps
    merge at the end.  For ``k`` far below the input size this is a nearly
    pure streaming operator — the cheapest possible shape for an enclave.
    """

    name = "top-k"

    def __init__(self, k: int, row_bytes: int = 8) -> None:
        if k <= 0:
            raise ConfigurationError("k must be positive")
        self.k = k
        self.row_bytes = row_bytes

    def run(
        self,
        ctx: ExecutionContext,
        keys: np.ndarray,
        *,
        sim_scale: float = 1.0,
        largest: bool = True,
    ) -> Tuple[np.ndarray, float]:
        """Indexes of the top-``k`` keys plus the simulated cycles."""
        keys = np.asarray(keys)
        k = min(self.k, len(keys))

        # ---- real computation -------------------------------------------
        if k == 0:
            top = np.empty(0, dtype=np.int64)
        elif largest:
            candidates = np.argpartition(keys, len(keys) - k)[-k:]
            top = candidates[np.argsort(keys[candidates], kind="stable")][::-1]
        else:
            candidates = np.argpartition(keys, k - 1)[:k]
            top = candidates[np.argsort(keys[candidates], kind="stable")]
        top = top.astype(np.int64)

        # ---- cost ---------------------------------------------------------
        executor = ctx.executor()
        locality = ctx.data_locality
        logical_rows = len(keys) * sim_scale
        logical_bytes = logical_rows * self.row_bytes
        ctx.allocate("topk-input", int(logical_bytes))
        share = logical_rows / ctx.threads
        profile = AccessProfile()
        # Streaming scan; heap updates are rare (expected k * ln(n/k) per
        # thread) and the heap itself is cache-resident.
        profile.seq_read(
            share,
            self.row_bytes,
            locality,
            working_set_bytes=logical_bytes,
            label="scan",
        )
        expected_updates = self.k * max(1.0, np.log(max(share / self.k, 2.0)))
        profile.compute(expected_updates * 30.0, label="heap-updates")
        executor.run_uniform_phase("topk", profile)
        return top, executor.total_cycles()
