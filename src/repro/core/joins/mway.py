"""MWAY — the multi-way sort-merge join of Kim et al. (Sec. 4, join 3).

Both inputs are sorted (cache-sized runs, then one multi-way merge using
bitonic merge networks) and joined in a single co-scan.  The access pattern
is almost entirely sequential, so MWAY shows only a small in-enclave
reduction in Fig. 3 — the price it pays instead is the high computational
cost of sorting, which keeps its absolute throughput below the hash joins.
"""

from __future__ import annotations

import numpy as np

from repro.core.joins.base import JoinAlgorithm, JoinResult
from repro.core.order import stable_argsort
from repro.machine import ExecutionContext
from repro.memory.access import AccessBatch, AccessProfile, CodeVariant, PatternKind
from repro.tables.generator import JOIN_TUPLE_BYTES
from repro.tables.table import Table

#: Per-tuple cycles of the run-sort stage (AVX bitonic sorting networks).
_SORT_RUN_COMPUTE = 52.0
#: Per-tuple cycles of the multi-way merge stage.
_MERGE_COMPUTE = 34.0
#: Per-tuple cycles of the final merge-join co-scan.
_JOIN_COMPUTE = 12.0

#: Sorting networks and the merge loop have abundant ILP; the enclave
#: reordering restriction barely bites (MWAY is nearly unaffected in
#: Fig. 3).
_SORT_SENSITIVITY = 0.1
_JOIN_SENSITIVITY = 0.1


class SortMergeJoin(JoinAlgorithm):
    """Sort both inputs, then merge-join them in one pass."""

    name = "MWAY"

    def _sort_profile(self, ctx: ExecutionContext, table: Table) -> AccessProfile:
        """Per-thread cost of sorting one input: run sort + one merge pass."""
        locality = ctx.data_locality
        share = self.split_rows(table.logical_rows, ctx.threads)
        profile = AccessProfile()
        # Run generation: stream in, sort in cache, stream out.
        profile.add(
            AccessBatch(
                kind=PatternKind.RMW_LOOP,
                count=share,
                element_bytes=JOIN_TUPLE_BYTES,
                working_set_bytes=table.logical_bytes,
                locality=locality,
                variant=CodeVariant.SIMD,
                parallelism=8.0,
                compute_cycles_per_item=_SORT_RUN_COMPUTE,
                table_bytes=256 * 1024.0,  # the in-cache run being sorted
                table_locality=locality,
                table_writes=True,
                reorder_sensitivity=_SORT_SENSITIVITY,
                label="sort-runs",
            )
        )
        profile.seq_write(share, JOIN_TUPLE_BYTES, locality,
                          working_set_bytes=table.logical_bytes,
                          label="runs-out")
        # Multi-way merge: stream all runs in, merged output out.
        profile.add(
            AccessBatch(
                kind=PatternKind.RMW_LOOP,
                count=share,
                element_bytes=JOIN_TUPLE_BYTES,
                working_set_bytes=table.logical_bytes,
                locality=locality,
                variant=CodeVariant.SIMD,
                parallelism=8.0,
                compute_cycles_per_item=_MERGE_COMPUTE,
                table_bytes=512 * 1024.0,  # merge tree state
                table_locality=locality,
                table_writes=True,
                reorder_sensitivity=_SORT_SENSITIVITY,
                label="multiway-merge",
            )
        )
        profile.seq_write(share, JOIN_TUPLE_BYTES, locality,
                          working_set_bytes=table.logical_bytes,
                          label="merge-out")
        return profile

    def _execute(
        self,
        ctx: ExecutionContext,
        build: Table,
        probe: Table,
        materialize: bool,
    ) -> JoinResult:
        executor = ctx.executor()
        locality = ctx.data_locality
        threads = ctx.threads

        # ---- real computation -------------------------------------------
        build_order = stable_argsort(build["key"])
        probe_order = stable_argsort(probe["key"])
        sorted_build_keys = build["key"][build_order]
        sorted_probe_keys = probe["key"][probe_order]
        positions = np.searchsorted(sorted_build_keys, sorted_probe_keys)
        positions = np.clip(positions, 0, len(sorted_build_keys) - 1)
        hits_sorted = sorted_build_keys[positions] == sorted_probe_keys
        # Map hits back to original probe row order for materialization.
        build_index = np.full(len(probe["key"]), -1, dtype=np.int64)
        matched_sorted = np.flatnonzero(hits_sorted)
        build_index[probe_order[matched_sorted]] = build_order[
            positions[matched_sorted]
        ]
        hit_mask = build_index >= 0
        matches = int(hits_sorted.sum())

        # Sort scratch: out-of-place runs + merge output for both inputs.
        ctx.allocate(
            "mway-scratch", int(build.logical_bytes + probe.logical_bytes)
        )

        # ---- cost ---------------------------------------------------------
        executor.run_uniform_phase("sort-build", self._sort_profile(ctx, build))
        executor.run_uniform_phase("sort-probe", self._sort_profile(ctx, probe))

        join_profile = AccessProfile()
        join_share = self.split_rows(
            build.logical_rows + probe.logical_rows, threads
        )
        join_profile.add(
            AccessBatch(
                kind=PatternKind.RMW_LOOP,
                count=join_share,
                element_bytes=JOIN_TUPLE_BYTES,
                working_set_bytes=build.logical_bytes + probe.logical_bytes,
                locality=locality,
                variant=CodeVariant.SIMD,
                parallelism=8.0,
                compute_cycles_per_item=_JOIN_COMPUTE,
                table_bytes=64 * 1024.0,  # co-scan cursors and compare state
                table_locality=locality,
                table_writes=False,
                reorder_sensitivity=_JOIN_SENSITIVITY,
                label="merge-join",
            )
        )
        output = None
        if materialize:
            output = self.materialize_output(
                ctx,
                build,
                probe,
                build_index,
                hit_mask,
                join_profile,
                sim_scale=probe.sim_scale,
            )
        executor.run_uniform_phase("join", join_profile)

        return JoinResult(
            algorithm=self.name,
            setting=ctx.setting.label,
            variant=self.variant,
            threads=threads,
            build_rows=build.logical_rows,
            probe_rows=probe.logical_rows,
            matches=matches,
            matches_logical=matches * probe.sim_scale,
            cycles=executor.total_cycles(),
            phase_cycles=executor.trace.breakdown(),
            output=output,
            match_index=build_index,
        )
