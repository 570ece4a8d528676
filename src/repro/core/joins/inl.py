"""INL — the Index Nested Loop join over an existing B+-tree (Sec. 4, join 4).

For every probe tuple the join descends a pre-built B+-tree index on the
build relation.  The upper tree levels stay cache-resident; the lower
levels cause dependent DRAM reads, so INL is latency-bound and slow in
absolute terms, but — because a pointer descent is inherently serial
already — it loses comparatively little inside the enclave (Fig. 3 shows a
~3x speedup over CrkJoin, the smallest of the non-SGXv1 joins).
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.joins.base import JoinAlgorithm, JoinResult
from repro.core.structures.btree import BPlusTree
from repro.machine import ExecutionContext
from repro.memory.access import AccessBatch, AccessProfile, CodeVariant, PatternKind
from repro.tables.generator import JOIN_TUPLE_BYTES
from repro.tables.table import Table

#: Cycles per visited cache-resident level (compare + next-child compute).
_LEVEL_COMPUTE = 9.0
#: Loop-body cycles around each probe lookup.
_PROBE_COMPUTE = 6.0


class IndexNestedLoopJoin(JoinAlgorithm):
    """Per-probe B+-tree lookups against the build side's index."""

    name = "INL"

    def __init__(self, variant: CodeVariant = CodeVariant.NAIVE, fanout: int = 16):
        super().__init__(variant)
        self.fanout = fanout

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
        # The index exists before the join (the paper's INL uses "an
        # existing B-Tree index"), so building it is not charged.
        tree = BPlusTree(build["key"], build["payload"], self.fanout)
        leaf_positions, hit_mask = tree.lookup(probe["key"])
        matches = int(hit_mask.sum())
        # Map leaf positions back to original build rows via the bulk-load
        # sort order for materialization.
        build_index = np.full(len(probe["key"]), -1, dtype=np.int64)
        matched = np.flatnonzero(hit_mask)
        build_index[matched] = tree.order[leaf_positions[matched]]

        # ---- cost ---------------------------------------------------------
        # Index footprint scales with the *logical* build side.
        logical_index_bytes = tree.footprint_bytes * max(build.sim_scale, 1.0)
        ctx.allocate("inl-index", int(logical_index_bytes))
        # Levels whose aggregate size fits in (half of) L3 stay hot; deeper
        # levels miss to DRAM on every lookup.
        logical_height = max(
            1, math.ceil(math.log(max(build.logical_rows, 2), self.fanout))
        )
        l3 = ctx.machine.spec.l3.capacity_bytes / 2
        # Level sizes from the leaf upward; a level is hot when it fits in
        # the cache budget together with everything above it.
        level_bytes = [
            build.logical_rows / (self.fanout**depth) * 12.0
            for depth in range(logical_height)
        ]
        cached_levels = 0
        budget = l3
        for size in reversed(level_bytes):  # smallest (root) first
            if size > budget:
                break
            budget -= size
            cached_levels += 1
        dram_levels = logical_height - cached_levels

        probe_share = self.split_rows(probe.logical_rows, threads)
        profile = AccessProfile()
        # Cache-resident part of each descent.
        profile.compute(
            probe_share * (cached_levels * _LEVEL_COMPUTE + _PROBE_COMPUTE),
            label="descent-cached",
        )
        if dram_levels:
            profile.add(
                AccessBatch(
                    kind=PatternKind.DEPENDENT_READ,
                    count=probe_share * dram_levels,
                    element_bytes=64,
                    working_set_bytes=logical_index_bytes,
                    locality=locality,
                    variant=self.variant,
                    parallelism=1.0,
                    compute_cycles_per_item=_LEVEL_COMPUTE,
                    label="descent-dram",
                )
            )
        # Streaming read of the probe input.
        profile.seq_read(
            probe_share, JOIN_TUPLE_BYTES, locality,
            working_set_bytes=probe.logical_bytes, label="probe-scan"
        )
        output = None
        if materialize:
            output = self.materialize_output(
                ctx,
                build,
                probe,
                build_index,
                hit_mask,
                profile,
                sim_scale=probe.sim_scale,
            )
        executor.run_uniform_phase("probe", profile)

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
