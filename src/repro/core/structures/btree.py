"""A cache-line-conscious B+-tree (the index behind the INL join).

Nodes hold up to ``fanout`` keys; inner levels store separator keys and the
leaf level stores (key, payload).  The tree is bulk-loaded from sorted data
— exactly how a database would maintain the "existing B-Tree index" the
paper's Index Nested Loop join assumes — and lookups descend one level at a
time.  All levels are numpy arrays, so batched lookups are vectorized while
remaining semantically level-by-level descents.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.core.order import stable_argsort
from repro.errors import ConfigurationError

#: Keys per node: 16 x 4-byte keys fill one cache line, the layout the
#: paper's hardware-conscious baselines use.
DEFAULT_FANOUT = 16

#: Modelled bytes per key slot (key + child pointer / payload).
SLOT_BYTES = 12


class BPlusTree:
    """Bulk-loaded B+-tree over unique keys with vectorized lookups."""

    def __init__(self, keys: np.ndarray, payloads: np.ndarray, fanout: int = DEFAULT_FANOUT):
        if fanout < 2:
            raise ConfigurationError("fanout must be at least 2")
        keys = np.asarray(keys)
        payloads = np.asarray(payloads)
        if len(keys) != len(payloads):
            raise ConfigurationError("keys and payloads must have equal length")
        #: Input row of each leaf slot (the bulk-load sort order).
        self.order = stable_argsort(keys)
        self.leaf_keys = keys[self.order]
        self.leaf_payloads = payloads[self.order]
        if len(self.leaf_keys) > 1 and (np.diff(self.leaf_keys) == 0).any():
            raise ConfigurationError("B+-tree requires unique keys")
        self.fanout = fanout
        #: Inner levels, root first; each is the array of *first keys* of
        #: the child groups of the level below.
        self.inner_levels: List[np.ndarray] = []
        level = self.leaf_keys
        while len(level) > fanout:
            level = level[::fanout]
            self.inner_levels.append(level)
        self.inner_levels.reverse()

    # -- geometry ---------------------------------------------------------

    @property
    def height(self) -> int:
        """Number of levels including the leaf level."""
        return len(self.inner_levels) + 1

    @property
    def num_keys(self) -> int:
        return len(self.leaf_keys)

    @property
    def footprint_bytes(self) -> int:
        """Modelled index size in the C layout."""
        total = len(self.leaf_keys)
        for level in self.inner_levels:
            total += len(level)
        return total * SLOT_BYTES

    # -- lookups ------------------------------------------------------------

    def lookup(self, probe_keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Positions and hit mask for a batch of keys.

        Descends level by level: at each inner level the child group is
        narrowed with a (vectorized) binary search within the current
        group's slots, mirroring a pointer descent.  Returns leaf positions
        (into the bulk-loaded order) and a boolean hit mask.
        """
        probe_keys = np.asarray(probe_keys)
        if self.num_keys == 0:
            return (
                np.full(len(probe_keys), -1, dtype=np.int64),
                np.zeros(len(probe_keys), dtype=bool),
            )
        # Each inner level i narrows the candidate group; because level i
        # holds every fanout-th key of level i+1, a searchsorted on the
        # whole level equals the stepwise descent but stays vectorized.
        # Searching the probes in key order keeps consecutive searches in
        # nearby leaves; the positions are scattered back to probe order.
        probe_order = stable_argsort(probe_keys)
        positions = np.empty(len(probe_keys), dtype=np.int64)
        positions[probe_order] = np.searchsorted(
            self.leaf_keys, probe_keys[probe_order], side="left"
        )
        positions = np.clip(positions, 0, self.num_keys - 1)
        hits = self.leaf_keys[positions] == probe_keys
        positions = np.where(hits, positions, -1)
        return positions, hits

    def payloads_for(self, positions: np.ndarray) -> np.ndarray:
        """Payloads at previously looked-up positions (positions >= 0)."""
        if (np.asarray(positions) < 0).any():
            raise ConfigurationError("cannot fetch payloads for missed lookups")
        return self.leaf_payloads[positions]

    def cache_resident_levels(self, cache_bytes: float) -> int:
        """How many top levels fit in a cache of ``cache_bytes``.

        The INL cost profile uses this: upper levels are hot and hit in
        cache, only the lowest levels cause DRAM accesses.
        """
        remaining = cache_bytes
        resident = 0
        for level in self.inner_levels:
            size = len(level) * SLOT_BYTES
            if size > remaining:
                return resident
            remaining -= size
            resident += 1
        leaf_size = self.num_keys * SLOT_BYTES
        if leaf_size <= remaining:
            resident += 1
        return resident
