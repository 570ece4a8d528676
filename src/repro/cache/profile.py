"""The per-query profile memo: one in-process dict of priced runs.

The experiment cache (:func:`~repro.cache.keys.experiment_key` +
:class:`~repro.cache.store.MemoStore`) replays whole experiments; this
module memoizes one level below it — the individual *pricing runs* the
serving stack performs through the real operators.  Three call sites
feed it, each through :meth:`ProfileMemo.get_or_price`:

* :meth:`repro.workload.jobs.JobCatalog._price` — a catalog prices every
  template once per setting (and once per planner candidate), executing
  the operators for real.
* :func:`repro.planner.costing.estimate_candidate` — the planner prices
  every candidate of every template, and a clustered run builds one
  planner *per shard* (wl06: eight shards, eight identical enumerations).
* :func:`repro.rewrite.race.estimate_rewrite` — the rewrite race prices
  every proved rewrite of a TPC-H template.

Each is a pure function of ``(template, candidate, setting, stand-in
caps, pricing seed, calibration digest)`` — exactly what
:func:`~repro.cache.keys.query_profile_key` hashes — so the memo turns
repeat pricing into a dictionary lookup without changing a single
produced number.

Determinism contract: the memo stores the priced value itself, so a hit
returns exactly what the miss returned, and pricing runs are *silent*
(they execute under a ``NullTracer``), so experiment artifacts cannot
depend on whether the operators ran or the memo answered.  Hit/miss
counters surface only in the session trace
(``bench.memo.hits``/``bench.memo.misses``), the one documented
non-deterministic artifact.

The default memo is process-global and lives as long as the process;
``with use_profile_memo(ProfileMemo())`` scopes a fresh one.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, TypeVar

T = TypeVar("T")


class ProfileMemo:
    """Priced values by profile key, with hit/miss counters."""

    def __init__(self) -> None:
        self._values: Dict[str, Any] = {}
        self.hits = 0
        self.misses = 0

    def get_or_price(self, key: str, price: Callable[[], T]) -> T:
        """The value stored under ``key``, or ``price()`` stored there."""
        try:
            value = self._values[key]
        except KeyError:
            self.misses += 1
            value = self._values[key] = price()
            return value
        self.hits += 1
        return value


#: The ambient memo.  Module-global like the tracer: pricing happens deep
#: inside operators' callers, and threading a memo argument through every
#: catalog/planner constructor would contaminate every signature.
_ACTIVE = ProfileMemo()


def profile_memo() -> ProfileMemo:
    """The memo pricing runs consult."""
    return _ACTIVE


@contextmanager
def use_profile_memo(memo: ProfileMemo) -> Iterator[ProfileMemo]:
    """Scope ``memo`` as the ambient profile memo.

    Scopes nest and always restore, so a failed run cannot leak its memo
    into the rest of the process.
    """
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = memo
    try:
        yield memo
    finally:
        _ACTIVE = previous
