"""Random-write micro-benchmark (Sec. 4.1, Fig. 5 right).

The paper writes one billion 8-byte integers to positions produced by a
linear congruential generator and varies the array size.  We implement the
same LCG (Numerical Recipes constants) — it generates addresses for the
physically executed writes — and price the logical write count against the
cost model.  Inside an enclave, random DRAM writes pay read-for-ownership
plus encrypt-on-evict: 2x latency at 256 MB, nearly 3x at 8 GB.
"""

from __future__ import annotations

import numpy as np

from repro.core.micro.pointer_chase import MicroResult
from repro.errors import ConfigurationError
from repro.machine import ExecutionContext
from repro.memory.access import AccessBatch, AccessProfile, CodeVariant, PatternKind

_LCG_A = 6364136223846793005
_LCG_C = 1442695040888963407
_MASK64 = (1 << 64) - 1

#: Bytes per written element.
ELEMENT_BYTES = 8


class Lcg:
    """The 64-bit linear congruential generator of the paper's benchmark."""

    def __init__(self, seed: int = 88172645463325252) -> None:
        self.state = seed & _MASK64

    def next(self) -> int:
        """Advance one step and return the new state."""
        self.state = (_LCG_A * self.state + _LCG_C) & _MASK64
        return self.state

    def batch(self, count: int) -> np.ndarray:
        """``count`` successive states as a uint64 array.

        Uses the closed form x_{n+k} = a^k x_n + c (1 + a + ... + a^(k-1)),
        all mod 2^64: the powers of ``a`` are one ``cumprod`` and their
        prefix sums one ``cumsum``, both in wrapping uint64 arithmetic, so
        the states equal those of ``count`` calls to :meth:`next` bit for
        bit.
        """
        if count < 0:
            raise ConfigurationError("count must be non-negative")
        if count == 0:
            return np.empty(0, dtype=np.uint64)
        with np.errstate(over="ignore"):
            a_powers = np.cumprod(np.full(count, _LCG_A, dtype=np.uint64))
            geometric = np.concatenate((np.ones(1, dtype=np.uint64), a_powers[:-1]))
            c_terms = np.uint64(_LCG_C) * np.cumsum(geometric)
            states = a_powers * np.uint64(self.state) + c_terms
        self.state = int(states[-1])
        return states


class RandomWriteBenchmark:
    """Independent random 8-byte writes into an array of ``array_bytes``."""

    name = "random-write"

    def __init__(self, array_bytes: float, *, physical_cap_slots: int = 1 << 20):
        if array_bytes < ELEMENT_BYTES:
            raise ConfigurationError("array must hold at least one element")
        self.array_bytes = float(array_bytes)
        self.physical_slots = min(int(array_bytes // ELEMENT_BYTES), physical_cap_slots)

    def run(
        self,
        ctx: ExecutionContext,
        *,
        writes: float = 1e6,
        physical_writes: int = 100_000,
        variant: CodeVariant = CodeVariant.NAIVE,
        seed: int = 99,
    ) -> MicroResult:
        """Issue ``writes`` logical writes (a capped prefix runs for real)."""
        lcg = Lcg(seed)
        array = np.zeros(self.physical_slots, dtype=np.int64)
        n_physical = min(int(writes), physical_writes)
        addresses = lcg.batch(n_physical) % np.uint64(self.physical_slots)
        np.add.at(array, addresses.astype(np.int64), 1)
        checksum = int(array.sum())

        ctx.allocate("write-array", int(self.array_bytes))
        executor = ctx.executor()
        profile = AccessProfile()
        profile.add(
            AccessBatch(
                kind=PatternKind.RANDOM_WRITE,
                count=writes / ctx.threads,
                element_bytes=ELEMENT_BYTES,
                working_set_bytes=self.array_bytes,
                locality=ctx.data_locality,
                variant=variant,
                parallelism=8.0,
                compute_cycles_per_item=5.0,  # the LCG update itself
                label="lcg-writes",
            )
        )
        executor.run_uniform_phase("writes", profile)
        return MicroResult(
            name=self.name,
            setting=ctx.setting.label,
            operations=writes,
            cycles=executor.total_cycles(),
            checksum=checksum,
        )
