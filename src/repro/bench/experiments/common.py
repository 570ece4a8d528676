"""Shared plumbing for the experiment modules.

All experiments run against a fresh :class:`~repro.machine.SimMachine` per
measurement (so EPC accounting starts clean) and use the paper's canonical
workload sizes; ``quick`` mode shrinks the *physical* data and repetition
count, never the logical sizes the cost model prices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional

from repro.bench.runner import PAPER_REPETITIONS, RunStats, repeat_runs
from repro.enclave.runtime import ExecutionSetting
from repro.machine import SimMachine
from repro.tables import TpchData, generate_tpch

#: The paper's canonical join inputs (Sec. 4): 100 MB build, 400 MB probe.
BUILD_BYTES = 100e6
PROBE_BYTES = 400e6

#: Threads per socket on the testbed.
SOCKET_THREADS = 16

#: Physical row caps for the two fidelity modes.
QUICK_ROW_CAP = 200_000
FULL_ROW_CAP = 1_000_000

QUICK_RUNS = 3


@dataclass(frozen=True)
class BenchConfig:
    """Fidelity knobs shared by all experiments."""

    quick: bool = True

    @property
    def runs(self) -> int:
        return QUICK_RUNS if self.quick else PAPER_REPETITIONS

    @property
    def row_cap(self) -> int:
        return QUICK_ROW_CAP if self.quick else FULL_ROW_CAP

    @property
    def tpch_sf_cap(self) -> float:
        return 0.02 if self.quick else 0.1


def make_machine(machine: Optional[SimMachine]) -> SimMachine:
    """Use the provided machine's spec/params, but fresh state per call."""
    if machine is None:
        return SimMachine()
    return SimMachine(machine.spec, machine.params)


def measure_stats(
    measure: Callable[[int], float], config: BenchConfig
) -> RunStats:
    """Repeat ``measure`` per the paper's protocol (mean ± std)."""
    return repeat_runs(measure, runs=config.runs)


def tpch_per_seed(
    config: BenchConfig, scale_factor: float
) -> Callable[[int], TpchData]:
    """Return ``seed -> TpchData`` that generates each seed's dataset once.

    The paper generates its TPC-H database once and times every query
    against it; here every (query, case) cell of one repetition seed reads
    the same dataset.  The memo lives in the returned function, so it dies
    with the experiment's ``run()`` call: nothing is shared across runs.  It
    holds ``config.runs`` datasets at once.

    Every column is made read-only before it is shared, so an operator that
    writes into its input raises ``ValueError`` instead of changing the next
    cell's result.
    """
    memo: Dict[int, TpchData] = {}

    def data_for(seed: int) -> TpchData:
        data = memo.get(seed)
        if data is None:
            data = generate_tpch(
                scale_factor, seed=seed, physical_sf_cap=config.tpch_sf_cap
            )
            for table in data.tables:
                for name in table.column_names:
                    table.column(name).data.flags.writeable = False
            # Repetition threads ask for distinct seeds; setdefault still
            # hands every caller one instance should two ever race.
            data = memo.setdefault(seed, data)
        return data

    return data_for


def mrows(rows_per_second: float) -> float:
    """Convert rows/s to the paper's M rows/s axis unit."""
    return rows_per_second / 1e6


def gb_per_s(bytes_per_second: float) -> float:
    """Convert B/s to the paper's GB/s axis unit."""
    return bytes_per_second / 1e9


SETTING_PLAIN = ExecutionSetting.plain_cpu()
SETTING_SGX_IN = ExecutionSetting.sgx_data_in_enclave()
SETTING_SGX_OUT = ExecutionSetting.sgx_data_outside_enclave()
