"""Micro-benchmarks: real-work verification plus cost anchors."""

import numpy as np
import pytest

from repro.core.micro import (
    HistogramBenchmark,
    Lcg,
    LinearAccessBenchmark,
    LinearOp,
    PointerChaseBenchmark,
    RandomWriteBenchmark,
    build_pointer_cycle,
)
from repro.core.micro.histogram import histogram_naive, histogram_unrolled
from repro.core.micro.pointer_chase import chase
from repro.enclave.runtime import ExecutionSetting
from repro.errors import ConfigurationError
from repro.machine import SimMachine
from repro.memory.access import CodeVariant

PLAIN = ExecutionSetting.plain_cpu()
SGX = ExecutionSetting.sgx_data_in_enclave()


def relative(bench_factory, run_kwargs=None):
    """plain cycles / sgx cycles for a micro-benchmark."""
    kwargs = run_kwargs or {}
    machine = SimMachine()
    with machine.context(PLAIN) as ctx:
        plain = bench_factory().run(ctx, **kwargs)
    machine = SimMachine()
    with machine.context(SGX) as ctx:
        sgx = bench_factory().run(ctx, **kwargs)
    return plain.cycles / sgx.cycles


class TestPointerCycle:
    def test_cycle_visits_every_slot(self, rng):
        chain = build_pointer_cycle(257, rng)
        seen = set()
        position = 0
        for _ in range(257):
            seen.add(position)
            position = int(chain[position])
        assert len(seen) == 257
        assert position == 0  # back at the start: one closed cycle

    def test_chase_helper(self, rng):
        chain = build_pointer_cycle(10, rng)
        assert chase(chain, 10) == 0  # full cycle returns home

    def test_single_slot(self, rng):
        chain = build_pointer_cycle(1, rng)
        assert chain[0] == 0

    def test_invalid_slots_rejected(self, rng):
        with pytest.raises(ConfigurationError):
            build_pointer_cycle(0, rng)


class TestPointerChaseBenchmark:
    def test_in_cache_no_penalty(self):
        rel = relative(lambda: PointerChaseBenchmark(1e6, physical_cap_slots=1 << 12))
        assert rel == pytest.approx(1.0)

    def test_16gb_hits_53_percent(self):
        rel = relative(lambda: PointerChaseBenchmark(16e9, physical_cap_slots=1 << 12))
        assert rel == pytest.approx(0.53, abs=0.02)

    def test_monotone_decline(self):
        rels = [
            relative(lambda s=s: PointerChaseBenchmark(s, physical_cap_slots=1 << 12))
            for s in (1e6, 256e6, 4e9, 16e9)
        ]
        assert all(a >= b - 1e-9 for a, b in zip(rels, rels[1:]))

    def test_too_small_array_rejected(self):
        with pytest.raises(ConfigurationError):
            PointerChaseBenchmark(4)


class TestLcg:
    def test_batch_matches_scalar(self):
        scalar = Lcg(seed=17)
        expected = [scalar.next() for _ in range(64)]
        batched = Lcg(seed=17)
        assert batched.batch(64).tolist() == expected

    @pytest.mark.parametrize("seed", [0, 1, 88172645463325252, 2**64 - 1])
    def test_closed_form_equals_the_scalar_loop(self, seed):
        # The powers of a and their sums wrap mod 2**64 thousands of times.
        scalar = Lcg(seed=seed)
        expected = [scalar.next() for _ in range(5000)]
        batched = Lcg(seed=seed)
        assert batched.batch(5000).tolist() == expected
        assert batched.state == scalar.state

    def test_batch_continues_state(self):
        lcg = Lcg(seed=5)
        first = lcg.batch(10)
        second = lcg.batch(10)
        reference = Lcg(seed=5)
        combined = reference.batch(20)
        assert np.array_equal(np.concatenate([first, second]), combined)

    def test_empty_batch(self):
        assert len(Lcg().batch(0)) == 0

    def test_negative_batch_rejected(self):
        with pytest.raises(ConfigurationError):
            Lcg().batch(-1)


class TestRandomWriteBenchmark:
    def test_writes_actually_happen(self, machine):
        bench = RandomWriteBenchmark(1e6, physical_cap_slots=1 << 10)
        with machine.context(PLAIN) as ctx:
            result = bench.run(ctx, writes=5000, physical_writes=5000)
        assert result.checksum == 5000  # every physical write counted

    def test_sgx_slowdown_at_256mb_near_2x(self):
        rel = relative(
            lambda: RandomWriteBenchmark(256e6, physical_cap_slots=1 << 10),
            {"writes": 1e6},
        )
        assert 1.6 < 1 / rel < 2.2  # Fig. 5: ~2x

    def test_sgx_slowdown_at_8gb_near_3x(self):
        rel = relative(
            lambda: RandomWriteBenchmark(8e9, physical_cap_slots=1 << 10),
            {"writes": 1e6},
        )
        assert 2.4 < 1 / rel < 3.2  # Fig. 5: ~3x

    def test_writes_worse_than_reads_at_same_size(self):
        write_rel = relative(
            lambda: RandomWriteBenchmark(8e9, physical_cap_slots=1 << 10),
            {"writes": 1e6},
        )
        read_rel = relative(
            lambda: PointerChaseBenchmark(8e9, physical_cap_slots=1 << 12)
        )
        assert write_rel < read_rel


class TestHistogramBenchmark:
    def test_unrolled_equals_naive_result(self, rng):
        keys = rng.integers(0, 1 << 20, 10_000)
        for bins in (16, 256, 4096):
            assert np.array_equal(
                histogram_naive(keys, bins), histogram_unrolled(keys, bins)
            )

    def test_histogram_counts_everything(self, rng):
        keys = rng.integers(0, 1 << 20, 999)
        assert histogram_naive(keys, 64).sum() == 999

    def test_non_power_of_two_bins_rejected(self, machine):
        bench = HistogramBenchmark(1e6, physical_cap_rows=1000)
        with machine.context(PLAIN) as ctx:
            with pytest.raises(ConfigurationError):
                bench.run(ctx, bins=100)

    def test_naive_enclave_penalty(self):
        rel = relative(
            lambda: HistogramBenchmark(100e6, physical_cap_rows=1000),
            {"bins": 1024, "variant": CodeVariant.NAIVE},
        )
        assert 1 / rel == pytest.approx(3.3, rel=0.05)  # Fig. 7

    def test_unrolled_enclave_penalty(self):
        rel = relative(
            lambda: HistogramBenchmark(100e6, physical_cap_rows=1000),
            {"bins": 1024, "variant": CodeVariant.UNROLLED},
        )
        assert 1 / rel == pytest.approx(1.22, rel=0.05)  # Fig. 7

    def test_penalty_same_for_data_outside(self):
        bench = HistogramBenchmark(100e6, physical_cap_rows=1000)
        machine = SimMachine()
        with machine.context(SGX) as ctx:
            inside = bench.run(ctx, bins=1024)
        machine = SimMachine()
        with machine.context(ExecutionSetting.sgx_data_outside_enclave()) as ctx:
            outside = bench.run(ctx, bins=1024)
        assert inside.cycles == pytest.approx(outside.cycles, rel=0.06)


class TestLinearAccessBenchmark:
    @pytest.mark.parametrize("op", list(LinearOp))
    def test_in_cache_no_penalty(self, op):
        rel = relative(
            lambda: LinearAccessBenchmark(1e6, physical_cap_bytes=1 << 16),
            {"op": op},
        )
        assert rel == pytest.approx(1.0)

    def test_out_of_cache_penalties_ordered(self):
        rels = {
            op: relative(
                lambda: LinearAccessBenchmark(8e9, physical_cap_bytes=1 << 16),
                {"op": op},
            )
            for op in LinearOp
        }
        # Fig. 15: 64-bit reads worst (-5.5 %), 512-bit reads -3 %, writes -2 %.
        assert rels[LinearOp.READ_64] == pytest.approx(0.948, abs=0.005)
        assert rels[LinearOp.READ_512] == pytest.approx(0.971, abs=0.005)
        assert rels[LinearOp.WRITE_64] == pytest.approx(0.98, abs=0.005)
        assert rels[LinearOp.READ_64] < rels[LinearOp.READ_512]

    def test_bandwidth_helper(self):
        machine = SimMachine()
        bench = LinearAccessBenchmark(1e9, physical_cap_bytes=1 << 16)
        with machine.context(PLAIN, threads=16) as ctx:
            result = bench.run(ctx, LinearOp.READ_512)
        bw = bench.bandwidth_bytes_per_s(result, LinearOp.READ_512, machine.frequency_hz)
        assert 0 < bw <= machine.spec.socket_stream_bandwidth_bytes() * 1.01
