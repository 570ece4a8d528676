"""BENCH_engine: wall-clock simulated-queries/sec of the serving engine.

Three arms over the same wl01-scale serving pass (see
:mod:`repro.bench.enginebench`): ``serial-cold`` with the profile memo
disabled, ``serial-warm`` from a primed memo, and ``jobs2-warm`` across
two spawned workers sharing one disk memo tier.  Each serial arm is the
median of ``ROUNDS`` passes.  The bench asserts the engine's two
load-bearing claims — the warm pass is byte-identical to the cold pass,
and at least ``MIN_WARM_SPEEDUP`` faster — and persists the trajectory
to ``benchmarks/results/BENCH_engine.json`` for CI's regression gate.
"""

from __future__ import annotations

import pytest

from repro.bench.enginebench import (
    engine_pass,
    median_pass,
    run_jobs_arm,
    scoreboard_entries,
)
from repro.cache import ProfileMemo, use_profile_memo

#: Passes per serial arm; each arm reports its median pass.
ROUNDS = 5

#: Floor on the warm arm's speedup over the cold arm on a wl01-scale
#: serving pass.  Once cold pricing no longer walks degenerate hash
#: chains, the memo buys 3.3-5.7x (medians of ROUNDS passes on a 2-vCPU
#: Xeon VM); the floor leaves room for slower, noisier runners.
MIN_WARM_SPEEDUP = 2.5


def test_engine_speed(benchmark, engine_scoreboard, tmp_path):
    memo_dir = tmp_path / "profiles"

    # Arm 1: serial-cold — every pass re-prices through the operators.
    with use_profile_memo(None):
        cold = median_pass(ROUNDS)

    # Arm 2: serial-warm — prime the memo (also fills the disk tier the
    # jobs arm below shares), then measure the memoized pass.
    memo = ProfileMemo(memo_dir)
    with use_profile_memo(memo):
        engine_pass()  # priming pass
        warm = benchmark.pedantic(
            median_pass, args=(ROUNDS,), rounds=1, iterations=1
        )

    # The memo is a pure wall-clock optimization: the warm pass must
    # reproduce the cold pass exactly, and must actually have hit.
    assert warm.completed == cold.completed
    assert warm.p99_ms == cold.p99_ms
    assert memo.hits > 0
    assert warm.simulated_qps >= MIN_WARM_SPEEDUP * cold.simulated_qps, (
        f"warm arm {warm.simulated_qps:.0f} qps is under "
        f"{MIN_WARM_SPEEDUP}x the cold arm's {cold.simulated_qps:.0f} qps"
    )

    # Arm 3: jobs2-warm — two concurrent passes in spawned interpreters
    # over the disk tier primed above (the --jobs N execution shape).
    jobs_completed, jobs_wall_s, outcomes = run_jobs_arm(str(memo_dir), workers=2)
    for worker_completed, _, worker_p99_ms in outcomes:
        assert worker_completed == cold.completed
        assert worker_p99_ms == cold.p99_ms

    merged = engine_scoreboard(
        "engine", scoreboard_entries(cold, warm, jobs_completed, jobs_wall_s)
    )
    arms = {entry["arm"]: entry for entry in merged}
    print()
    for arm in ("serial-cold", "serial-warm", "jobs2-warm"):
        entry = arms[arm]
        print(
            f"{arm:12s} {entry['simulated_qps']:>9.1f} simulated qps  "
            f"({entry['wall_s']:.3f} s, {entry['queries']} queries, "
            f"{entry['speedup_vs_cold']:.2f}x vs cold)"
        )
