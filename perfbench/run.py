"""Wall-clock benchmark of the ``repro`` package: four workloads, two modes.

Run from the repository root::

    python3 perfbench/run.py --workload serve-single --seed 1 --seconds 10 --trace 0

A run repeats *rounds* of one workload until ``--seconds`` have passed.
Each round starts from fresh process state (a new in-memory profile memo,
an empty rewrite-proof memo, a new catalog and engine, its own temp dir),
as a fresh CLI invocation would, then:

1. sets up (catalog construction and template pricing) — ``setup_s`` is
   the median import time of the package over fresh interpreters plus the
   median round set-up time;
2. runs the measured phase — ``wall_s`` is its median over the rounds;
3. checks every output (untimed).

Times are reported in reference seconds (see ``calibrate.py``); the raw
wall times are printed beside them.  With ``--trace 1`` rounds alternate
untraced and traced; the traced ones patch the layer boundaries listed in
``spans.py`` and report per-layer metrics, plus the traced/untraced wall
ratio.  Every round of a run must produce the same simulated-output
digest, traced or not.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  The lines before it
print the same metrics for a reader, plus ``sim_qps`` and ``error_rate``.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import pathlib
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from typing import Dict, List, Optional, Tuple

import calibrate  # this script's own directory

ROOT = pathlib.Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_build" / "perfbench"


def _unit(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_share")):
        return "fraction"
    if name.endswith("_bytes"):
        return "bytes"
    if name == "bench.tracing_overhead":
        return "ratio"
    return "count"


def _parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("paper-figures", "serve-single", "serve-cluster", "plan-tpch"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _import_package() -> None:
    """Import ``repro`` from this checkout's ``src`` (never an installed copy)."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no package source at {src / 'repro'}; run from a full checkout")
    WORK.mkdir(parents=True, exist_ok=True)
    # Cache bytecode under WORK in every environment, so import time is
    # the same whether or not the caller disabled bytecode writing.
    sys.pycache_prefix = str(WORK / "pycache")
    sys.dont_write_bytecode = False
    sys.path.insert(0, str(src))
    import repro

    if pathlib.Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        sys.exit(f"perfbench: imported repro from {repro.__file__}, not {src}")


#: Fresh interpreters whose import time is measured; ``setup_s`` takes
#: their median, as one import per process is too noisy alone.
IMPORT_SAMPLES = 5

_IMPORT_PROBE = """
import sys, time
start = time.perf_counter()
sys.pycache_prefix, sys.dont_write_bytecode = sys.argv[1], False
sys.path[:0] = sys.argv[2:]
import workloads
print(time.perf_counter() - start)
"""


def _import_times() -> List[float]:
    """Seconds a fresh interpreter takes to import the workloads (and so
    the package), once per :data:`IMPORT_SAMPLES` child process."""
    command = [sys.executable, "-c", _IMPORT_PROBE, str(WORK / "pycache"),
               str(ROOT / "src"), str(pathlib.Path(__file__).resolve().parent)]
    times = []
    for _ in range(IMPORT_SAMPLES):
        done = subprocess.run(command, capture_output=True, text=True, timeout=60,
                              check=True)
        times.append(float(done.stdout.split()[-1]))
    return times


def _peak_rss_mb() -> float:
    """High-water resident set size of this process."""
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclasses.dataclass
class Round:
    traced: bool
    #: Calibrator marks: before set-up, after set-up, after the measured phase.
    marks: Tuple[Tuple[float, float], ...]
    setup_raw_s: float
    wall_raw_s: float
    calls: int
    sim_queries: int = 0
    digest: str = ""
    errors: List[str] = dataclasses.field(default_factory=list)
    layers: Dict[str, float] = dataclasses.field(default_factory=dict)
    unpatched: List[str] = dataclasses.field(default_factory=list)
    #: Reference seconds, filled in at the end of the run.
    setup_s: float = 0.0
    wall_s: float = 0.0


def _run_round(workload, index: int, traced: bool, calibrator: calibrate.Calibrator,
               spans_path: pathlib.Path) -> Round:
    from repro.cache.profile import ProfileMemo, use_profile_memo
    from repro.rewrite import prove

    import spans
    import workloads

    # Fresh process state: a user's CLI invocation starts with an empty
    # profile memo and an empty rewrite-proof memo.
    getattr(prove, "_MEMO", {}).clear()
    memo = ProfileMemo()
    recorder = spans.SpanRecorder(f"{workload.name}-{workload.seed}-r{index}") \
        if traced else spans.NullRecorder()
    scratch = pathlib.Path(tempfile.mkdtemp(prefix="round-", dir=WORK))
    # Traced rounds run without the calibration timer, so no span holds
    # kernel samples.
    if traced:
        calibrator.stop()
    try:
        with use_profile_memo(memo), \
                (spans.patched(recorder) if traced else contextlib.nullcontext()):
            m0 = calibrator.mark()
            with recorder.span("bench.setup"):
                state = workload.setup()
            m1 = calibrator.mark()
            with recorder.span("bench.measure"):
                outcome = workload.measure(state, scratch, recorder)
            m2 = calibrator.mark()
        result = Round(
            traced=traced, marks=(m0, m1, m2), setup_raw_s=calibrator.raw(m0, m1),
            wall_raw_s=calibrator.raw(m1, m2), calls=outcome.calls,
            sim_queries=outcome.sim_queries, digest=workloads.digest(outcome.outputs),
        )
        result.errors = workload.verify(state, outcome)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        if traced:
            calibrator.start()
    if traced:
        result.errors += recorder.errors
        recorder.counts.update(outcome.counts)
        recorder.counts["memo_hits"] = memo.hits
        recorder.counts["memo_misses"] = memo.misses
        result.layers = spans.layer_metrics(recorder, m2[0] - m0[0])
        result.unpatched = recorder.unpatched
        recorder.write_jsonl(spans_path)
    return result


def _metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": value, "unit": unit}


def main(argv: Optional[List[str]] = None) -> int:
    calibrator = calibrate.Calibrator()
    calibrator.start()
    try:
        return _main(argv, calibrator)
    finally:
        calibrator.stop()


def _main(argv: Optional[List[str]], calibrator: calibrate.Calibrator) -> int:
    args = _parse_args(argv)
    _import_package()
    import workloads

    import_times = _import_times()
    workload = workloads.WORKLOADS[args.workload](args.seed)
    spans_path = WORK / f"spans-{args.workload}.jsonl"
    spans_path.unlink(missing_ok=True)

    rounds: List[Round] = []
    attempted = failed = 0
    errors: List[str] = []
    deadline = time.perf_counter() + args.seconds
    while True:
        traced = bool(args.trace) and len(rounds) % 2 == 1
        try:
            result = _run_round(workload, len(rounds), traced, calibrator, spans_path)
        except Exception:  # a raised call is a failed call, not a crash
            attempted += 1
            failed += 1
            errors.append(traceback.format_exc())
            break
        rounds.append(result)
        attempted += result.calls
        if result.errors:
            failed += result.calls
            errors += result.errors
            break
        if rounds[0].digest != result.digest:
            failed += result.calls
            errors.append(
                f"round {len(rounds) - 1} ({'traced' if traced else 'untraced'}) "
                f"digest {result.digest[:16]} != round 0 digest {rounds[0].digest[:16]}"
            )
            break
        enough = not args.trace or any(r.traced for r in rounds)
        if enough and time.perf_counter() >= deadline:
            break

    correct = not errors
    metrics: Dict[str, Dict[str, object]] = {}
    import_raw_s = statistics.median(import_times)
    import_s = calibrator.at_run_speed(import_raw_s)
    for r in rounds:
        if not r.traced:
            r.setup_s = calibrator.reference(r.marks[0], r.marks[1])
            r.wall_s = calibrator.reference(r.marks[1], r.marks[2])
    untraced = [r for r in rounds if not r.traced]
    traced_rounds = [r for r in rounds if r.traced]
    if correct and args.trace:
        for name in traced_rounds[0].layers:
            value = statistics.median(r.layers[name] for r in traced_rounds)
            metrics[name] = _metric(value, _unit(name))
        ratio = (
            statistics.median(r.setup_raw_s + r.wall_raw_s for r in traced_rounds)
            / statistics.median(r.setup_raw_s + r.wall_raw_s for r in untraced)
        )
        metrics["bench.tracing_overhead"] = _metric(ratio, "ratio")
    elif correct:
        metrics["setup_s"] = _metric(
            import_s + statistics.median(r.setup_s for r in untraced), "s")
        metrics["wall_s"] = _metric(statistics.median(r.wall_s for r in untraced), "s")
        metrics["peak_rss_mb"] = _metric(_peak_rss_mb(), "MB")

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(untraced)} untraced + {len(traced_rounds)} traced rounds, "
          f"digest {rounds[0].digest[:16] if rounds else '-'}")
    print(f"  imports (median of {len(import_times)} processes): "
          f"{import_raw_s:.4f} s raw, {import_s:.4f} reference s")
    for index, r in enumerate(rounds):
        if r.traced:
            print(f"  round {index} traced   setup {r.setup_raw_s:.4f} s raw, "
                  f"measured {r.wall_raw_s:.4f} s raw")
        else:
            print(f"  round {index} untraced setup {r.setup_raw_s:.4f} s raw "
                  f"({r.setup_s:.4f} ref), measured {r.wall_raw_s:.4f} s raw "
                  f"({r.wall_s:.4f} ref)")
    for error in errors:
        print(f"  CHECK FAILED: {error.rstrip()}")
    for name, entry in metrics.items():
        print(f"  {name:<28} {entry['value']:>14.6g} {entry['unit']}")
    if correct and not args.trace:
        raw_wall = statistics.median(r.wall_raw_s for r in untraced)
        raw_setup = import_raw_s + statistics.median(r.setup_raw_s for r in untraced)
        print(f"  {'setup_s (raw)':<28} {raw_setup:>14.6g} s")
        print(f"  {'wall_s (raw)':<28} {raw_wall:>14.6g} s")
        if untraced[0].sim_queries:
            print(f"  {'sim_qps':<28} {untraced[0].sim_queries / raw_wall:>14.6g} "
                  "simulated queries / raw wall-s")
    print(f"  {'error_rate':<28} {failed / max(attempted, 1):>14.6g} fraction")
    if correct and args.trace:
        for kind in ("self", "entry"):
            shares = {k: v["value"] for k, v in metrics.items() if k.endswith(f".{kind}_share")}
            top = max(shares, key=shares.get)
            print(f"  top {kind}-time layer: {top.split('.')[0]} ({shares[top]:.1%})")
        print(f"  spans written to {spans_path.relative_to(ROOT)}")
        for target in traced_rounds[0].unpatched:
            print(f"  layer boundary not found, not traced: {target}")
    print(json.dumps({
        "correct": correct,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
