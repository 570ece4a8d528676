"""Registry scoreboard: wall time and memory of each experiment.

Usage::

    PYTHONPATH=src python scripts/registry_speed.py [IDS...] [--full] [--json FILE]

Runs every registry experiment (or the ids given) in quick mode, or in full
mode with ``--full``, one after another in this process, and prints one row
per experiment, slowest first:

* ``wall_s``: wall-clock seconds of ``run_experiment``, untraced.
* ``rss_hwm_mb``: the process's high-water resident set size after that run
  (``VmHWM`` from ``/proc/self/status``, else ``resource.getrusage``).  It
  is process-wide, so it never falls in run order; run one id alone to read
  that experiment's own peak.
* ``heap_peak_mb``: the peak of the memory ``tracemalloc`` traces (Python
  objects and numpy buffers) during a second, untimed run of the
  experiment.  tracemalloc slows Python code several-fold and keeps its own
  bookkeeping in memory, so every timed run comes first.

A diagnostic, not a gate: absolute seconds depend on the machine, so
compare two commits only with runs from one machine in one session.  The
script writes no CSV or trace file.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import tracemalloc
from typing import Dict, List, Optional


def rss_hwm_mb() -> float:
    """High-water resident set size of this process, in MB (KiB / 1024)."""
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # ru_maxrss is in KiB on Linux and in bytes on macOS.
    return peak / (1 << 20) if sys.platform == "darwin" else peak / 1024.0


def measure(ids: List[str], *, quick: bool = True) -> List[Dict[str, object]]:
    """One row per id, in run order: wall seconds, RSS high water, heap peak."""
    from repro.bench.registry import run_experiment

    rows: List[Dict[str, object]] = []
    for experiment_id in ids:
        start = time.perf_counter()
        run_experiment(experiment_id, quick=quick)
        wall_s = time.perf_counter() - start
        rows.append({
            "id": experiment_id,
            "wall_s": wall_s,
            "rss_hwm_mb": rss_hwm_mb(),
        })
    for row in rows:
        tracemalloc.start()
        try:
            run_experiment(row["id"], quick=quick)
            row["heap_peak_mb"] = tracemalloc.get_traced_memory()[1] / 1e6
        finally:
            tracemalloc.stop()
    return rows


def format_table(rows: List[Dict[str, object]]) -> str:
    """The rows slowest first, with a total line."""
    lines = [f"{'id':8s} {'wall_s':>8s} {'heap_peak_mb':>13s} {'rss_hwm_mb':>11s}"]
    for row in sorted(rows, key=lambda r: r["wall_s"], reverse=True):
        lines.append(
            f"{row['id']:8s} {row['wall_s']:8.2f} "
            f"{row['heap_peak_mb']:13.1f} {row['rss_hwm_mb']:11.1f}"
        )
    lines.append(f"{'total':8s} {sum(r['wall_s'] for r in rows):8.2f}")
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    from repro.bench.registry import EXPERIMENTS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("ids", nargs="*", help="registry ids (default: all)")
    parser.add_argument("--full", action="store_true",
                        help="full fidelity instead of quick mode")
    parser.add_argument("--json", metavar="FILE",
                        help="also write the rows as JSON to FILE")
    args = parser.parse_args(argv)
    ids = args.ids or sorted(EXPERIMENTS)
    unknown = [i for i in ids if i not in EXPERIMENTS]
    if unknown:
        parser.error(f"unknown experiment ids: {', '.join(unknown)}")
    rows = measure(ids, quick=not args.full)
    print(format_table(rows))
    if args.json:
        with open(args.json, "w", encoding="utf-8") as out:
            json.dump({"quick": not args.full, "experiments": rows}, out,
                      indent=2)
            out.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
