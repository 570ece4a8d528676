"""Determinism gate: one flag set, three runs, byte-compared.

Usage::

    PYTHONPATH=src python scripts/determinism_gate.py \\
        EXPERIMENTS... -- FLAGS... [--same-as FLAGS...] [--differs-from FLAGS...]

Runs ``sgxv2-bench EXPERIMENTS FLAGS`` three times: serially, with
``--jobs 2 --cache DIR``, and once more over the now-warm cache.  Every
experiment's CSV and JSON-lines trace must be byte-identical across the
three, and the warm run must be served entirely from the cache.  Two or
more experiments send the ``--jobs`` run through the spawned worker pool.

``--same-as FLAGS`` also runs the experiments serially under those flags
and requires the same CSV and trace bytes (an explicit default must change
nothing).  ``--differs-from FLAGS`` requires at least one experiment's CSV
to differ (the flag set must have an effect).  Either list may be empty:
``--differs-from`` alone compares against the unflagged run.  Exits 1
naming every failed check.
"""

from __future__ import annotations

import pathlib
import re
import subprocess
import sys
import tempfile
from typing import Dict, List, Optional, Tuple

_CACHE_LINE = re.compile(r"^cache: (\d+) hits, (\d+) misses", re.M)


def _split(argv: List[str]):
    """``(experiments, flags, same_as, differs_from)`` from the command line."""
    if "--" not in argv or argv.index("--") == 0:
        raise SystemExit("usage: determinism_gate.py EXPERIMENTS... -- FLAGS...")
    cut = argv.index("--")
    sections: Dict[str, Optional[List[str]]] = {
        "--": [], "--same-as": None, "--differs-from": None,
    }
    current = "--"
    for token in argv[cut + 1:]:
        if token in sections:
            current = token
            sections[current] = []
        else:
            sections[current].append(token)
    return (
        argv[:cut], sections["--"], sections["--same-as"],
        sections["--differs-from"],
    )


def _run(experiments, flags, target: pathlib.Path, *extra) -> str:
    """One CLI run writing CSVs and traces into ``target``; its stdout."""
    command = [
        sys.executable, "-m", "repro.cli", *experiments, *flags, *extra,
        "--csv", str(target), "--trace", str(target),
    ]
    print("$", " ".join(command[1:]), flush=True)
    done = subprocess.run(command, capture_output=True, text=True)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"run failed with exit {done.returncode}")
    return done.stdout


def _show(flags) -> str:
    return " ".join(flags) or "(no flags)"


def _artifacts(target: pathlib.Path, experiments) -> Dict[str, bytes]:
    return {
        name: (target / name).read_bytes()
        for experiment in experiments
        for name in (f"{experiment}.csv", f"{experiment}.trace.jsonl")
    }


def main(argv: Optional[List[str]] = None) -> int:
    experiments, flags, same_as, differs_from = _split(
        sys.argv[1:] if argv is None else argv
    )
    checks: List[Tuple[bool, str]] = []
    with tempfile.TemporaryDirectory(prefix="determinism-gate-") as scratch:
        out = pathlib.Path(scratch)
        cache = ("--jobs", "2", "--cache", str(out / "cache"))
        _run(experiments, flags, out / "serial")
        _run(experiments, flags, out / "jobs", *cache)
        warm_stdout = _run(experiments, flags, out / "warm", *cache)
        serial = _artifacts(out / "serial", experiments)
        for label in ("jobs", "warm"):
            other = _artifacts(out / label, experiments)
            checks += [
                (serial[name] == other[name], f"{name}: serial == {label}")
                for name in serial
            ]
        hits = _CACHE_LINE.search(warm_stdout)
        checks.append((
            hits is not None and int(hits.group(2)) == 0,
            "warm run replays every experiment from the cache",
        ))
        if same_as is not None:
            _run(experiments, same_as, out / "same")
            same = _artifacts(out / "same", experiments)
            checks += [
                (serial[name] == same[name],
                 f"{name}: {_show(flags)} == {_show(same_as)}")
                for name in serial
            ]
        if differs_from is not None:
            _run(experiments, differs_from, out / "differs")
            differs = _artifacts(out / "differs", experiments)
            changed = [
                name for name in serial
                if name.endswith(".csv") and serial[name] != differs[name]
            ]
            checks.append((
                bool(changed),
                f"{_show(flags)} != {_show(differs_from)} "
                f"(changed: {', '.join(changed) or 'nothing'})",
            ))
    for ok, what in checks:
        print(f"  {'ok  ' if ok else 'FAIL'} {what}")
    failed = sum(not ok for ok, _ in checks)
    print(f"{len(checks) - failed}/{len(checks)} checks passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
