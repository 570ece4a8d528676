"""Cross-build byte pin: serving CSVs and traces under every session flag.

The determinism gates compare runs of *one* build with each other, so a
change that moves every arm consistently passes all of them.  This test
pins the sha256 of the CSV and the JSON-lines trace of a few cheap cases
— one per session setting — in ``tests/digests.json``, so a refactor that
moves any byte fails here.  A deliberate re-bless rewrites that file from
the digests this test prints on mismatch.

The committed ``benchmarks/results/<id>.csv`` of every registry experiment
must hash to its pin too (``digests.json`` for the default-flag serving and
extension cases, ``paper_digests.json`` for the paper experiments), so a
stale copy fails here instead of drifting unnoticed.
"""

from __future__ import annotations

import hashlib
import json
import pathlib

import pytest

from repro.bench.parallel import run_session
from repro.bench.registry import EXPERIMENTS
from repro.cli import build_parser, run_config

HERE = pathlib.Path(__file__).parent
DIGESTS = json.loads((HERE / "digests.json").read_text())
PAPER_DIGESTS = json.loads((HERE / "paper_digests.json").read_text())
RESULTS = HERE.parent / "benchmarks" / "results"


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("case", sorted(DIGESTS), ids=str)
def test_pinned_digests(case):
    args = build_parser().parse_args(case.split())
    session = run_session(
        args.experiments, traced=True, base_seed=args.seed, run=run_config(args)
    )
    run = session.runs[0]
    actual = {
        "csv": _sha(run.report.to_csv()),
        "trace_jsonl": _sha(run.trace_jsonl),
    }
    assert actual == DIGESTS[case], (
        f"{case!r} moved; actual digests: {json.dumps(actual)}"
    )


@pytest.mark.parametrize("experiment_id", sorted(EXPERIMENTS))
def test_committed_results_match_pins(experiment_id):
    pin = PAPER_DIGESTS.get(experiment_id) or DIGESTS[experiment_id]["csv"]
    text = (RESULTS / f"{experiment_id}.csv").read_text()
    # The benchmark fixtures write ``report.to_csv()`` plus a final newline.
    assert text.endswith("\n")
    assert _sha(text[:-1]) == pin, (
        f"benchmarks/results/{experiment_id}.csv is stale; regenerate it"
    )
