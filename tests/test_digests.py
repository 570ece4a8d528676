"""Cross-build byte pin: serving CSVs and traces under every session flag.

The determinism gates compare runs of *one* build with each other, so a
change that moves every arm consistently passes all of them.  This test
pins the sha256 of the CSV and the JSON-lines trace of a few cheap cases
— one per session setting — in ``tests/digests.json``, so a refactor that
moves any byte fails here.  A deliberate re-bless rewrites that file from
the digests this test prints on mismatch.
"""

from __future__ import annotations

import hashlib
import json
import pathlib

import pytest

from repro.bench.parallel import run_session
from repro.cli import build_parser, run_config

DIGESTS = json.loads(
    (pathlib.Path(__file__).with_name("digests.json")).read_text()
)


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
