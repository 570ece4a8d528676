"""scripts/determinism_gate.py: argument split and one end-to-end run."""

from __future__ import annotations

import importlib.util
import pathlib
import tempfile

SCRIPT = pathlib.Path(__file__).parents[1] / "scripts" / "determinism_gate.py"
_spec = importlib.util.spec_from_file_location("determinism_gate", SCRIPT)
gate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gate)


def test_split_sections():
    experiments, flags, same_as, differs = gate._split(
        ["wl01", "tab01", "--", "--seed", "7", "--differs-from"]
    )
    assert experiments == ["wl01", "tab01"]
    assert flags == ["--seed", "7"]
    assert same_as is None and differs == []


def test_flag_without_effect_fails_the_gate(capsys, tmp_path, monkeypatch):
    # tab01 ignores fault plans: the byte checks hold, --same-as holds,
    # and --differs-from must fail.
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    assert gate.main(
        ["tab01", "--", "--faults", "chaos", "--same-as", "--differs-from"]
    ) == 1
    out = capsys.readouterr().out
    assert "ok   tab01.csv: serial == warm" in out
    assert "ok   tab01.trace.jsonl: --faults chaos == (no flags)" in out
    assert "FAIL --faults chaos != (no flags) (changed: nothing)" in out
    assert "7/8 checks passed" in out
