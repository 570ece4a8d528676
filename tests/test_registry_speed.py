"""scripts/registry_speed.py: one smoke run over two cheap experiments."""

from __future__ import annotations

import importlib.util
import json
import pathlib

import pytest

SCRIPT = pathlib.Path(__file__).parents[1] / "scripts" / "registry_speed.py"
_spec = importlib.util.spec_from_file_location("registry_speed", SCRIPT)
speed = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(speed)


def test_scoreboard_rows_table_and_json(capsys, tmp_path):
    out = tmp_path / "speed.json"
    assert speed.main(["tab01", "fig01", "--json", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["id", "wall_s", "heap_peak_mb", "rss_hwm_mb"]
    assert [line.split()[0] for line in lines[1:]] == ["fig01", "tab01", "total"]
    payload = json.loads(out.read_text())
    assert payload["quick"] is True
    rows = payload["experiments"]
    assert [row["id"] for row in rows] == ["tab01", "fig01"]
    for row in rows:
        assert row["wall_s"] > 0
        assert row["heap_peak_mb"] > 0
        assert row["rss_hwm_mb"] > 0
    # The high water is process-wide, so it never falls in run order.
    assert rows[1]["rss_hwm_mb"] >= rows[0]["rss_hwm_mb"]
    # fig01 generates join relations; tab01 only prints a table.
    assert rows[1]["heap_peak_mb"] > rows[0]["heap_peak_mb"]


def test_unknown_id_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        speed.main(["nope"])
    assert exc.value.code == 2
    assert "unknown experiment ids: nope" in capsys.readouterr().err
