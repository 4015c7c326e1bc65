"""The output census (`tools/census.py`): its save and compare modes on a
tiny grid, and its digests, which hash what the save mode writes."""

import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

import hartogs.curvature

TOOL = Path(__file__).resolve().parent.parent / "tools" / "census.py"
spec = importlib.util.spec_from_file_location("census", TOOL)
census = importlib.util.module_from_spec(spec)
spec.loader.exec_module(census)


@pytest.fixture(autouse=True)
def tiny_grid(monkeypatch):
    """2 profiles at n = 2, seed 0 and 20 samples: 18 runs."""
    monkeypatch.setattr(census, "PROFILES", ("affine:1,1", "rational"))
    monkeypatch.setattr(census, "DIMENSIONS", (2,))
    monkeypatch.setattr(census, "SEEDS", (0,))
    monkeypatch.setattr(census, "SAMPLES", 20)


def test_tree_against_itself(tmp_path, capsys):
    census.save(str(tmp_path / "old"))
    census.save(str(tmp_path / "new"))
    capsys.readouterr()
    assert census.compare(str(tmp_path / "old"), str(tmp_path / "new")) == 0
    out = capsys.readouterr().out
    assert "18 -> 18 runs; 0 changes of exit code, verdict or text" in out
    rows = [line.split("\t") for line in out.splitlines()[2:]]
    assert rows and all(row[2] == "0" for row in rows)
    rho = "rho_closed_vs_fit worst rel [#] (tol #)"
    assert ["verify-theorems", rho, "0", "4", "0", "0"] in rows
    assert ["curvature-scan", "csv:extremal_res", "0", "40", "0", "0"] in rows


def test_doctored_oracle_flips_a_verdict(tmp_path, capsys, monkeypatch):
    census.save(str(tmp_path / "old"))
    original = hartogs.curvature.rho_oracle
    monkeypatch.setattr(hartogs.curvature, "rho_oracle", lambda m, ric: 1.001 * original(m, ric))
    census.save(str(tmp_path / "new"))
    capsys.readouterr()
    assert census.compare(str(tmp_path / "old"), str(tmp_path / "new")) == 1
    out = capsys.readouterr().out
    run = "verify-theorems --profile rational --n 2 --seed 0 --samples 20"
    assert f"exit code 0 -> 1: {run}" in out
    assert any(line.startswith("verdict ") and line.endswith(f": {run}")
               for line in out.splitlines())
    # the changed rho_closed_vs_fit line is a change of text, not a number
    assert f"stdout text 'PASS  rho_closed_vs_fit" in out


def test_numeric_change_is_counted(tmp_path, capsys):
    census.save(str(tmp_path / "old"))
    runs = (tmp_path / "old" / "runs.jsonl").read_text().splitlines()
    records = [json.loads(line) for line in runs]
    moved = []
    for r in records:
        if r["run"].startswith("extremal-residual") and r["csv"]:
            header, first, *rest = r["csv"].split("\n")
            cells = first.split(",")
            old = float(cells[-1])
            cells[-1] = repr(old * (1 + 1e-12))
            moved.append(abs(float(cells[-1]) - old))
            r["csv"] = "\n".join([header, ",".join(cells), *rest])
    (tmp_path / "new").mkdir()
    (tmp_path / "new" / "runs.jsonl").write_text("".join(json.dumps(r) + "\n" for r in records))
    capsys.readouterr()
    assert census.compare(str(tmp_path / "old"), str(tmp_path / "new")) == 0
    rows = [line.split("\t") for line in capsys.readouterr().out.splitlines()[2:]]
    row = next(r for r in rows if r[:2] == ["extremal-residual", "csv:extremal_res"])
    # one changed cell in each of the two extremal-residual CSVs, rational's
    # nonzero, by 1e-12 of itself
    assert row[2] == "2" and float(row[4]) > 0
    assert float(row[5]) == pytest.approx(max(moved), rel=1e-2) and max(moved) > 0


def test_digests_hash_the_saved_runs(tmp_path, capsys):
    census.census()
    lines = capsys.readouterr().out.splitlines()
    census.save(str(tmp_path))
    records = [json.loads(line) for line in (tmp_path / "runs.jsonl").read_text().splitlines()]
    assert len(lines) == len(records) + 1
    total = hashlib.sha256()
    for line, r in zip(lines, records):
        h = hashlib.sha256()
        for part in (str(r["code"]), r["stdout"], r["stderr"]):
            h.update(part.encode() + b"\0")
        if r["csv"] is not None:
            h.update(r["csv"].encode())
        assert line == f"{h.hexdigest()}  {r['run']}"
        total.update(line.encode() + b"\n")
    assert lines[-1] == f"{total.hexdigest()}  total"
