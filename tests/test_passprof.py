"""The pass profiler (`tools/passprof.py`): it runs a workload's invocation
list in process, prints a time for each subcommand and each timed
function, with the cell rendering inside `_write_table` as an "of which"
line, the cold start of fresh interpreters and the minor page faults of
the best pass, and leaves the modules it times as it found them."""

import importlib.util
import os
import re
from pathlib import Path
from unittest import mock

import hartogs.cli

TOOL = Path(__file__).resolve().parent.parent / "tools" / "passprof.py"
spec = importlib.util.spec_from_file_location("passprof", TOOL)
passprof = importlib.util.module_from_spec(spec)
# the tool pins BLAS threads in its own environment; keep this one's
with mock.patch.dict(os.environ):
    spec.loader.exec_module(passprof)


def profile_pass(capsys, workload):
    """The printed times of a two-pass profile of `workload` at seed 1,
    by name, after checking that every timed function is restored."""
    before = {name: getattr(module, name) for name, module in passprof.PATCHED.items()}
    assert passprof.main([workload, "1", "--repeats", "2"]) == 0
    out = capsys.readouterr().out
    # the cold start, three positive times, and the faults of the best
    # pass, a count and the last line
    cold = re.fullmatch(r"cold start, best of 2 fresh interpreters, ms: numpy (\d+\.\d{3}), "
                        r"hartogs\.cli (\d+\.\d{3}), build_parser (\d+\.\d{3})",
                        out.splitlines()[-2])
    assert cold and all(float(ms) > 0.0 for ms in cold.groups())
    assert re.fullmatch(r"minor page faults of the best pass: \d+", out.splitlines()[-1])
    assert {name: getattr(module, name) for name, module in passprof.PATCHED.items()} == before
    return {name: float(t) for name, t
            in re.findall(r"^  (?:  of which )?(\S+) +(\d+\.\d{3})", out, re.M)}


def test_highdim_pass(capsys):
    times = profile_pass(capsys, "highdim")
    assert set(times) == {"extremal-residual", "levi-scan", "check-pseudoconvex", "pass",
                          *passprof.PATCHED}
    for name in ("sample_interior", "sample_boundary", "parse_args"):
        assert 0.0 < times[name] < times["pass"]
    for name in ("_write_table", "_render_cells", "metric_fd_oracle", "ricci_fd_oracle",
                 "extremal_jet_oracle", "inverse_metric_matrix"):
        assert times[name] == 0.0


def test_verify_pass(capsys):
    # the CLI's parse_args is timed, which reads every benchmark argv from
    # an option table, and so are the three oracles of verify-theorems and
    # the closed-form inverse, which only its checks form
    times = profile_pass(capsys, "verify")
    assert set(times) == {"verify-theorems", "soliton-check", "pass", *passprof.PATCHED}
    for name in ("sample_interior", "parse_args", "metric_fd_oracle", "ricci_fd_oracle",
                 "extremal_jet_oracle", "inverse_metric_matrix"):
        assert 0.0 < times[name] < times["pass"]
    assert sum(times[name] for name in passprof.TIMED) < times["pass"]
    assert times["sample_boundary"] == times["_write_table"] == times["_render_cells"] == 0.0


def test_scan_pass(capsys):
    # scan writes four CSVs a pass: rendering the cells is part of the
    # write, and the write part of the pass
    times = profile_pass(capsys, "scan")
    assert set(times) == {"curvature-scan", "extremal-residual", "pass", *passprof.PATCHED}
    assert 0.0 < times["_render_cells"] < times["_write_table"] < times["pass"]
    assert sum(times[name] for name in passprof.TIMED) < times["pass"]
