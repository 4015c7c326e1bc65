"""The pass profiler (`tools/passprof.py`): it runs a workload's invocation
list in process, prints a time for each subcommand and each timed
function and the minor page faults of the best pass, and leaves the CLI
as it found it."""

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


def test_highdim_pass(capsys):
    before = {name: getattr(hartogs.cli, name) for name in passprof.TIMED[:3]}
    assert passprof.main(["highdim", "1", "--repeats", "2"]) == 0
    out = capsys.readouterr().out
    times = dict(re.findall(r"^  (\S+) +(\d+\.\d{3})", out, re.MULTILINE))
    assert set(times) == {"extremal-residual", "levi-scan", "check-pseudoconvex", "pass",
                          *passprof.TIMED}
    assert times["_write_table"] == "0.000"
    # the faults of the best pass, a count and the last line
    assert re.fullmatch(r"minor page faults of the best pass: \d+", out.splitlines()[-1])
    for name in ("sample_interior", "sample_boundary", "parse_args"):
        assert 0.0 < float(times[name]) < float(times["pass"])
    assert {name: getattr(hartogs.cli, name) for name in before} == before
    assert "parse_args" not in vars(hartogs.cli.build_parser())
