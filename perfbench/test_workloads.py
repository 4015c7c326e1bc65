"""Tests of the benchmark's verdict checker and tracer.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import contextlib
import csv
import io
import math
import time

import pytest

import workloads
from hartogs.cli import main
from tracer import Tracer
from workloads import Invocation, Outcome, check, is_known


def run(argv) -> Outcome:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(list(argv))
    return Outcome(rc, out.getvalue(), err.getvalue())


@pytest.fixture
def affine_scan(tmp_path):
    """A real affine curvature-scan and its CSV."""
    inv = Invocation(("curvature-scan", "--profile", "affine:1,1", "--n", "2",
                      "--samples", "6", "--seed", "4", "--out", workloads.OUT))
    path = tmp_path / "scan.csv"
    outcome = run(str(path) if a == workloads.OUT else a for a in inv.argv)
    return inv, Outcome(outcome.rc, outcome.stdout, outcome.stderr, path.read_text("utf-8"))


def test_real_scan_passes(affine_scan):
    inv, outcome = affine_scan
    assert check(inv, outcome) is None


def test_affine_scal_one_ulp_off_fails(affine_scan):
    inv, outcome = affine_scan
    header, first, *rest = csv.reader(io.StringIO(outcome.csv_text, newline=""))
    col = header.index("scal")
    assert float(first[col]) == -6.0
    first[col] = repr(math.nextafter(-6.0, 0.0))
    buf = io.StringIO(newline="")
    csv.writer(buf, lineterminator="\n").writerows([header, first, *rest])
    doctored = buf.getvalue()
    problem = check(inv, Outcome(outcome.rc, outcome.stdout, outcome.stderr, doctored))
    assert problem is not None and "scal" in problem


def test_wrong_exit_code_fails(affine_scan):
    inv, outcome = affine_scan
    assert check(inv, Outcome(1, outcome.stdout, outcome.stderr, outcome.csv_text)) is not None


def test_exception_fails(affine_scan):
    inv, _ = affine_scan
    assert check(inv, Outcome(None, "", "Traceback ...")) is not None


def test_soliton_verdicts_and_known_rotation_defect():
    nonaffine = Invocation(("soliton-check", "--profile", "rational", "--n", "2",
                            "--samples", "10", "--seed", "3", "--sweep"))
    assert check(nonaffine, run(nonaffine.argv)) is None
    affine = Invocation(("soliton-check", "--profile", "affine:1,1", "--n", "2",
                         "--samples", "10", "--seed", "3", "--sweep"))
    assert check(affine, run(affine.argv)) is None

    rotation = Invocation(
        ("soliton-check", "--profile", "affine:1,1", "--n", "2", "--samples", "40",
         "--seed", "3", "--field", workloads.ROTATION_FIELD),
        workloads.ROTATION_DEFECT,
    )
    outcome = run(rotation.argv)
    problem = check(rotation, outcome)
    if problem is not None:  # the known defect: a Killing field fails its check
        assert is_known(rotation, outcome)
    # any other failure of the same invocation is not the known defect
    assert not is_known(rotation, Outcome(None, "", "Traceback ..."))


def test_extremal_max_must_be_exactly_zero_on_affine():
    inv = Invocation(("extremal-residual", "--profile", "affine:1,1", "--n", "3",
                      "--samples", "5", "--seed", "1"))
    outcome = run(inv.argv)
    assert check(inv, outcome) is None
    doctored = outcome.stdout.replace("max 0,", "max 1e-17,")
    assert check(inv, Outcome(0, doctored, "")) is not None


def test_build_is_seeded():
    for name in workloads.WORKLOADS:
        assert workloads.build(name, 7) == workloads.build(name, 7)
        assert workloads.build(name, 7) != workloads.build(name, 8)


def test_self_time_excludes_children():
    tracer = Tracer()

    def leaf():
        time.sleep(0.02)

    leaf = tracer.spanned("leaf", leaf)

    def outer():
        time.sleep(0.01)
        leaf()

    outer = tracer.spanned("outer", outer)
    with tracer.invocation("cli.root"):
        outer()
    layers = tracer.summary()["layers"]
    assert layers["leaf"]["self_s"] >= 0.02
    assert 0.01 <= layers["outer"]["self_s"] < layers["outer"]["total_s"] - 0.015
    assert [s[2] for s in tracer.spans] == [0, 0, 0]
