import argparse
import csv
import dataclasses
import importlib
import math
import pkgutil
import re
import sys
from pathlib import Path

import numpy as np
import pytest

import hartogs
import hartogs.boundary
import hartogs.canonical
import hartogs.cli
import hartogs.curvature
import hartogs.metric
from hartogs.cli import fmt, main, run_verification
from hartogs.profiles import Affine, PowerCap

from conftest import FAMILY_IDS, PSEUDOCONVEX_FAMILIES

#: the `verify-theorems` checks on every profile, in order; affine profiles
#: add pullback_isometry
CHECK_NAMES = [
    "metric_vs_fd_hessian", "determinant_closed_vs_dense", "inverse_identity", "ricci_vs_fd",
    "ricci_tail_rows", "rho_closed_vs_fit", "scal_forms", "extremal_vs_fd",
    "extremal_classification", "einstein_classification",
]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def count_calls(monkeypatch, original):
    """Arguments of each call to `original`, through every binding of it in
    the package."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name == "hartogs" or name.startswith("hartogs."):
            for key, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, key, counted)
    return calls


@pytest.fixture
def assemble_calls(monkeypatch):
    return count_calls(monkeypatch, hartogs.metric.assemble_metric)


@pytest.mark.parametrize("margin", ["nan", "inf", "-0.5", "0"])
@pytest.mark.parametrize(
    "command", ["curvature-scan", "extremal-residual", "soliton-check", "verify-theorems"]
)
def test_min_margin_must_be_finite_positive(capsys, tmp_path, command, margin):
    argv = [command, "--profile", "affine:1,1", f"--min-margin={margin}"]
    if command == "curvature-scan":
        argv += ["--out", str(tmp_path / "x.csv")]
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert "finite positive" in err


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "command, option",
    [("check-pseudoconvex", "--tol"), ("levi-scan", "--tol"), ("soliton-check", "--tol"),
     ("soliton-check", "--lam")],
)
def test_tol_and_lam_must_be_finite(capsys, command, option, value):
    # a NaN tolerance failed every comparison, so a pseudoconvex domain
    # printed FAIL and exited 1
    code, _, err = run(capsys, command, "--profile", "rational", "--n", "3", "--samples", "5",
                       f"{option}={value}")
    assert code == 2
    assert "finite number" in err


@pytest.mark.parametrize(
    "profile",
    ["affine:inf,1", "affine:1,inf", "powercap:inf", "expdecay:-inf", "powercap:nan", "expdecay:0"],
)
@pytest.mark.parametrize(
    "command",
    ["check-pseudoconvex", "curvature-scan", "levi-scan", "extremal-residual", "soliton-check",
     "verify-theorems"],
)
def test_profile_parameters_must_be_finite_positive(capsys, tmp_path, command, profile):
    # affine:inf,1 printed `min margin inf ... -> PASS`; powercap:inf and
    # expdecay:inf died in a ZeroDivisionError
    out = tmp_path / "x.csv"
    argv = [command, "--profile", profile]
    if command in ("curvature-scan", "levi-scan", "extremal-residual"):
        argv += ["--out", str(out)]
    code, stdout, err = run(capsys, *argv)
    assert code == 2
    assert "usage error" in err
    assert stdout == ""
    assert not out.exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "argv",
    [
        ["levi-scan", "--profile", "powercap:1e308", "--n", "2", "--samples", "5"],
        ["check-pseudoconvex", "--profile", "affine:1e308,1e-308"],
        ["extremal-residual", "--profile", "affine:1e308,1e-308", "--samples", "5"],
        ["curvature-scan", "--profile", "affine:1e308,1e-308", "--n", "3", "--samples", "5",
         "--out", "{out}"],
        ["verify-theorems", "--profile", "affine:1e308,1e-308", "--n", "3", "--samples", "5"],
        ["soliton-check", "--profile", "affine:1e308,1e-308", "--n", "3", "--samples", "5",
         "--sweep"],
    ],
    ids=["levi-powercap", "check-affine", "extremal-affine", "scan-affine", "verify-affine",
         "sweep-affine"],
)
def test_extreme_finite_parameters_fail_without_traceback(capsys, tmp_path, argv):
    # a ZeroDivisionError or OverflowError escaped main; an exception that
    # escapes now fails this test, and so does a RuntimeWarning: an
    # overflow in the stacked kernel is one FloatingPointError
    argv = [str(tmp_path / "x.csv") if a == "{out}" else a for a in argv]
    code, _, err = run(capsys, *argv)
    assert code == 1
    assert all(line.startswith("error: ") for line in err.splitlines())
    assert len(err.splitlines()) <= 1


class TestCheckPseudoconvex:
    def test_affine_passes(self, capsys):
        code, out, _ = run(capsys, "check-pseudoconvex", "--profile", "affine:1,1")
        assert code == 0
        assert "min margin 1" in out
        assert "PASS" in out

    def test_expdecay_passes(self, capsys):
        code, out, _ = run(capsys, "check-pseudoconvex", "--profile", "expdecay:1")
        assert code == 0

    @pytest.mark.parametrize("profile", ["powercap:200", "powercap:800", "powercap:1e308"])
    def test_steep_powercap_passes(self, capsys, profile):
        # the margin p/(1-x)^2 in closed form; -(x F'/F)' divided by F^2,
        # which underflows to 0 at the top of the grid, x = 0.999
        code, out, err = run(capsys, "check-pseudoconvex", "--profile", profile)
        assert (code, err) == (0, "")
        p = float(profile.split(":")[1])
        assert f"min margin {p:.12g} at x=0 (tol 1e-09) -> PASS" in out

    def test_malformed_profile(self, capsys):
        code, _, err = run(capsys, "check-pseudoconvex", "--profile", "affine:1")
        assert code == 2
        assert "parameter" in err


class TestCurvatureScan:
    def test_deterministic_and_constant_scal(self, capsys, tmp_path):
        # over the whole range: affine scal is exactly -n(n+1) and both
        # residuals exactly 0 in every cell
        for profile in ("affine:1,1", "affine:2,3"):
            for n in range(2, 9):
                out1 = tmp_path / "a.csv"
                out2 = tmp_path / "b.csv"
                args = ["curvature-scan", "--profile", profile, "--n", str(n),
                        "--samples", "10", "--seed", "1"]
                assert run(capsys, *args, "--out", str(out1))[0] == 0
                assert run(capsys, *args, "--out", str(out2))[0] == 0
                assert out1.read_bytes() == out2.read_bytes()

                with out1.open(newline="") as fh:
                    rows = list(csv.DictReader(fh))
                assert len(rows) == 10
                assert all(row["scal"] == fmt(-n * (n + 1)) for row in rows), (profile, n)
                assert all(row["einstein_res"] == "0" for row in rows), (profile, n)
                assert all(row["extremal_res"] == "0" for row in rows), (profile, n)

    def test_block_boundary_keeps_rows(self, capsys, tmp_path):
        # the first BLOCK rows of a BLOCK + 1 sample scan, which takes two
        # stacked records, are those of the one-block scan byte for byte
        block = hartogs.metric.BLOCK
        lines = []
        for samples in (block, block + 1):
            out = tmp_path / f"s{samples}.csv"
            code, _, _ = run(capsys, "curvature-scan", "--profile", "powercap:2", "--n", "3",
                             "--samples", str(samples), "--seed", "7", "--out", str(out))
            assert code == 0
            lines.append(out.read_bytes().splitlines(keepends=True))
        assert len(lines[0]) == block + 1 and len(lines[1]) == block + 2
        assert lines[1][: block + 1] == lines[0]

    def test_cells_round_trip(self, capsys, tmp_path):
        out = tmp_path / "p.csv"
        run(capsys, "curvature-scan", "--profile", "powercap:2", "--n", "2",
            "--samples", "8", "--seed", "3", "--out", str(out))
        with out.open(newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            for row in reader:
                for cell in row[2:]:
                    # 17 significant digits reparse to the identical float
                    assert fmt(float(cell)) == cell

    def test_powercap_scal_varies(self, capsys, tmp_path):
        out = tmp_path / "p.csv"
        run(capsys, "curvature-scan", "--profile", "powercap:2", "--n", "2",
            "--samples", "10", "--seed", "1", "--out", str(out))
        with out.open(newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len({row["scal"] for row in rows}) > 1

    def test_one_assembly_per_sample(self, capsys, tmp_path, assemble_calls):
        # one assembly per block of at most BLOCK samples, on a stacked record
        block = hartogs.metric.BLOCK
        for samples, sizes in ((7, [7]), (block + 1, [block, 1])):
            assemble_calls.clear()
            code, _, _ = run(capsys, "curvature-scan", "--profile", "powercap:2", "--n", "3",
                             "--samples", str(samples), "--seed", "1",
                             "--out", str(tmp_path / "s.csv"))
            assert code == 0
            assert [p.z.shape for _, p in assemble_calls] == [(k, 3) for k in sizes]

    def test_out_required(self, capsys):
        code, _, _ = run(capsys, "curvature-scan", "--profile", "affine:1,1")
        assert code == 2

    def test_zero_samples_usage_error(self, capsys, tmp_path):
        code, _, _ = run(capsys, "curvature-scan", "--profile", "affine:1,1",
                         "--samples", "0", "--out", str(tmp_path / "x.csv"))
        assert code == 2

    def test_unwritable_path(self, capsys):
        code, _, err = run(capsys, "curvature-scan", "--profile", "affine:1,1",
                           "--samples", "2", "--out", "/nonexistent-dir/x.csv")
        assert code == 1
        assert "i/o error" in err


class TestLeviScan:
    def test_affine(self, capsys, tmp_path):
        out = tmp_path / "levi.csv"
        code, text, _ = run(capsys, "levi-scan", "--profile", "affine:2,3",
                            "--n", "3", "--samples", "25", "--seed", "2",
                            "--out", str(out))
        assert code == 0
        assert "PASS" in text
        with out.open(newline="") as fh:
            assert len(list(csv.DictReader(fh))) == 25

    def test_no_min_margin(self, capsys):
        # boundary samples have no interior margin
        code, _, _ = run(capsys, "levi-scan", "--profile", "affine:1,1", "--min-margin", "0.1")
        assert code == 2

    def test_csv_deterministic_and_pinned(self, capsys, tmp_path):
        # the points of test_boundary.py::test_pinned_points, cell for cell
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for path in paths:
            code, _, _ = run(capsys, "levi-scan", "--profile", "powercap:2", "--n", "3",
                             "--samples", "2", "--seed", "5", "--out", str(path))
            assert code == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()
        with paths[0].open(newline="") as fh:
            rows = list(csv.DictReader(fh))
        want_z = [
            [0.31930803872878577, -0.8379977907040155, -0.03917302354321233, 0.1791837933250996,
             0.06631504123070904, 0.017303524301456326],
            [0.6131259994674023, 0.17927978411320566, 0.20169552583769593, 0.07347786635526446,
             0.4403743411553214, -0.33223142372922554],
        ]
        coords = [f"{part}_z{k}" for k in range(3) for part in ("re", "im")]
        for row, z, x in zip(rows, want_z, [0.8041979208216348, 0.4080647322145787]):
            assert [row[c] for c in coords] == [fmt(v) for v in z]
            assert row["x"] == fmt(x)

    @pytest.mark.parametrize("out", [False, True])
    def test_defining_residual_only_for_csv(self, capsys, monkeypatch, tmp_path, out):
        calls = count_calls(monkeypatch, hartogs.boundary.defining_residual)
        argv = ["levi-scan", "--profile", "powercap:2", "--n", "3", "--samples", "7"]
        code, _, _ = run(capsys, *argv, *(["--out", str(tmp_path / "l.csv")] if out else []))
        assert code == 0
        assert len(calls) == (7 if out else 0)

    @pytest.mark.parametrize("profile", ["affine:1,1", "powercap:2", "expdecay:1", "rational"])
    def test_whole_range(self, capsys, profile):
        for n in range(2, 9):
            code, out, _ = run(capsys, "levi-scan", "--profile", profile, "--n", str(n),
                               "--samples", "200", "--seed", str(n))
            assert code == 0, (n, out)
            assert out.rstrip().endswith("-> PASS")

    @pytest.mark.parametrize("profile", ["powercap:200", "powercap:800"])
    def test_steep_profile_fails_without_error(self, capsys, profile):
        # near x = 1, F = (1 - x)^p underflows to 0 and F + x F'^2 with
        # it; mu reads as 0 there, a FAIL verdict, not a division by zero
        code, out, err = run(capsys, "levi-scan", "--profile", profile, "--n", "3",
                             "--samples", "50")
        assert (code, err) == (1, "")
        assert out.rstrip().endswith("min restricted-Levi eigenvalue 0 -> FAIL")

    @pytest.mark.parametrize("profile", ["affine:1e4,1", "affine:1e6,1"])
    def test_large_profile_values(self, capsys, profile):
        # the boundary tolerance scales with F - x F': an absolute 1e-12
        # refused samples that missed the graph by -1.4e-12 and -5.8e-11
        code, out, err = run(capsys, "levi-scan", "--profile", profile, "--n", "3",
                             "--samples", "50")
        assert (code, err) == (0, "")
        assert out.rstrip().endswith("-> PASS")

    def test_nan_eigenvalue_fails(self, capsys, monkeypatch):
        # a NaN anywhere in the scan is the minimum, not skipped
        monkeypatch.setattr(PowerCap, "det_core", lambda self, x: math.nan if x > 0.5 else 1.0)
        code, out, _ = run(capsys, "levi-scan", "--profile", "powercap:2", "--n", "3",
                           "--samples", "20", "--seed", "1")
        assert code == 1
        assert "eigenvalue nan -> FAIL" in out


class TestExtremalResidual:
    def test_reports(self, capsys):
        code, out, _ = run(capsys, "extremal-residual", "--profile", "powercap:2",
                           "--n", "2", "--samples", "6", "--seed", "4")
        assert code == 0
        assert "max" in out

    @pytest.mark.parametrize("profile", ["affine:1,1", "powercap:2", "expdecay:1", "rational"])
    def test_top_of_range(self, capsys, profile):
        for margin in ("0.05", "0.001"):
            code, out, _ = run(capsys, "extremal-residual", "--profile", profile, "--n", "8",
                               "--samples", "50", "--seed", "4", "--min-margin", margin)
            assert code == 0
            assert "50 samples" in out

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_nonfinite_residual_fails(self, capsys, monkeypatch, tmp_path, value):
        # sorting put a NaN anywhere but last, so the summary dropped it;
        # the stacked result is doctored at its fourth point, in the first
        # block and in the second
        original = hartogs.curvature.curvature_at
        block = hartogs.metric.BLOCK
        for samples, doctored_block, sample in ((8, 0, 3), (block + 8, 1, block + 3)):
            calls = []

            def doctored(profile, p, m):
                data = original(profile, p, m)
                calls.append(p)
                if len(calls) == doctored_block + 1:
                    extremal = data.extremal.copy()
                    extremal[3] = value
                    data = dataclasses.replace(data, extremal=extremal)
                return data

            monkeypatch.setattr(hartogs.curvature, "curvature_at", doctored)
            out_path = tmp_path / "res.csv"
            code, out, err = run(capsys, "extremal-residual", "--profile", "powercap:2",
                                 "--n", "3", "--samples", str(samples), "--seed", "4",
                                 "--out", str(out_path))
            assert code == 1
            assert f"non-finite extremal residual at sample {sample}" in err
            assert out == "" and not out_path.exists()


class TestSolitonCheck:
    def test_affine_passes(self, capsys):
        code, out, _ = run(capsys, "soliton-check", "--profile", "affine:1,1",
                           "--n", "2", "--samples", "6", "--seed", "5")
        assert code == 0
        assert "PASS" in out

    def test_powercap_fails(self, capsys):
        code, out, _ = run(capsys, "soliton-check", "--profile", "powercap:2",
                           "--n", "2", "--samples", "6", "--seed", "5")
        assert code == 1
        assert "FAIL" in out

    def test_rotation_field_accepted(self, capsys):
        # a Killing field leaves the affine Einstein pair a soliton, at the
        # default margin as well
        for extra in (("--min-margin", "0.3"), ()):
            code, _, _ = run(capsys, "soliton-check", "--profile", "affine:1,1",
                             "--n", "2", "--samples", "40", "--seed", "5",
                             "--field", "0,1:1,0|0,1:0,1", *extra)
            assert code == 0

    def test_bad_field_usage_error(self, capsys):
        code, _, err = run(capsys, "soliton-check", "--profile", "affine:1,1",
                           "--field", "zzz")
        assert code == 2

    @pytest.mark.parametrize("coeff", ["nan,0", "0,inf", "-inf,1"])
    def test_nonfinite_field_coefficient_usage_error(self, capsys, coeff):
        # a non-finite coefficient printed RuntimeWarnings and exited 1
        code, out, err = run(capsys, "soliton-check", "--profile", "affine:1,1", "--n", "2",
                             "--samples", "5", f"--field={coeff}:1,0|")
        assert code == 2
        assert "must be finite" in err and out == ""

    def test_huge_field_exponent_usage_error(self, capsys):
        # an exponent past the numpy integer range, not an OverflowError
        code, out, err = run(capsys, "soliton-check", "--profile", "affine:1,1", "--n", "2",
                             "--samples", "5", "--field", "1,0:99999999999999999999,0|")
        assert code == 2
        assert "too large" in err and out == ""

    def test_negative_field_exponent_usage_error(self, capsys):
        code, out, err = run(capsys, "soliton-check", "--profile", "affine:1,1", "--n", "2",
                             "--samples", "5", "--field", "1,0:-1,0|")
        assert code == 2
        assert "negative exponent" in err and out == ""

    def test_degree_option_is_gone(self, capsys):
        code, out, _ = run(capsys, "soliton-check", "--profile", "powercap:2", "--n", "2",
                           "--samples", "6", "--sweep", "--degree", "2")
        assert code == 2 and out == ""

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nan_residual_is_the_maximum(self, capsys):
        # the field overflows to NaN residuals on most samples; Python's max
        # skipped them and printed inf
        code, out, _ = run(capsys, "soliton-check", "--profile", "affine:1,1", "--n", "2",
                           "--samples", "20", "--seed", "1", "--field", "1e307,0:2,0|0,1e307:0,2")
        assert code == 1
        assert "max residual nan (tol 1e-08) -> FAIL" in out

    @pytest.mark.parametrize("profile", ["affine:1,1", "powercap:2", "expdecay:1", "rational"])
    def test_sweep_whole_range(self, capsys, profile):
        # the affine floor is zero at lam = -(n+1), every other floor stays
        # at least FAIL_FLOOR, for n = 2..8 and at margin 0.002
        affine = profile.startswith("affine")
        cases = [(n, "0.05") for n in range(2, 9)] + [(5, "0.002"), (8, "0.002")]
        for n, margin in cases:
            code, out, _ = run(capsys, "soliton-check", "--profile", profile, "--n", str(n),
                               "--samples", "20", "--min-margin", margin, "--sweep")
            floor, lam = re.search(r"residual floor (\S+) at lam=(\S+)$", out, re.M).groups()
            if affine:
                assert code == 0, (n, margin, out)
                assert float(floor) <= hartogs.cli.PASS_ZERO and float(lam) == -(n + 1), (n, out)
            else:
                assert code == 1, (n, margin, out)
                assert float(floor) >= hartogs.cli.FAIL_FLOOR, (n, margin, out)

    @pytest.mark.parametrize("n, samples", [(3, 6), (8, 10)])
    def test_sweep_few_samples_nonaffine(self, capsys, n, samples):
        # the degree-2 basis had more unknowns than these samples give
        # equations and read a floor of about 1e-14 here
        code, out, _ = run(capsys, "soliton-check", "--profile", "powercap:2", "--n", str(n),
                           "--samples", str(samples), "--sweep")
        floor = float(re.search(r"residual floor (\S+) at lam=\S+$", out, re.M).group(1))
        assert code == 1
        assert floor >= hartogs.cli.FAIL_FLOOR, out

    def test_sweep_needs_two_samples(self, capsys):
        # one n = 2 point fits every profile exactly, so its floor shows nothing
        code, out, err = run(capsys, "soliton-check", "--profile", "powercap:2", "--n", "2",
                             "--samples", "1", "--sweep")
        assert code == 2
        assert "at least 2 samples" in err and out == ""

    def test_sweep_reports_floor(self, capsys):
        code, out, _ = run(capsys, "soliton-check", "--profile", "powercap:2",
                           "--n", "2", "--samples", "6", "--seed", "5", "--sweep")
        assert code == 1
        assert "residual floor" in out

    def test_sweep_samples_once(self, capsys, monkeypatch):
        calls = count_calls(monkeypatch, hartogs.metric.sample_interior)
        code, _, _ = run(capsys, "soliton-check", "--profile", "powercap:2",
                         "--n", "2", "--samples", "6", "--seed", "5", "--sweep")
        assert code == 1
        assert len(calls) == 1


class TestVerifyTheorems:
    def test_affine_2_3_n3(self, capsys):
        code, out, _ = run(capsys, "verify-theorems", "--profile", "affine:2,3",
                           "--n", "3", "--samples", "10", "--seed", "2")
        assert code == 0
        assert "all" in out and "passed" in out
        assert "pullback_isometry" in out

    def test_powercap_n2(self, capsys):
        code, out, _ = run(capsys, "verify-theorems", "--profile", "powercap:2",
                           "--n", "2", "--samples", "10", "--seed", "2")
        assert code == 0
        assert "PASS-nonzero" in out

    def test_zero_samples(self, capsys):
        code, _, _ = run(capsys, "verify-theorems", "--profile", "affine:1,1",
                         "--samples", "0")
        assert code == 2

    @pytest.mark.parametrize("profile", [PowerCap(2), Affine(1, 1)], ids=["powercap", "affine"])
    def test_check_contract(self, profile):
        # the same checks in the same order; every bound prints its
        # tolerance, every obstruction its share of samples
        affine = isinstance(profile, Affine)
        results = run_verification(profile, 2, 3, 0)
        assert [r.name for r in results] == CHECK_NAMES + ["pullback_isometry"] * affine
        for r in results:
            obstruction = r.name.endswith("_classification") and not affine
            assert ("PASS-nonzero" if obstruction else "(tol ") in r.detail, r.detail

    @pytest.mark.parametrize("n, margin", [("7", "0.002"), ("8", "0.01")])
    def test_einstein_obstruction_near_boundary(self, capsys, n, margin):
        # |defect| / (1 + ||h||) fell below 1e-3 here, where ||h|| is large
        code, out, _ = run(capsys, "verify-theorems", "--profile", "rational", "--n", n,
                           "--samples", "5", "--seed", "0", "--min-margin", margin)
        assert code == 0, out

    def test_zero_defect_fails_classifications(self, capsys, monkeypatch):
        # with the defect and both slope derivatives zeroed, powercap looks
        # affine to the closed forms: neither obstruction may pass
        for name in ("defect", "slope_d1", "slope_d2"):
            monkeypatch.setattr(PowerCap, name, lambda self, x: 0.0)
        code, out, _ = run(capsys, "verify-theorems", "--profile", "powercap:2",
                           "--n", "2", "--samples", "10", "--seed", "2")
        assert code == 1
        assert "FAIL  extremal_classification" in out
        assert "FAIL  einstein_classification" in out

    def test_one_assembly_per_sample(self, capsys, assemble_calls):
        # one assembly per block of at most BLOCK samples, on a stacked record
        code, _, _ = run(capsys, "verify-theorems", "--profile", "powercap:2",
                         "--n", "2", "--samples", "5", "--seed", "2")
        assert code == 0
        assert [p.z.shape for _, p in assemble_calls] == [(5, 2)]

    @pytest.mark.parametrize("doctored", ["inverse", "ricci"])
    def test_doctored_assembly_fails_scal_forms(self, capsys, monkeypatch, doctored):
        # a 1e-6 error in the inverse or in Ric moves the trace form of
        # scal far beyond the 1e-9 budget of the scal_forms check
        # the stacked result of the block is doctored at every point
        if doctored == "inverse":
            assemble = hartogs.cli.assemble_metric

            def wrong(profile, p):
                assert p.z.shape == (5, 2)
                m = assemble(profile, p)
                return dataclasses.replace(m, h_inv=m.h_inv + 1e-6 * np.eye(p.n))

            monkeypatch.setattr(hartogs.cli, "assemble_metric", wrong)
        else:
            curvature_at = hartogs.curvature.curvature_at

            def wrong(profile, p, m):
                assert p.z.shape == (5, 2)
                data = curvature_at(profile, p, m)
                return dataclasses.replace(data, ric=data.ric + 1e-6 * np.eye(p.n))

            monkeypatch.setattr(hartogs.curvature, "curvature_at", wrong)
        code, out, _ = run(capsys, "verify-theorems", "--profile", "affine:1,1",
                           "--n", "2", "--samples", "5", "--seed", "2")
        assert code == 1
        assert "FAIL  scal_forms" in out

    def test_doctored_slope_d2_fails_extremal_vs_fd(self, capsys, monkeypatch):
        # a 1e-4 relative error in slope'' is far beyond the 1e-7 budget
        slope_d2 = PowerCap.slope_d2
        monkeypatch.setattr(PowerCap, "slope_d2", lambda self, x: slope_d2(self, x) * (1 + 1e-4))
        code, out, _ = run(capsys, "verify-theorems", "--profile", "powercap:2",
                           "--n", "2", "--samples", "10", "--seed", "2")
        assert code == 1
        assert "FAIL  extremal_vs_fd" in out

    @pytest.mark.parametrize("doctored", ["metric", "defect"])
    def test_doctored_point_fails_oracle_checks(self, capsys, monkeypatch, doctored):
        # a 1e-9 relative error in one metric entry, or in the defect, is
        # far beyond the 1e-11 budget of the jet oracles, and far below the
        # 1e-6 and 1e-5 gates of the finite-difference oracles they replaced
        if doctored == "metric":
            assemble = hartogs.cli.assemble_metric

            def wrong(profile, p):
                # the head entry of every point of the stacked result
                assert p.z.shape == (5, 2)
                m = assemble(profile, p)
                h = m.h.copy()
                h[..., 0, 0] *= 1.0 + 1e-9
                return dataclasses.replace(m, h=h)

            monkeypatch.setattr(hartogs.cli, "assemble_metric", wrong)
            check = "metric_vs_fd_hessian"
        else:
            defect = PowerCap.defect
            monkeypatch.setattr(PowerCap, "defect", lambda self, x: defect(self, x) * (1 + 1e-9))
            check = "ricci_vs_fd"
        code, out, _ = run(capsys, "verify-theorems", "--profile", "powercap:2",
                           "--n", "2", "--samples", "5", "--seed", "2")
        assert code == 1
        line = next(line for line in out.splitlines() if f"  {check}  " in line)
        assert line.startswith(f"FAIL  {check}")
        worst = float(line.split("worst rel ")[1].split()[0])
        assert 1e-11 < worst < 1e-6

    @pytest.mark.parametrize("profile", PSEUDOCONVEX_FAMILIES, ids=FAMILY_IDS)
    def test_whole_range(self, profile):
        # every check over the advertised range n = 2..8, down to margin
        # 0.002; the finite-difference oracles failed their gates here
        for n in range(2, 9):
            for margin in (0.05, 0.01, 0.002):
                failed = [f"{r.name}: {r.detail}"
                          for r in run_verification(profile, n, 20, 0, margin) if not r.passed]
                assert not failed, (n, margin, failed)

    def test_steep_profile_near_boundary(self):
        # the sample that a stencil of the extremal residual once stepped
        # out of the domain from (|F'| about 8 at margin 0.002)
        results = {r.name: r for r in run_verification(PowerCap(0.5), 6, 20, 0, 0.002)}
        assert results["extremal_vs_fd"].passed
        assert results["extremal_classification"].passed


@pytest.mark.parametrize("command", ["curvature-scan", "extremal-residual"])
def test_steep_profile_near_boundary(capsys, tmp_path, command):
    argv = [command, "--profile", "powercap:0.5", "--n", "6", "--samples", "20", "--seed", "0",
            "--min-margin", "0.002"]
    if command == "curvature-scan":
        argv += ["--out", str(tmp_path / "s.csv")]
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    assert " 20 " in out


def test_unknown_subcommand(capsys):
    assert run(capsys, "no-such-command")[0] == 2


def test_missing_subcommand(capsys):
    assert run(capsys)[0] == 2


def test_readme_options_exist():
    # every --option the README names outside other programs' command lines
    # is accepted by some subcommand, so a deleted flag cannot linger there
    parser = hartogs.cli.build_parser()
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    accepted = {opt for sub in subparsers.choices.values() for opt in sub._option_string_actions}
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    named, fenced = set(), False
    for line in readme.splitlines():
        if line.startswith("```"):
            fenced = not fenced
        elif not fenced or line.startswith("hartogs "):
            named.update(re.findall(r"--[a-z][a-z0-9-]*", line))
    assert "--sweep" in named
    assert named - accepted == set()


def test_readme_names_resolve():
    # every `module.name` the README names in a hartogs submodule exists, so
    # a deleted function cannot linger there
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    modules = {info.name for info in pkgutil.iter_modules(hartogs.__path__)}
    named = {(mod, attr) for mod, attr in re.findall(r"`([a-z_]\w*)\.([A-Za-z_]\w*)`", readme)
             if mod in modules}
    assert ("metric", "sample_interior") in named
    missing = [f"{mod}.{attr}" for mod, attr in sorted(named)
               if not hasattr(importlib.import_module(f"hartogs.{mod}"), attr)]
    assert missing == []
