import csv
import dataclasses
import sys

import numpy as np
import pytest

import hartogs.cli
import hartogs.curvature
import hartogs.metric
from hartogs.cli import fmt, main, run_verification
from hartogs.profiles import PowerCap

from conftest import FAMILY_IDS, PSEUDOCONVEX_FAMILIES


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def assemble_calls(monkeypatch):
    """Points passed to `assemble_metric`, through every binding of it in
    the package."""
    original = hartogs.metric.assemble_metric
    calls = []

    def counted(profile, p):
        calls.append(p)
        return original(profile, p)

    for name, mod in list(sys.modules.items()):
        if name == "hartogs" or name.startswith("hartogs."):
            for key, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, key, counted)
    return calls


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


class TestCheckPseudoconvex:
    def test_affine_passes(self, capsys):
        code, out, _ = run(capsys, "check-pseudoconvex", "--profile", "affine:1,1")
        assert code == 0
        assert "min margin 1" in out
        assert "PASS" in out

    def test_expdecay_passes(self, capsys):
        code, out, _ = run(capsys, "check-pseudoconvex", "--profile", "expdecay:1")
        assert code == 0

    def test_malformed_profile(self, capsys):
        code, _, err = run(capsys, "check-pseudoconvex", "--profile", "affine:1")
        assert code == 2
        assert "parameter" in err


class TestCurvatureScan:
    def test_deterministic_and_constant_scal(self, capsys, tmp_path):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        args = ["curvature-scan", "--profile", "affine:1,1", "--n", "2",
                "--samples", "10", "--seed", "1"]
        assert run(capsys, *args, "--out", str(out1))[0] == 0
        assert run(capsys, *args, "--out", str(out2))[0] == 0
        assert out1.read_bytes() == out2.read_bytes()

        with out1.open(newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 10
        assert all(row["scal"] == "-6" for row in rows)
        assert all(row["extremal_res"] == "0" for row in rows)

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
        code, _, _ = run(capsys, "curvature-scan", "--profile", "powercap:2", "--n", "3",
                         "--samples", "7", "--seed", "1", "--out", str(tmp_path / "s.csv"))
        assert code == 0
        assert len(assemble_calls) == 7

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

    def test_sweep_reports_floor(self, capsys):
        code, out, _ = run(capsys, "soliton-check", "--profile", "powercap:2",
                           "--n", "2", "--samples", "6", "--seed", "5", "--sweep")
        assert code == 1
        assert "residual floor" in out


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

    def test_one_assembly_per_sample(self, capsys, assemble_calls):
        code, _, _ = run(capsys, "verify-theorems", "--profile", "powercap:2",
                         "--n", "2", "--samples", "5", "--seed", "2")
        assert code == 0
        assert len(assemble_calls) == 5

    @pytest.mark.parametrize("doctored", ["inverse", "ricci"])
    def test_doctored_assembly_fails_scal_forms(self, capsys, monkeypatch, doctored):
        # a 1e-6 error in the inverse or in Ric moves the trace form of
        # scal far beyond the 1e-9 budget of the scal_forms check
        if doctored == "inverse":
            assemble = hartogs.cli.assemble_metric

            def wrong(profile, p):
                m = assemble(profile, p)
                return dataclasses.replace(m, h_inv=m.h_inv + 1e-6 * np.eye(p.n))

            monkeypatch.setattr(hartogs.cli, "assemble_metric", wrong)
        else:
            curvature_at = hartogs.curvature.curvature_at

            def wrong(profile, p, m):
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
                m = assemble(profile, p)
                h = m.h.copy()
                h[0, 0] *= 1.0 + 1e-9
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
