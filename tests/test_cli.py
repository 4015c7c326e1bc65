import argparse
import csv
import decimal
import errno
import importlib
import importlib.util
import json
import math
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import hartogs
import hartogs.boundary
import hartogs.canonical
import hartogs.cli
import hartogs.curvature
import hartogs.metric
from hartogs.cli import Check, fmt, main, run_verification
from hartogs.profiles import Affine, PowerCap

from conftest import FAMILY_IDS, PSEUDOCONVEX_FAMILIES, CubicCap

ROOT = Path(__file__).resolve().parents[1]

#: the `verify-theorems` checks on every profile, in order; affine profiles
#: add pullback_isometry
CHECK_NAMES = [
    "metric_vs_fd_hessian", "determinant_closed_vs_dense", "inverse_identity", "ricci_vs_fd",
    "ricci_tail_rows", "rho_closed_vs_fit", "scal_forms", "extremal_vs_jet",
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


def count_rows(monkeypatch):
    """The cells of each CSV row rendered by `cli._render_cells`."""
    rows = []
    original = hartogs.cli._render_cells

    def counted(cells):
        rows.extend(cells.tolist())
        return original(cells)

    monkeypatch.setattr(hartogs.cli, "_render_cells", counted)
    return rows


def reference_table(path, label, z, columns, values):
    """The CSV of `cli._write_table` as `csv.writer` writes it with
    f"{v:.17g}" per cell."""
    n = z.shape[-1]
    coords = [f"{part}_z{k}" for k in range(n) for part in ("re", "im")]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["profile", "n", *coords, *columns])
        for zs, vs in zip(z.tolist(), values.tolist()):
            cells = [part for c in zs for part in (c.real, c.imag)] + vs
            writer.writerow([label, str(n), *(f"{v:.17g}" for v in cells)])


def refuse_read_only(real_open):
    """`os.open` that refuses to open a file without write bits for
    writing, with the error the kernel gives a user other than root."""
    def refusing(path, flags, *args, **kwargs):
        if flags & (os.O_WRONLY | os.O_RDWR) and os.path.isfile(path) \
                and not os.stat(path).st_mode & 0o222:
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), path)
        return real_open(path, flags, *args, **kwargs)
    return refusing


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
        ["soliton-check", "--profile", "affine:1,1", "--n", "2", "--samples", "20", "--seed", "1",
         "--field", "1e307,0:2,0|0,1e307:0,2"],
    ],
    ids=["levi-powercap", "check-affine", "extremal-affine", "scan-affine", "verify-affine",
         "sweep-affine", "field-huge"],
)
def test_extreme_finite_parameters_fail_without_traceback(capsys, tmp_path, argv):
    # a ZeroDivisionError or OverflowError escaped main; an exception that
    # escapes now fails this test, and so does a RuntimeWarning: an
    # overflow in the stacked kernel, or in a field's Lie sum, is one
    # FloatingPointError
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
        # one assembly per block, on a stacked record: at most BLOCK
        # samples at every n
        block = hartogs.metric.BLOCK
        for n, samples, sizes in ((3, 7, [7]), (3, block + 1, [block, 1]), (16, 70, [70])):
            assemble_calls.clear()
            code, _, _ = run(capsys, "curvature-scan", "--profile", "powercap:2", "--n", str(n),
                             "--samples", str(samples), "--seed", "1",
                             "--out", str(tmp_path / "s.csv"))
            assert code == 0
            assert [p.z.shape for _, p in assemble_calls] == [(k, n) for k in sizes]

    def test_out_required(self, capsys):
        code, _, _ = run(capsys, "curvature-scan", "--profile", "affine:1,1")
        assert code == 2

    def test_zero_samples_usage_error(self, capsys, tmp_path):
        code, _, _ = run(capsys, "curvature-scan", "--profile", "affine:1,1",
                         "--samples", "0", "--out", str(tmp_path / "x.csv"))
        assert code == 2

    def test_unwritable_path(self, capsys, monkeypatch, tmp_path):
        # a missing directory, a directory and a read-only file: the open's
        # error names the path, and a file it refuses is left as it was
        read_only = tmp_path / "x.csv"
        read_only.write_bytes(b"old")
        read_only.chmod(0o444)
        if os.geteuid() == 0:
            # root writes through the mode bits: refuse as the kernel
            # refuses any other user
            monkeypatch.setattr(os, "open", refuse_read_only(os.open))
        for path, error in ((tmp_path / "missing" / "x.csv", "[Errno 2] No such file or directory"),
                            (tmp_path, "[Errno 21] Is a directory"),
                            (read_only, "[Errno 13] Permission denied")):
            assert run(capsys, "curvature-scan", "--profile", "affine:1,1", "--samples", "2",
                       "--out", str(path)) == (1, "", f"i/o error: {error}: {str(path)!r}\n")
        assert read_only.read_bytes() == b"old"

    def test_out_to_dev_null(self, capsys, tmp_path):
        # a device takes the table with no truncate, which only a regular
        # file allows
        argv = ["curvature-scan", "--profile", "powercap:2", "--n", "3", "--samples", "5",
                "--out"]
        path = str(tmp_path / "s.csv")
        assert run(capsys, *argv, path) == (0, f"curvature-scan powercap:2: wrote 5 rows to "
                                               f"{path}\n", "")
        assert run(capsys, *argv, os.devnull) == (0, f"curvature-scan powercap:2: wrote 5 rows "
                                                     f"to {os.devnull}\n", "")

    @pytest.mark.parametrize("umask", [0o022, 0o077, 0o000], ids=lambda u: f"{u:03o}")
    def test_new_csv_mode_as_open(self, capsys, tmp_path, umask):
        # a new CSV gets the permission bits of open(path, "wb"): 0o666
        # less the umask, no execute bits
        old = os.umask(umask)
        try:
            open(tmp_path / "ref.csv", "wb").close()
            code, _, _ = run(capsys, "curvature-scan", "--profile", "affine:1,1", "--samples", "2",
                             "--out", str(tmp_path / "s.csv"))
        finally:
            os.umask(old)
        assert code == 0
        assert (tmp_path / "s.csv").stat().st_mode == (tmp_path / "ref.csv").stat().st_mode


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
            [0.9072464018438091, -0.06559084052948976, -0.038695373755235435,
             0.05177759227953598, 0.15699894579894583, 0.031055822701945294],
            [-0.14778274565742291, -0.9755721342405979, 0.011957414003406948,
             -0.004657673815108921, 0.01568853778496278, 0.016946208609163443],
        ]
        coords = [f"{part}_z{k}" for k in range(3) for part in ("re", "im")]
        for row, z, x in zip(rows, want_z, [0.8273981920199033, 0.9735807290208016]):
            assert [row[c] for c in coords] == [fmt(v) for v in z]
            assert row["x"] == fmt(x)

    def test_sample_prefix_keeps_rows(self, capsys, tmp_path):
        # the rows of a 20-sample scan are the first 20 of a 50-sample scan
        # byte for byte: the block draws give point i the same draws
        lines = []
        for samples in (20, 50):
            out = tmp_path / f"s{samples}.csv"
            code, _, _ = run(capsys, "levi-scan", "--profile", "expdecay:1", "--n", "8",
                             "--samples", str(samples), "--seed", "3", "--out", str(out))
            assert code == 0
            lines.append(out.read_bytes().splitlines(keepends=True))
        assert len(lines[0]) == 21 and lines[1][:21] == lines[0]

    def test_unallocatable_sample_is_an_error(self, capsys, monkeypatch):
        # numpy refuses the draw of 10**12 points with a MemoryError; the
        # refusal is one error line and exit 1, not a traceback.  The
        # sampler is replaced, so no host setting decides whether the
        # allocation is really made
        counts = []

        def refused(profile, n, count, seed):
            counts.append(count)
            raise MemoryError(f"Unable to allocate an array with shape ({count}, 2)")

        monkeypatch.setattr(hartogs.cli, "sample_boundary", refused)
        code, out, err = run(capsys, "levi-scan", "--profile", "powercap:2",
                             "--samples", str(10**12))
        assert (code, out, counts) == (1, "", [10**12])
        assert err == f"error: out of memory (Unable to allocate an array with shape ({10**12}, 2))\n"

    @pytest.mark.parametrize("out", [False, True])
    def test_defining_residual_only_for_csv(self, capsys, monkeypatch, tmp_path, out):
        # the column is -gap, read from the boundary records: no sample
        # evaluates the defining function again
        calls = count_calls(monkeypatch, hartogs.boundary.defining_residual)
        argv = ["levi-scan", "--profile", "powercap:2", "--n", "3", "--samples", "7"]
        code, _, _ = run(capsys, *argv, *(["--out", str(tmp_path / "l.csv")] if out else []))
        assert code == 0
        assert calls == []
        if out:
            with (tmp_path / "l.csv").open(newline="") as fh:
                column = [float(row["defining_residual"]) for row in csv.DictReader(fh)]
            gap = hartogs.sample_boundary(PowerCap(2), 3, 7, 0).gap
            assert np.array(column).view(np.int64).tolist() == (-gap).view(np.int64).tolist()

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
        monkeypatch.setattr(PowerCap, "det_core", lambda self, x: np.where(x > 0.5, math.nan, 1.0))
        code, out, _ = run(capsys, "levi-scan", "--profile", "powercap:2", "--n", "3",
                           "--samples", "20", "--seed", "1")
        assert code == 1
        assert "eigenvalue nan -> FAIL" in out

    def test_nan_eigenvalue_written(self, capsys, monkeypatch, tmp_path):
        # the set-up of test_nan_eigenvalue_fails, with --out
        monkeypatch.setattr(PowerCap, "det_core", lambda self, x: np.where(x > 0.5, math.nan, 1.0))
        path = tmp_path / "l.csv"
        code, _, _ = run(capsys, "levi-scan", "--profile", "powercap:2", "--n", "3",
                         "--samples", "20", "--seed", "1", "--out", str(path))
        assert code == 1
        with path.open(newline="") as fh:
            column = [row["min_eig"] for row in csv.DictReader(fh)]
        assert len(column) == 20
        assert "nan" in column


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

    def test_attempt_cap_says_how_many_found(self, capsys):
        # 100,000 attempts give 81,540 of the 200,000 points; the error
        # must say so, not that none were found
        code, out, err = run(capsys, "extremal-residual", "--profile", "powercap:2", "--n", "2",
                             "--samples", "200000", "--seed", "0")
        assert (code, out) == (1, "")
        assert err == ("error: only 81540 of 200000 interior points with margin >= 0.05 "
                       "found in 100000 attempts for powercap:2\n")

    @pytest.mark.parametrize("out", [False, True])
    def test_cells_formatted_only_for_csv(self, capsys, monkeypatch, tmp_path, out):
        # without --out no row is formatted; with it, each of the 7 rows is
        # formatted once, its 2n coordinates, gap, x and the residual
        rows = count_rows(monkeypatch)
        argv = ["extremal-residual", "--profile", "powercap:2", "--n", "3", "--samples", "7"]
        code, _, _ = run(capsys, *argv, *(["--out", str(tmp_path / "e.csv")] if out else []))
        assert code == 0
        assert [len(cells) for cells in rows] == ([9] * 7 if out else [])

    def test_assembles_no_metric(self, capsys, monkeypatch, tmp_path):
        # the residual reads the point record alone: neither the metric
        # nor its matrix is built, through any binding, over two blocks,
        # and the output and the CSV are what they were with them
        out = tmp_path / "e.csv"
        argv = ["extremal-residual", "--profile", "expdecay:1", "--n", "4", "--samples",
                str(hartogs.metric.BLOCK + 9), "--seed", "3", "--out", str(out)]
        want, table = run(capsys, *argv), out.read_bytes()
        assembled = count_calls(monkeypatch, hartogs.metric.assemble_metric)
        matrices = count_calls(monkeypatch, hartogs.metric.metric_matrix)
        assert run(capsys, *argv) == want and want[0] == 0
        assert out.read_bytes() == table
        assert run(capsys, *argv[:-2])[0] == 0
        assert assembled == [] and matrices == []

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_nonfinite_residual_fails(self, capsys, monkeypatch, tmp_path, value):
        # sorting put a NaN anywhere but last, so the summary dropped it;
        # the stacked result of `scalar_curvature_at`, which the
        # subcommand calls once per block, is doctored at its fourth point,
        # in the first block and in the second
        original = hartogs.curvature.scalar_curvature_at
        block = hartogs.metric.BLOCK
        for samples, doctored_block, sample in ((8, 0, 3), (block + 8, 1, block + 3)):
            calls = []

            def doctored(profile, p):
                data = original(profile, p)
                calls.append(p)
                if len(calls) == doctored_block + 1:
                    extremal = data.extremal.copy()
                    extremal[3] = value
                    data = data._replace(extremal=extremal)
                return data

            monkeypatch.setattr(hartogs.curvature, "scalar_curvature_at", doctored)
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

    def test_nan_residual_is_the_maximum(self, capsys, monkeypatch):
        # Python's max skipped NaN residuals and printed the largest finite
        # one; the affine residuals are 0 but for the doctored NaN, in the
        # function the subcommand calls once per block
        original = hartogs.canonical.soliton_residual_of

        def doctored(*args):
            residuals = original(*args).copy()
            residuals[3] = math.nan
            return residuals

        monkeypatch.setattr(hartogs.canonical, "soliton_residual_of", doctored)
        code, out, _ = run(capsys, "soliton-check", "--profile", "affine:1,1", "--n", "2",
                           "--samples", "20", "--seed", "1")
        assert code == 1
        assert "max residual nan (tol 1e-08) -> FAIL" in out

    @pytest.mark.parametrize("field", [None, "0,1:1,0|0,1:0,1"])
    def test_one_metric_and_ricci_per_block(self, capsys, monkeypatch, field):
        # the residual and the sweep's rows read each block's metric and
        # Ricci tensor, built once, over two blocks; the printed numbers are
        # those of the library's residual and sweep, which build them apart
        prof, block = PowerCap(2), hartogs.metric.BLOCK
        points = hartogs.metric.sample_interior(prof, 2, block + 9, 3, 0.05)
        x_field = hartogs.canonical.HoloVectorField.zero(2)
        if field:
            x_field = hartogs.canonical.HoloVectorField.from_text(field, 2)
        worst = max(np.max(hartogs.canonical.soliton_residual(prof, p, -3.0, x_field))
                    for p in hartogs.metric.blocks(points))
        sweep = hartogs.canonical.soliton_sweep(prof, points)
        assembled = count_calls(monkeypatch, hartogs.metric.assemble_metric)
        ricci = count_calls(monkeypatch, hartogs.curvature.ricci_tensor)
        code, out, err = run(capsys, "soliton-check", "--profile", "powercap:2", "--n", "2",
                             "--samples", str(block + 9), "--seed", "3", "--sweep",
                             *(["--field", field] if field else []))
        assert code == 1 and err == ""
        assert [len(args[1]) for args in assembled] == [len(args[1]) for args in ricci]
        assert [len(args[1]) for args in assembled] == [block, 9]
        assert f"max residual {worst:.6g} (tol" in out
        assert (f"a={sweep.a:.6g}, b={sweep.b:.6g}): residual floor {sweep.residual:.6g} "
                f"at lam={sweep.lam:.6g}\n") in out

    def test_zero_field_forms_no_lie_term(self, capsys, monkeypatch):
        # without --field the residual forms no Lie derivative, and only
        # the sweep's rows differentiate h, once per block; with a field
        # the residual forms one Lie derivative per block
        argv = ["soliton-check", "--profile", "rational", "--n", "3", "--samples",
                str(hartogs.metric.BLOCK + 9), "--seed", "2"]
        want = run(capsys, *argv)
        lie = count_calls(monkeypatch, hartogs.canonical.lie_derivative_components)
        along = count_calls(monkeypatch, hartogs.metric.metric_derivative_along)
        assert run(capsys, *argv) == want and want[0] == 1
        assert lie == [] and along == []
        assert run(capsys, *argv, "--sweep")[0] == 1
        assert lie == [] and len(along) == 2
        along.clear()
        assert run(capsys, *argv, "--field", "0,1:1,0,0|0,1:0,1,0|0,1:0,0,1")[0] == 1
        assert len(lie) == len(along) == 2

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

    @pytest.mark.parametrize("hits, passed, percent", [(179, False, 89), (180, True, 90),
                                                       (199, True, 99), (200, True, 100)])
    def test_obstruction_share_rounds_down(self, hits, passed, percent):
        # a share just below the 90% minimum never prints as 90%, nor one
        # just below all samples as 100%
        check = Check("c", "m", 1e-3, lambda *args: None, obstruction=True)
        values = np.where(np.arange(200) < hits, 1.0, 0.0)
        result = check.result(values)
        assert result.passed is passed
        assert result.detail == f"m >= 0.001 at {percent}% of samples (PASS-nonzero, min 90%)"

    @pytest.mark.parametrize("obstruction", [False, True])
    def test_gates_hold_at_tol(self, obstruction):
        # a bound passes where its worst value is its tol, and an
        # obstruction counts a value at its tol as a hit
        check = Check("c", "m", 1e-3, lambda *args: None, obstruction=obstruction)
        assert check.result(np.full(10, 1e-3)).passed

    @pytest.mark.parametrize("profile", ["affine:1,1", "powercap:2", "expdecay:1", "rational"])
    def test_top_of_range(self, capsys, profile):
        # every oracle and classification gate holds at n = 8, down to the
        # smallest advertised interior margin
        for margin in ("0.05", "0.001"):
            code, out, _ = run(capsys, "verify-theorems", "--profile", profile, "--n", "8",
                               "--samples", "20", "--seed", "4", "--min-margin", margin)
            assert code == 0, out
            assert "checks passed" in out

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
            inverse = hartogs.metric.inverse_metric_matrix

            def wrong(p):
                assert p.z.shape == (5, 2)
                return inverse(p) + 1e-6 * np.eye(p.n)

            monkeypatch.setattr(hartogs.metric, "inverse_metric_matrix", wrong)
        else:
            curvature_at = hartogs.curvature.curvature_at

            def wrong(profile, p, m):
                assert p.z.shape == (5, 2)
                data = curvature_at(profile, p, m)
                return data._replace(ric=data.ric + 1e-6 * np.eye(p.n))

            monkeypatch.setattr(hartogs.curvature, "curvature_at", wrong)
        code, out, _ = run(capsys, "verify-theorems", "--profile", "affine:1,1",
                           "--n", "2", "--samples", "5", "--seed", "2")
        assert code == 1
        assert "FAIL  scal_forms" in out

    @pytest.mark.parametrize("doctored, failed", [
        ("det", {"determinant_closed_vs_dense"}),
        ("inverse", {"inverse_identity", "scal_forms"}),
        ("tail", {"ricci_vs_fd", "ricci_tail_rows", "rho_closed_vs_fit", "scal_forms",
                  "einstein_classification"}),
        ("rho", {"rho_closed_vs_fit"}),
        ("extremal", {"extremal_classification"}),
    ], ids=["det", "inverse", "tail", "rho", "extremal"])
    def test_doctored_quantity_fails_its_checks(self, monkeypatch, doctored, failed):
        # on the ball every check is a bound; a 1e-6 error in one quantity
        # of every point, 1e-8 in the determinant, fails exactly the checks
        # that read it
        assemble, curvature_at = hartogs.cli.assemble_metric, hartogs.curvature.curvature_at
        inverse = hartogs.metric.inverse_metric_matrix
        if doctored == "det":
            def wrong(profile, p):
                m = assemble(profile, p)
                return m._replace(det=m.det * (1 + 1e-8))

            monkeypatch.setattr(hartogs.cli, "assemble_metric", wrong)
        elif doctored == "inverse":
            monkeypatch.setattr(hartogs.metric, "inverse_metric_matrix",
                                lambda p: inverse(p) + 1e-6 * np.eye(p.n))
        else:
            def wrong(profile, p, m):
                data = curvature_at(profile, p, m)
                if doctored == "tail":
                    ric = data.ric.copy()
                    ric[:, 1:, 1:] += 1e-6 * np.eye(p.n - 1)
                    return data._replace(ric=ric)
                if doctored == "rho":
                    return data._replace(rho=data.rho * (1 + 1e-6))
                return data._replace(extremal=data.extremal + 1e-6)

            monkeypatch.setattr(hartogs.curvature, "curvature_at", wrong)
        results = run_verification(Affine(1, 1), 2, 5, 2)
        assert {r.name for r in results if not r.passed} == failed

    @pytest.mark.parametrize("error", [1e-4, 1e-9])
    def test_doctored_slope_d2_fails_extremal_vs_jet(self, capsys, monkeypatch, error):
        # a 1e-4 relative error in slope'' is far beyond the 1e-10 budget;
        # a 1e-9 one is beyond it too, and within the 1e-7 gate of the
        # stencil oracle that the jet oracle replaced
        slope_d2 = PowerCap.slope_d2
        monkeypatch.setattr(PowerCap, "slope_d2", lambda self, x: slope_d2(self, x) * (1 + error))
        code, out, _ = run(capsys, "verify-theorems", "--profile", "powercap:2",
                           "--n", "2", "--samples", "10", "--seed", "2")
        assert code == 1
        line = next(line for line in out.splitlines() if "  extremal_vs_jet  " in line)
        assert line.startswith("FAIL  extremal_vs_jet")
        if error == 1e-9:
            assert 1e-10 < float(line.split("worst rel ")[1].split()[0]) < 1e-7

    def test_doctored_third_derivative_fails_extremal_vs_jet(self, monkeypatch):
        # F''' enters A' and B' multiplied by A, which is zero on every CLI
        # family; on the test-only CubicCap a 1e-6 relative error in it
        # fails extremal_vs_jet alone (worst rel 3.6e-8 here), since the
        # jet oracle differentiates F'' and never reads F'''
        prof = CubicCap(1.0 / 3.0, 1.0)
        d3 = CubicCap._d3
        for error in (0.0, 1e-6):
            monkeypatch.setattr(CubicCap, "_d3", lambda self, x, e=error: d3(self, x) * (1 + e))
            failed = {r.name: r.detail for r in run_verification(prof, 3, 20, 2) if not r.passed}
            if error:
                assert list(failed) == ["extremal_vs_jet"]
                assert float(failed["extremal_vs_jet"].split("worst rel ")[1].split()[0]) > 1e-8
            else:
                assert not failed

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
                return m._replace(h=h)

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
        assert results["extremal_vs_jet"].passed
        assert results["extremal_classification"].passed


@pytest.mark.parametrize("profile", ["powercap:2", "affine:1,1"])
def test_only_verify_theorems_forms_the_inverse(capsys, monkeypatch, tmp_path, profile):
    # with the closed-form inverse raising, every other subcommand gives the
    # same exit code, streams and CSV bytes; verify-theorems forms it in
    # every block
    argvs = (["curvature-scan", "--out"], ["extremal-residual", "--out"],
             ["soliton-check", "--sweep"], ["soliton-check", "--field", "0,1:1,0|0,1:0,1"])

    def outputs():
        got = []
        for i, (command, *extra) in enumerate(argvs):
            out = tmp_path / f"{i}.csv"
            out.unlink(missing_ok=True)
            if extra == ["--out"]:
                extra = ["--out", str(out)]
            got.append((*run(capsys, command, "--profile", profile, "--n", "2", "--samples",
                             "40", "--seed", "4", *extra),
                        out.read_bytes() if out.exists() else None))
        return got

    want = outputs()
    # a soliton of the Killing field on the ball, and an obstruction elsewhere
    assert [code for code, *_ in want] == [0, 0] + [0 if profile == "affine:1,1" else 1] * 2
    inverse = hartogs.metric.inverse_metric_matrix

    def forbidden(p):
        raise AssertionError("the inverse metric was formed")

    monkeypatch.setattr(hartogs.metric, "inverse_metric_matrix", forbidden)
    assert outputs() == want
    sizes = []

    def counted(p):
        sizes.append(len(p))
        return inverse(p)

    monkeypatch.setattr(hartogs.metric, "inverse_metric_matrix", counted)
    block = hartogs.metric.BLOCK
    code, _, _ = run(capsys, "verify-theorems", "--profile", profile, "--n", "2",
                     "--samples", str(block + 1), "--seed", "4")
    assert code == 0
    assert set(sizes) == {block, 1}


@pytest.mark.parametrize("command", ["extremal-residual", "curvature-scan", "soliton-check",
                                     "verify-theorems"])
def test_sampler_finding_no_point_is_an_error(capsys, tmp_path, command):
    # every attempt fails the budget test, so the sampler's one round keeps
    # no candidate; it once built a record from the empty round and failed
    # with a usage error
    argv = [command, "--profile", "expdecay:1e6", "--n", "2", "--samples", "5"]
    if command == "curvature-scan":
        argv += ["--out", str(tmp_path / "s.csv")]
    assert run(capsys, *argv) == (
        1, "", "error: no interior point with margin >= 0.05 found in 100000 attempts "
               "for expdecay:1e+06\n")


@pytest.mark.parametrize("command", ["extremal-residual", "curvature-scan", "soliton-check",
                                     "verify-theorems"])
def test_margin_above_largest_f_is_refused_up_front(capsys, monkeypatch, tmp_path, command):
    # F is largest at x = 0, so with F(0) = 1 <= 2 no budget can be
    # positive: the sampler says so before drawing, where it once drew
    # all its attempts
    monkeypatch.setattr(hartogs.metric, "sample_streams", lambda seed: pytest.fail("drew"))
    argv = [command, "--profile", "expdecay:1", "--n", "3", "--samples", "5", "--min-margin", "2"]
    if command == "curvature-scan":
        argv += ["--out", str(tmp_path / "s.csv")]
    assert run(capsys, *argv) == (
        1, "", "error: min_margin=2.0 leaves no admissible |z_0|^2 range for expdecay:1\n")


@pytest.mark.parametrize("command", ["curvature-scan", "levi-scan", "extremal-residual",
                                     "soliton-check", "verify-theorems"])
def test_negative_seed_usage_error(capsys, tmp_path, command):
    # numpy's `expected non-negative integer` named no option
    argv = [command, "--profile", "powercap:2", "--seed", "-1"]
    if command == "curvature-scan":
        argv += ["--out", str(tmp_path / "s.csv")]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.endswith("error: argument --seed: must be a non-negative integer, got '-1'\n")


@pytest.mark.parametrize("command", ["curvature-scan", "levi-scan", "extremal-residual",
                                     "soliton-check", "verify-theorems"])
def test_seed_of_any_size(capsys, tmp_path, command):
    # every 64-bit limb of the seed keys the streams, so a seed past 2^64
    # samples, and differently from its low limb; soliton-check passes on
    # an affine profile
    profile = "affine:1,1" if command == "soliton-check" else "powercap:2"
    argv = [command, "--profile", profile, "--n", "3", "--samples", "5"]
    if command == "curvature-scan":
        argv += ["--out", str(tmp_path / "s.csv")]
    outputs = []
    for seed in (2**200, 2**200 % 2**64):
        code, out, err = run(capsys, *argv, "--seed", str(seed))
        assert (code, err) == (0, "")
        outputs.append(out if command != "curvature-scan" else (tmp_path / "s.csv").read_bytes())
    if command in ("curvature-scan", "levi-scan", "extremal-residual"):
        assert outputs[0] != outputs[1]


def test_runs_import_no_numpy_random():
    # sampling draws from integer arithmetic: neither `import hartogs.cli`
    # nor a run of the sampling subcommands imports `numpy.random`, whose
    # bit generators pull in OpenSSL's `_hashlib` through `secrets`, nor
    # any other module of numpy or hartogs after the import and the parser;
    # and no start-up generates code: nothing imports `dataclasses`
    script = """
import json, sys, tempfile
import hartogs.cli
hartogs.cli.build_parser()
imported = set(sys.modules)
out = tempfile.mkdtemp() + "/s.csv"
for argv in (["curvature-scan", "--out", out], ["extremal-residual"], ["levi-scan"],
             ["verify-theorems"]):
    assert hartogs.cli.main([*argv, "--profile", "powercap:2", "--n", "3", "--samples", "20"]) == 0
print(json.dumps([sorted(imported), sorted(set(sys.modules) - imported)]))
"""
    src = str(Path(hartogs.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env,
                          check=True)
    imported, added = json.loads(done.stdout.splitlines()[-1])
    heavy = {"numpy.random", "_hashlib", "secrets", "hmac"}
    assert heavy.isdisjoint(imported) and heavy.isdisjoint(added)
    assert [m for m in added if m.split(".")[0] in ("numpy", "hartogs")] == []
    assert "dataclasses" not in imported and "dataclasses" not in added
    # the CLI's import path, `wirtinger` through `hartogs/__init__`
    assert [m for m in imported if m.split(".")[0] == "hartogs"] == [
        "hartogs", "hartogs.boundary", "hartogs.canonical", "hartogs.cli", "hartogs.curvature",
        "hartogs.errors", "hartogs.jet", "hartogs.metric", "hartogs.profiles", "hartogs.wirtinger"]


@pytest.mark.parametrize("command", ["curvature-scan", "extremal-residual"])
def test_steep_profile_near_boundary(capsys, tmp_path, command):
    argv = [command, "--profile", "powercap:0.5", "--n", "6", "--samples", "20", "--seed", "0",
            "--min-margin", "0.002"]
    if command == "curvature-scan":
        argv += ["--out", str(tmp_path / "s.csv")]
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    assert " 20 " in out


@pytest.mark.parametrize(
    "command, header",
    [
        ("curvature-scan", "profile,n,re_z0,im_z0,re_z1,im_z1,re_z2,im_z2,gap,x,det,scal,"
                           "rho_0,rho_1,rho_2,einstein_res,extremal_res"),
        ("extremal-residual", "profile,n,re_z0,im_z0,re_z1,im_z1,re_z2,im_z2,gap,x,extremal_res"),
        ("levi-scan", "profile,n,re_z0,im_z0,re_z1,im_z1,re_z2,im_z2,x,defining_residual,min_eig"),
    ],
    ids=["curvature-scan", "extremal-residual", "levi-scan"],
)
def test_csv_header_pinned(capsys, tmp_path, command, header):
    # the column order of each CSV, byte for byte
    out = tmp_path / "h.csv"
    code, _, _ = run(capsys, command, "--profile", "powercap:2", "--n", "3", "--samples", "2",
                     "--out", str(out))
    assert code == 0
    assert out.read_bytes().split(b"\n")[0] == header.encode()


@pytest.mark.parametrize("old", ["longer-table", "1-MiB", "shorter-table"])
@pytest.mark.parametrize("command", ["curvature-scan", "extremal-residual", "levi-scan"])
def test_out_overwritten_in_place(capsys, tmp_path, command, old):
    # the table is written over the file at --out, in place: the path
    # then holds exactly the bytes of a write to a fresh path, whether the
    # old file was longer (a 60-sample table, whose first rows are the new
    # table's, or 1 MiB of `x`) or shorter (a 5-sample table)
    argv = [command, "--profile", "powercap:2", "--n", "3", "--seed", "4", "--out"]
    fresh, reused = tmp_path / "fresh.csv", tmp_path / "reused.csv"
    if old == "1-MiB":
        reused.write_bytes(b"x" * 2**20)
    else:
        samples = "60" if old == "longer-table" else "5"
        assert run(capsys, *argv, str(reused), "--samples", samples)[0] == 0
    inode = reused.stat().st_ino
    for path in (fresh, reused):
        assert run(capsys, *argv, str(path), "--samples", "20")[0] == 0
    assert reused.read_bytes() == fresh.read_bytes()
    assert reused.read_bytes().count(b"\n") == 21
    assert reused.stat().st_ino == inode


@pytest.mark.parametrize("label", ["affine:1,1", "rational", "powercap:1.0000000000000002",
                                   "100%,\"x\""])
def test_write_table_matches_reference_writer(tmp_path, label):
    # the row template gives the bytes of csv.writer with one f-string per
    # cell: the label quoted once, `%` kept, and the extreme doubles
    special = np.array([-0.0, math.nan, math.inf, -math.inf, 5e-324, 1.7976931348623157e308,
                        1e16])
    cells = np.array([np.roll(special, k) for k in range(len(special))])
    z = np.zeros((len(cells), 2), dtype=complex)
    z.real, z.imag = cells[:, 0:2], cells[:, 2:4]
    paths = [tmp_path / "new.csv", tmp_path / "ref.csv"]
    for write, path in zip((hartogs.cli._write_table, reference_table), paths):
        write(str(path), label, z, ["a", "b", "c"], cells[:, 4:])
    assert paths[0].read_bytes() == paths[1].read_bytes()
    assert paths[0].read_bytes().count(b"\n") == 1 + len(cells)


def assert_table_as_reference(tmp_path, cells, label="affine:1,1"):
    """`_write_table` writes the bytes of `reference_table` for the float
    table `cells` (at least four columns), its first four columns the parts
    of z and the rest the value columns."""
    cells = np.asarray(cells, dtype=float).reshape(len(cells), -1)
    z = np.zeros((len(cells), 2), dtype=complex)
    z.real, z.imag = cells[:, 0:2], cells[:, 2:4]
    columns = [f"c{j}" for j in range(cells.shape[1] - 4)]
    paths = [tmp_path / "new.csv", tmp_path / "ref.csv"]
    for write, path in zip((hartogs.cli._write_table, reference_table), paths):
        write(str(path), label, z, columns, cells[:, 4:])
    assert paths[0].read_bytes() == paths[1].read_bytes()


def as_table(values):
    """`values`, then each negated, zero-padded into rows of 8 cells."""
    values = np.concatenate([values, np.negative(values)])
    return np.concatenate([values, np.zeros(-len(values) % 8)]).reshape(-1, 8)


#: a cell: any double, NaN, infinities and subnormals among them; a double
#: log-uniform over the magnitudes `%.17g` writes without an exponent and
#: past them; an integer; a decimal of few digits
CELLS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.floats(-6.0, 18.0).map(lambda e: 10.0 ** e),
    st.integers(-10**17, 10**17).map(float),
    st.builds(lambda m, e: m * 10.0 ** e, st.integers(-99999, 99999), st.integers(-9, 12)),
)


@settings(derandomize=True, max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(shape=st.tuples(st.integers(1, 6), st.integers(5, 9)), data=st.data(),
       label=st.text("ab1:.,%\"\n\0é", min_size=1, max_size=8))
def test_write_table_matches_reference_over_doubles(tmp_path, shape, data, label):
    # every byte of the numpy renderer is that of csv.writer with one
    # f-string per cell, over drawn tables and labels
    cells = data.draw(st.lists(CELLS, min_size=shape[0] * shape[1], max_size=shape[0] * shape[1]))
    assert_table_as_reference(tmp_path, np.array(cells).reshape(shape), label)


def test_write_table_rounds_exact_ties_to_even(tmp_path):
    # m 2^(d - 17) in [10^d, 10^(d+1)), m odd, has 18 significant digits,
    # the last a 5: an exact tie at 17 digits, for d = -4..15
    values = []
    for d in range(-4, 16):
        first = math.ceil(10.0 ** d * 2.0 ** (17 - d)) | 1
        values += [m * 2.0 ** (d - 17) for m in range(first, first + 400, 2)]
    assert all(len(decimal.Decimal(v).as_tuple().digits) == 18 for v in values)
    assert_table_as_reference(tmp_path, as_table(values))


def test_write_table_at_powers_of_ten(tmp_path):
    # 10^e and both neighbours, where log10 rounds across a power of ten or
    # the rounding carries a 17th digit into an 18th; among them 1e-4 and
    # 1e16, the first cells `%.17g` writes without, and with, an exponent
    powers = np.array([float(f"1e{e}") for e in range(-6, 18)])
    assert_table_as_reference(tmp_path, as_table(np.concatenate(
        [powers, np.nextafter(powers, 0.0), np.nextafter(powers, math.inf)])))


@pytest.mark.parametrize(
    "command, option, value",
    [("levi-scan", "--samples", "abc"), ("levi-scan", "--samples", "1e3"),
     ("check-pseudoconvex", "--grid-size", "abc"), ("extremal-residual", "--min-margin", "abc"),
     ("levi-scan", "--tol", "abc"), ("soliton-check", "--lam", "abc"),
     ("verify-theorems", "--n", "abc"), ("verify-theorems", "--n", "2.5")],
)
def test_unparsable_value_usage_error(capsys, command, option, value):
    # unparsable text printed `invalid _positive_int value: '1e3'`, naming
    # a private function; it now reads as a value out of range does
    code, _, err = run(capsys, command, "--profile", "powercap:2", option, value)
    assert code == 2
    assert "must be" in err
    assert f"got {value!r}" in err
    assert not re.search(r"_positive|_finite|_dimension", err)


class TestParser:
    def test_one_parser_per_process(self, capsys, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counted(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        hartogs.cli.build_parser.cache_clear()
        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        for argv in (["check-pseudoconvex", "--profile", "rational"],
                     ["levi-scan", "--profile", "affine:1,1", "--samples", "3"],
                     ["no-such-command"],
                     ["extremal-residual", "--profile", "powercap:2", "--samples", "3"]):
            run(capsys, *argv)
        assert built.count("hartogs") == 1
        assert hartogs.cli.build_parser() is hartogs.cli.build_parser()
        assert built.count("hartogs") == 1

    def test_no_state_between_calls(self, capsys):
        _, out, _ = run(capsys, "soliton-check", "--profile", "affine:1,1", "--samples", "4",
                        "--sweep", "--lam", "-2")
        assert "lam=-2," in out
        assert "sweep" in out
        assert run(capsys, "soliton-check", "--profile", "affine:1,1", "--lam", "abc")[0] == 2
        code, out, _ = run(capsys, "soliton-check", "--profile", "affine:1,1")
        assert code == 0
        assert "lam=-3," in out
        assert "sweep" not in out

    def test_help_matches_fresh_parser(self, capsys):
        run(capsys, "levi-scan", "--profile", "affine:1,1", "--samples", "3")
        code, shared, _ = run(capsys, "levi-scan", "--help")
        assert code == 0
        with pytest.raises(SystemExit):
            hartogs.cli.build_parser.__wrapped__().parse_args(["levi-scan", "--help"])
        assert capsys.readouterr().out == shared
        assert "--samples" in shared


SUBCOMMANDS = ["check-pseudoconvex", "curvature-scan", "levi-scan", "extremal-residual",
               "soliton-check", "verify-theorems"]


def parsed(capsys, parse, argv):
    """(exit code, namespace, stdout, stderr) of parse(argv); the code is
    None where it returned, the namespace None where it exited."""
    try:
        code, args = None, vars(parse(argv))
    except SystemExit as exc:
        code, args = exc.code, None
    captured = capsys.readouterr()
    return code, args, captured.out, captured.err


@pytest.mark.parametrize("extra", [
    [], ["-h"], ["--samp", "5"], ["--n=3"], ["--seed"], ["--no-such-option"], ["--tol", "1", "x"],
    ["--n", "1"], ["--", "x"], ["--seed", "1", "--seed", "2"], ["--sweep", "--sweep"],
    ["--seed", "-1"], ["--tol", "-1e3"], ["--out", ""], ["--profile", "--n"], ["--n", "x"],
], ids=lambda extra: " ".join(repr(a) if a == "" else a for a in extra) or "valid")
@pytest.mark.parametrize("command", SUBCOMMANDS)
def test_subcommand_parser_as_top_parser(capsys, command, extra):
    # each subcommand's valid argv, and the help and usage errors argparse
    # words for it: `cli.parse_args` reads the plain ones itself and hands
    # the rest to the top parser; either way the namespace, the exit code
    # and both streams are those of the top parser's parse_args
    argv = [command, "--profile", "powercap:2",
            *(["--out", "x.csv"] if command == "curvature-scan" else []), *extra]
    want = parsed(capsys, hartogs.cli.build_parser().parse_args, argv)
    assert parsed(capsys, hartogs.cli.parse_args, argv) == want
    if want[0] is None:
        assert want[1]["command"] == command and want[1]["func"].__name__.startswith("cmd_")


@pytest.mark.parametrize("argv", [[], ["no-such-command"], ["-h"], ["--profile", "rational"],
                                  ["--help", "levi-scan"]])
def test_no_subcommand_as_top_parser(capsys, argv):
    want = parsed(capsys, hartogs.cli.build_parser().parse_args, argv)
    assert want[0] in (0, 2)
    assert parsed(capsys, hartogs.cli.parse_args, argv) == want


def benchmark_argvs(monkeypatch, tmp_path):
    """Every argv of the benchmark's three workloads at seed 1, as
    `perfbench/workloads.py` builds them, with a CSV path in place of the
    placeholder."""
    spec = importlib.util.spec_from_file_location("bench_workloads",
                                                  ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up by name
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    out = str(tmp_path / "s.csv")
    return [[out if a == workloads.OUT else a for a in inv.argv]
            for name in workloads.WORKLOADS for inv in workloads.build(name, 1)]


def test_benchmark_argvs_parse_without_argparse(monkeypatch, tmp_path):
    # every benchmark invocation is a plain argv: it is read from its
    # subcommand's option table, and neither the subcommand's parser nor
    # the top parser runs its parse, yet the namespace is the top parser's
    argvs = benchmark_argvs(monkeypatch, tmp_path)
    assert {argv[0] for argv in argvs} == set(SUBCOMMANDS)
    parser = hartogs.cli.build_parser()
    want = [parser.parse_args(argv) for argv in argvs]
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    calls = []
    for p in (parser, *subparsers.choices.values()):
        monkeypatch.setitem(vars(p), "parse_known_args", lambda *args: calls.append(args))
    assert [hartogs.cli.parse_args(argv) for argv in argvs] == want
    assert calls == []


def subparser(command):
    """The shared parser's parser of subcommand `command`."""
    return next(a for a in hartogs.cli.build_parser()._actions
                if isinstance(a, argparse._SubParsersAction)).choices[command]


@pytest.mark.parametrize("command", SUBCOMMANDS)
def test_subparsers_take_plain_actions(command):
    # `cli._option_table` reads each subcommand's options as they are: it
    # holds only because every action but help is an option that argparse
    # stores as given, `store_true` or a `store` whose value it only
    # converts with `type`, and no options exclude each other
    assert set(SUBCOMMANDS) == set(next(
        a.choices for a in hartogs.cli.build_parser()._actions
        if isinstance(a, argparse._SubParsersAction)))
    sub = subparser(command)
    for a in sub._actions:
        if type(a) is argparse._HelpAction:
            continue
        assert a.option_strings and a.default is not argparse.SUPPRESS, a.dest
        assert type(a) is argparse._StoreTrueAction or (
            type(a) is argparse._StoreAction and a.nargs is None and a.choices is None
            and not (a.type and isinstance(a.default, str))), a.dest
    assert sub._mutually_exclusive_groups == []


#: values every option of the CLI accepts, and values some or all reject:
#: unconvertible, out of range, `-`-prefixed or empty
VALID_VALUES = ["2", "3", "7"]
ODD_VALUES = ["powercap:2", "affine:1,1", "0", "1", "0.05", "1e-9", "2.5", "x", "", "nan",
              "inf", "-1", "-3", "-0.5", "-1e3", "-x", "--", "0,1:1,0|0,1:0,1"]


def _option_tokens(command, plain):
    """Tokens of one option of `command`: an exact option string with a
    value every option accepts, or a flag alone; unless `plain`, also an
    exact option string with any value, an `=` form, an abbreviation or a
    stray token."""
    sub = subparser(command)
    stores = sorted(o for a in sub._actions if a.nargs is None for o in a.option_strings)
    flags = [(o,) for a in sub._actions if a.const is True for o in a.option_strings]
    tokens = st.one_of(st.tuples(st.sampled_from(stores), st.sampled_from(VALID_VALUES)),
                       st.sampled_from(flags or [()]))
    if plain:
        return tokens
    values = st.sampled_from(VALID_VALUES + ODD_VALUES)
    return st.one_of(
        tokens,
        st.tuples(st.sampled_from(stores), values),
        st.builds(lambda o, v: (f"{o}={v}",), st.sampled_from(stores), values),
        st.builds(lambda o, k: (o[:k],), st.sampled_from(stores), st.integers(3, 6)),
        st.tuples(st.sampled_from(["-h", "--help", "--", "x", "--no-such-option", "-1"])),
    )


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(SUBCOMMANDS))
    required = ["--profile", "powercap:2", *(["--out", "x.csv"] if command == "curvature-scan"
                                             else [])]
    head = [command] + draw(st.sampled_from([required, []]))
    tail = draw(st.lists(_option_tokens(command, draw(st.booleans())), max_size=6))
    return head + [token for tokens in tail for token in tokens]


#: capsys and tmp_path serve every example: each example reads what it wrote
ONE_FIXTURE = [HealthCheck.function_scoped_fixture]


@settings(derandomize=True, max_examples=400, deadline=None, suppress_health_check=ONE_FIXTURE)
@given(argv=argvs())
def test_parse_args_equals_top_parser(capsys, argv):
    # over drawn token sequences of every subcommand, plain or not, the
    # namespace, or the exit code and both streams, are the top parser's
    parser = hartogs.cli.build_parser()
    assert parsed(capsys, hartogs.cli.parse_args, argv) == parsed(capsys, parser.parse_args, argv)


#: a family parameter: log-uniform over [1e-4, 1e3], near 1, or 1 plus 1e-12 to 1e-3
PARAMETERS = st.one_of(st.floats(-4, 3).map(lambda e: 10.0 ** e), st.floats(0.9, 1.1),
                       st.floats(-12, -3).map(lambda e: 1.0 + 10.0 ** e))


@st.composite
def contract_cases(draw):
    """(argv without `--out`, a smaller sample count) over the advertised
    range: a subcommand, a CLI family and its parameters, n in 2..8, a
    margin log-uniform over [1e-3, 0.3], a seed and a sample count, each
    option where the subcommand takes it."""
    command = draw(st.sampled_from(SUBCOMMANDS))
    family = draw(st.sampled_from(["affine", "powercap", "expdecay", "rational"]))
    arity = {"affine": 2, "rational": 0}.get(family, 1)
    params = ",".join(repr(draw(PARAMETERS)) for _ in range(arity))
    samples = draw(st.sampled_from([2, 20, 60]))
    options = {"--n": draw(st.integers(2, 8)), "--samples": samples,
               "--seed": draw(st.integers(0, 2**63)),
               "--min-margin": 10.0 ** draw(st.floats(-3, math.log10(0.3)))}
    taken = subparser(command)._option_string_actions
    argv = [command, "--profile", f"{family}:{params}" if params else family]
    argv += [str(t) for o, v in options.items() if o in taken for t in (o, v)]
    return argv, draw(st.integers(1, samples - 1))


@settings(derandomize=True, max_examples=500, deadline=None, suppress_health_check=ONE_FIXTURE)
@given(case=contract_cases())
def test_cli_contract_over_the_range(capsys, tmp_path, case):
    # every run exits 0, 1 or 2 with no traceback; a run that ends in an
    # error says so in exactly one `error:` line; a rerun gives the same
    # bytes; and a curvature scan of fewer samples is a prefix of it
    argv, fewer = case
    csv_path = tmp_path / "s.csv"
    if "--out" in subparser(argv[0])._option_string_actions:
        argv = [*argv, "--out", str(csv_path)]

    def once():
        csv_path.unlink(missing_ok=True)
        return (*run(capsys, *argv), csv_path.read_bytes() if csv_path.exists() else None)

    first = code, out, err, table = once()
    assert code in (0, 1, 2)
    assert "Traceback" not in out + err
    assert len([line for line in (out + err).splitlines() if "error:" in line]) == bool(err)
    assert bool(err) >= (code == 2) and not (err and code == 0)
    assert once() == first
    if argv[0] == "curvature-scan" and code == 0:
        argv[argv.index("--samples") + 1] = str(fewer)
        few = once()
        assert few[0] == 0
        assert table.splitlines(keepends=True)[: fewer + 1] == few[3].splitlines(keepends=True)


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
