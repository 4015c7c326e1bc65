"""Command-line surface: scans, reports, and theorem-verification suites.

Exit-code contract: 0 when every requested check passes, 1 when a check
fails (or a numerical routine gives up), 2 on usage or parse errors.  CSV
output is UTF-8, comma-separated, LF line endings, one header row, and all
floats printed with 17 significant digits so files are byte-reproducible
and round-trip exactly.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import canonical, curvature
from .boundary import defining_residual, restricted_levi_min_eigenvalue, sample_boundary
from .canonical import HoloVectorField, SolitonParams
from .errors import HartogsError
from .metric import assemble_metric, metric_fd_oracle, sample_interior
from .profiles import Affine, Profile, interior_grid, is_strongly_pseudoconvex, parse_profile

#: two-tier residual thresholds shared by the classification checks
PASS_ZERO = 1e-8
FAIL_FLOOR = 1e-3


def fmt(value: float) -> str:
    """17-significant-digit rendering; round-trips float64 exactly."""
    return f"{value:.17g}"


def _positive_int(text: str) -> int:
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if not (math.isfinite(value) and value > 0.0):
        raise argparse.ArgumentTypeError(f"must be a finite positive number, got {text!r}")
    return value


def _dimension(text: str) -> int:
    value = int(text)
    if value < 2:
        raise argparse.ArgumentTypeError(f"dimension must be >= 2, got {text!r}")
    return value


def _write_csv(path: str, header: list[str], rows: list[list[str]]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _coord_columns(n: int) -> list[str]:
    cols = []
    for k in range(n):
        cols.extend([f"re_z{k}", f"im_z{k}"])
    return cols


def _coord_cells(z) -> list[str]:
    cells = []
    for zk in z:
        c = complex(zk)
        cells.extend([fmt(c.real), fmt(c.imag)])
    return cells


def cmd_check_pseudoconvex(args) -> int:
    profile = parse_profile(args.profile)
    grid = interior_grid(profile, args.grid_size)
    scan = is_strongly_pseudoconvex(profile, grid, args.tol)
    verdict = "PASS" if scan.ok else "FAIL"
    print(
        f"check-pseudoconvex {profile.label()}: min margin {scan.min_margin:.12g} "
        f"at x={scan.x_at_min:.12g} (tol {args.tol:g}) -> {verdict}"
    )
    return 0 if scan.ok else 1


def cmd_curvature_scan(args) -> int:
    profile = parse_profile(args.profile)
    points = sample_interior(profile, args.n, args.samples, args.seed, args.min_margin)
    header = (
        ["profile", "n"]
        + _coord_columns(args.n)
        + ["gap", "x", "det", "scal"]
        + [f"rho_{k}" for k in range(args.n)]
        + ["einstein_res", "extremal_res"]
    )
    rows = []
    for p in points:
        m = assemble_metric(profile, p)
        data = curvature.curvature_at(profile, p, m)
        cells = [profile.label(), str(args.n)]
        cells += _coord_cells(p.z)
        cells += [fmt(p.gap), fmt(p.x), fmt(m.det), fmt(data.scal)]
        cells += [fmt(v) for v in data.rho]
        cells += [fmt(data.einstein), fmt(data.extremal)]
        numeric = [p.gap, p.x, m.det, data.scal, *data.rho, data.einstein, data.extremal]
        if not all(math.isfinite(v) for v in numeric):
            raise HartogsError(f"non-finite scan value at sample {len(rows)}")
        rows.append(cells)
    _write_csv(args.out, header, rows)
    print(f"curvature-scan {profile.label()}: wrote {len(rows)} rows to {args.out}")
    return 0


def cmd_levi_scan(args) -> int:
    profile = parse_profile(args.profile)
    samples = sample_boundary(profile, args.n, args.samples, args.seed)
    header = ["profile", "n"] + _coord_columns(args.n) + ["x", "defining_residual", "min_eig"]
    rows = []
    worst = math.inf
    for b in samples:
        eig = restricted_levi_min_eigenvalue(profile, b)
        worst = min(worst, eig)
        cells = [profile.label(), str(args.n)]
        cells += _coord_cells(b.z)
        cells += [fmt(b.x), fmt(defining_residual(profile, b.z)), fmt(eig)]
        rows.append(cells)
    if args.out:
        _write_csv(args.out, header, rows)
    ok = worst > args.tol
    print(
        f"levi-scan {profile.label()}: {len(samples)} boundary samples, "
        f"min restricted-Levi eigenvalue {worst:.12g} -> {'PASS' if ok else 'FAIL'}"
    )
    return 0 if ok else 1


def cmd_extremal_residual(args) -> int:
    profile = parse_profile(args.profile)
    points = sample_interior(profile, args.n, args.samples, args.seed, args.min_margin)
    header = ["profile", "n"] + _coord_columns(args.n) + ["gap", "x", "extremal_res"]
    rows = []
    values = []
    for p in points:
        res = canonical.extremal_residual(profile, p)
        values.append(res)
        cells = [profile.label(), str(args.n)]
        cells += _coord_cells(p.z)
        cells += [fmt(p.gap), fmt(p.x), fmt(res)]
        rows.append(cells)
    if args.out:
        _write_csv(args.out, header, rows)
    values.sort()
    print(
        f"extremal-residual {profile.label()}: {len(values)} samples, "
        f"max {values[-1]:.6g}, median {values[len(values) // 2]:.6g}"
    )
    return 0


def cmd_soliton_check(args) -> int:
    profile = parse_profile(args.profile)
    lam = args.lam if args.lam is not None else -(args.n + 1)
    field = (
        HoloVectorField.from_text(args.field, args.n, args.degree)
        if args.field
        else HoloVectorField.zero(args.n)
    )
    params = SolitonParams(lam=lam, field=field)
    points = sample_interior(profile, args.n, args.samples, args.seed, args.min_margin)
    worst = max(canonical.soliton_residual(profile, p, params) for p in points)
    ok = worst <= args.tol
    print(
        f"soliton-check {profile.label()}: lam={lam:g}, {len(points)} samples, "
        f"max residual {worst:.6g} (tol {args.tol:g}) -> {'PASS' if ok else 'FAIL'}"
    )
    if args.sweep:
        sweep = canonical.soliton_sweep(
            profile, args.n, args.samples, args.seed, args.degree, args.min_margin
        )
        print(
            f"  least-squares sweep over degree<={args.degree} fields: "
            f"residual floor {sweep.residual:.6g} at lam={sweep.lam:.6g}"
        )
    return 0 if ok else 1


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


def run_verification(
    profile: Profile, n: int, samples: int, seed: int, min_margin: float = 0.05
) -> list[CheckResult]:
    """The full oracle/invariant suite behind `verify-theorems`."""
    points = sample_interior(profile, n, samples, seed, min_margin)
    affine = isinstance(profile, Affine)
    results: list[CheckResult] = []

    worst_h = worst_det = worst_inv = worst_ric = worst_rho = worst_scal = 0.0
    worst_tail = worst_t_zbar = 0.0
    einstein_vals = []
    extremal_vals = []
    eye = np.eye(n)

    for p in points:
        m = assemble_metric(profile, p)
        data = curvature.curvature_at(profile, p, m)
        ric = data.ric
        h_fd = metric_fd_oracle(profile, p)
        worst_h = max(
            worst_h, np.linalg.norm(m.h - h_fd) / (1.0 + np.linalg.norm(m.h))
        )
        dense_det = float(np.linalg.det(m.h).real)
        worst_det = max(worst_det, abs(m.det - dense_det) / (1.0 + abs(m.det)))
        worst_inv = max(worst_inv, float(np.linalg.norm(m.h @ m.h_inv - eye)))
        ric_fd = curvature.ricci_fd_oracle(profile, p)
        worst_ric = max(
            worst_ric, np.linalg.norm(ric - ric_fd) / (1.0 + np.linalg.norm(ric))
        )
        tail = ric[1:, :] + (n + 1) * m.h[1:, :]
        worst_tail = max(worst_tail, float(np.max(np.abs(tail))))
        fitted = curvature.rho_oracle(m, ric)
        worst_rho = max(
            worst_rho,
            float(np.max(np.abs(data.rho - fitted))) / (1.0 + float(np.max(np.abs(data.rho)))),
        )
        # the direct scal against the trace and slope forms, algebraically
        # identical to it: a deviation means a broken assembly
        scal_trace = float(np.trace(m.h_inv @ ric).real)
        scal_slope_form = -n * (n + 1) + data.slope * p.gap
        deviation = max(abs(data.scal - scal_trace), abs(data.scal - scal_slope_form))
        worst_scal = max(worst_scal, deviation / (1.0 + abs(data.scal)))
        t_zbar_fd = curvature.extremal_fd_oracle(profile, p)
        worst_t_zbar = max(
            worst_t_zbar, float(np.max(np.abs(t_zbar_fd - data.t_zbar))) / (1.0 + data.extremal)
        )
        einstein_vals.append(data.einstein)
        extremal_vals.append(data.extremal)

    results.append(
        CheckResult("metric_vs_fd_hessian", worst_h <= 1e-11, f"worst rel {worst_h:.3e} (tol 1e-11)")
    )
    results.append(
        CheckResult(
            "determinant_closed_vs_dense", worst_det <= 1e-10, f"worst rel {worst_det:.3e} (tol 1e-10)"
        )
    )
    results.append(
        CheckResult("inverse_identity", worst_inv <= 1e-10, f"worst ||h hinv - I|| {worst_inv:.3e}")
    )
    results.append(
        CheckResult("ricci_vs_fd", worst_ric <= 1e-11, f"worst rel {worst_ric:.3e} (tol 1e-11)")
    )
    results.append(
        CheckResult(
            "ricci_tail_rows", worst_tail <= 1e-9, f"worst |Ric + (n+1)h| {worst_tail:.3e} (rows >= 1)"
        )
    )
    results.append(
        CheckResult("rho_closed_vs_fit", worst_rho <= 1e-8, f"worst rel {worst_rho:.3e} (tol 1e-08)")
    )
    results.append(
        CheckResult("scal_forms", worst_scal <= 1e-9, f"worst rel {worst_scal:.3e} (tol 1e-09)")
    )
    results.append(
        CheckResult(
            "extremal_vs_fd", worst_t_zbar <= 1e-7, f"worst rel {worst_t_zbar:.3e} (tol 1e-07)"
        )
    )

    max_extremal = max(extremal_vals)
    if affine:
        results.append(
            CheckResult(
                "extremal_classification",
                max_extremal <= PASS_ZERO,
                f"affine profile, max residual {max_extremal:.3e} (PASS-zero at {PASS_ZERO:g})",
            )
        )
    else:
        big = sum(1 for v in extremal_vals if v >= FAIL_FLOOR)
        frac = big / len(extremal_vals)
        results.append(
            CheckResult(
                "extremal_classification",
                frac >= 0.9,
                f"non-affine profile, residual >= {FAIL_FLOOR:g} at {frac:.0%} of samples (PASS-nonzero)",
            )
        )

    max_einstein = max(einstein_vals)
    if affine:
        results.append(
            CheckResult(
                "einstein_classification",
                max_einstein <= 1e-9,
                f"affine profile, max residual {max_einstein:.3e}",
            )
        )
    else:
        results.append(
            CheckResult(
                "einstein_classification",
                max_einstein >= FAIL_FLOOR,
                f"non-affine profile, max residual {max_einstein:.3e} (PASS-nonzero)",
            )
        )

    if affine:
        worst_pullback = max(
            canonical.pullback_check(profile.c1, profile.c2, p) for p in points
        )
        results.append(
            CheckResult(
                "pullback_isometry",
                worst_pullback <= 1e-10,
                f"worst rel {worst_pullback:.3e} (tol 1e-10)",
            )
        )

    return results


def cmd_verify_theorems(args) -> int:
    profile = parse_profile(args.profile)
    results = run_verification(profile, args.n, args.samples, args.seed, args.min_margin)
    width = max(len(r.name) for r in results)
    for r in results:
        print(f"{'PASS' if r.passed else 'FAIL'}  {r.name:<{width}}  {r.detail}")
    failed = [r.name for r in results if not r.passed]
    if failed:
        print(f"verify-theorems {profile.label()}: FAILED ({', '.join(failed)})")
        return 1
    print(f"verify-theorems {profile.label()}: all {len(results)} checks passed")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hartogs",
        description="Numerical verification of the Kahler geometry of profile domains.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, out_required=False, out=True):
        p.add_argument("--profile", required=True, help="family:params, e.g. affine:1,1")
        p.add_argument("--n", type=_dimension, default=2, help="complex dimension (>= 2)")
        p.add_argument("--samples", type=_positive_int, default=50)
        p.add_argument("--seed", type=int, default=0)
        if out:
            p.add_argument("--out", required=out_required, help="CSV output path")

    def interior(p, out_required=False, out=True):
        """`common` plus the margin of the sampled interior points."""
        common(p, out_required, out)
        p.add_argument("--min-margin", type=_positive_float, default=0.05, dest="min_margin")

    p = sub.add_parser("check-pseudoconvex", help="scan the pseudoconvexity margin on a grid")
    p.add_argument("--profile", required=True)
    p.add_argument("--grid-size", type=_positive_int, default=200, dest="grid_size")
    p.add_argument("--tol", type=float, default=1e-9)
    p.set_defaults(func=cmd_check_pseudoconvex)

    p = sub.add_parser("curvature-scan", help="per-sample curvature report as CSV")
    interior(p, out_required=True)
    p.set_defaults(func=cmd_curvature_scan)

    p = sub.add_parser("levi-scan", help="restricted Levi eigenvalues over boundary samples")
    common(p)
    p.add_argument("--tol", type=float, default=1e-9)
    p.set_defaults(func=cmd_levi_scan)

    p = sub.add_parser("extremal-residual", help="extremal-metric residual over interior samples")
    interior(p)
    p.set_defaults(func=cmd_extremal_residual)

    p = sub.add_parser("soliton-check", help="soliton residual for a given (lam, field) pair")
    interior(p, out=False)
    p.add_argument("--lam", type=float, default=None, help="soliton constant (default -(n+1))")
    p.add_argument("--field", default="", help="holomorphic field, '|'-separated components")
    p.add_argument("--degree", type=_positive_int, default=2)
    p.add_argument("--tol", type=float, default=PASS_ZERO)
    p.add_argument("--sweep", action="store_true", help="least-squares search over fields")
    p.set_defaults(func=cmd_soliton_check)

    p = sub.add_parser("verify-theorems", help="run the full oracle and classification suite")
    interior(p, out=False)
    p.set_defaults(func=cmd_verify_theorems)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.func(args)
    except HartogsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
