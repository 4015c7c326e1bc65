"""Command-line surface: scans, reports, and theorem-verification suites.

Exit-code contract: 0 when every requested check passes, 1 when a check
fails (or a numerical routine gives up, overflows or divides by zero), 2
on usage or parse errors.  CSV output is UTF-8, comma-separated, LF line
endings, one header row, and all floats printed with 17 significant
digits so files are byte-reproducible and round-trip exactly.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from . import canonical, curvature
from .boundary import defining_residual, restricted_levi_min_eigenvalue, sample_boundary
from .canonical import HoloVectorField
from .curvature import CurvatureData
from .errors import HartogsError
from .metric import (
    DomainPoint, MetricData, assemble_metric, blocks, frobenius_norm, metric_fd_oracle,
    sample_interior, stack,
)
from .profiles import Affine, Profile, interior_grid, is_strongly_pseudoconvex, parse_profile

#: two-tier residual thresholds shared by the classification checks; an
#: obstruction needs OBSTRUCTION_SHARE of the samples at FAIL_FLOOR or above
PASS_ZERO = 1e-8
FAIL_FLOOR = 1e-3
OBSTRUCTION_SHARE = 0.9


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


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
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


def _curvature_blocks(profile: Profile, points: list[DomainPoint]):
    """(points, stacked record, metric, curvature) for each run of at most
    `metric.BLOCK` points, in order."""
    for chunk in blocks(points):
        p = stack(chunk)
        m = assemble_metric(profile, p)
        yield chunk, p, m, curvature.curvature_at(profile, p, m)


def _first_nonfinite(values: np.ndarray) -> int | None:
    """Index of the first row of values[N, ...] with a non-finite entry."""
    finite = np.isfinite(values.reshape(len(values), -1)).all(axis=1)
    return None if finite.all() else int(np.argmin(finite))


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
    label = profile.label()
    points = sample_interior(profile, args.n, args.samples, args.seed, args.min_margin)
    header = (
        ["profile", "n"]
        + _coord_columns(args.n)
        + ["gap", "x", "det", "scal"]
        + [f"rho_{k}" for k in range(args.n)]
        + ["einstein_res", "extremal_res"]
    )
    rows = []
    for _, p, m, data in _curvature_blocks(profile, points):
        numeric = np.column_stack(
            [p.gap, p.x, m.det, data.scal, data.rho, data.einstein, data.extremal]
        )
        bad = _first_nonfinite(numeric)
        if bad is not None:
            raise HartogsError(f"non-finite scan value at sample {len(rows) + bad}")
        for z, values in zip(p.z, numeric.tolist()):
            rows.append([label, str(args.n), *_coord_cells(z), *map(fmt, values)])
    _write_csv(args.out, header, rows)
    print(f"curvature-scan {label}: wrote {len(rows)} rows to {args.out}")
    return 0


def cmd_levi_scan(args) -> int:
    profile = parse_profile(args.profile)
    label = profile.label()
    samples = sample_boundary(profile, args.n, args.samples, args.seed)
    eigs = [restricted_levi_min_eigenvalue(profile, b) for b in samples]
    if args.out:
        header = ["profile", "n"] + _coord_columns(args.n) + ["x", "defining_residual", "min_eig"]
        rows = [
            [label, str(args.n), *_coord_cells(b.z),
             fmt(b.x), fmt(defining_residual(profile, b.z)), fmt(eig)]
            for b, eig in zip(samples, eigs)
        ]
        _write_csv(args.out, header, rows)
    worst = float(np.min(eigs))  # NaN propagates: a non-finite eigenvalue fails
    ok = worst > args.tol
    print(
        f"levi-scan {label}: {len(samples)} boundary samples, "
        f"min restricted-Levi eigenvalue {worst:.12g} -> {'PASS' if ok else 'FAIL'}"
    )
    return 0 if ok else 1


def cmd_extremal_residual(args) -> int:
    profile = parse_profile(args.profile)
    label = profile.label()
    points = sample_interior(profile, args.n, args.samples, args.seed, args.min_margin)
    header = ["profile", "n"] + _coord_columns(args.n) + ["gap", "x", "extremal_res"]
    rows = []
    values = []
    for _, p, _, data in _curvature_blocks(profile, points):
        bad = _first_nonfinite(data.extremal)
        if bad is not None:
            raise HartogsError(f"non-finite extremal residual at sample {len(values) + bad}")
        values += data.extremal.tolist()
        for z, gap, x, res in zip(p.z, p.gap.tolist(), p.x.tolist(), data.extremal.tolist()):
            rows.append([label, str(args.n), *_coord_cells(z), fmt(gap), fmt(x), fmt(res)])
    if args.out:
        _write_csv(args.out, header, rows)
    values.sort()
    print(
        f"extremal-residual {label}: {len(values)} samples, "
        f"max {values[-1]:.6g}, median {values[len(values) // 2]:.6g}"
    )
    return 0


def cmd_soliton_check(args) -> int:
    if args.sweep and args.samples < 2:
        raise ValueError(f"--sweep needs at least 2 samples, got {args.samples}")
    profile = parse_profile(args.profile)
    lam = args.lam if args.lam is not None else -(args.n + 1)
    field = (
        HoloVectorField.from_text(args.field, args.n)
        if args.field
        else HoloVectorField.zero(args.n)
    )
    points = sample_interior(profile, args.n, args.samples, args.seed, args.min_margin)
    residuals = [canonical.soliton_residual(profile, stack(chunk), lam, field)
                 for chunk in blocks(points)]
    # NaN propagates: a non-finite residual fails
    worst = float(np.max(np.concatenate(residuals)))
    ok = worst <= args.tol
    print(
        f"soliton-check {profile.label()}: lam={lam:g}, {len(points)} samples, "
        f"max residual {worst:.6g} (tol {args.tol:g}) -> {'PASS' if ok else 'FAIL'}"
    )
    if args.sweep:
        sweep = canonical.soliton_sweep(profile, points)
        print(
            f"  least-squares sweep over all holomorphic fields (invariant fit "
            f"a={sweep.a:.6g}, b={sweep.b:.6g}): "
            f"residual floor {sweep.residual:.6g} at lam={sweep.lam:.6g}"
        )
    return 0 if ok else 1


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class Check:
    """One `verify-theorems` check: a measure that takes one block of
    samples, `(profile, points, p, m, data)` with their single records,
    their stacked record p, its metric m and its curvature data, and
    returns one value per sample; and how the values reduce to a verdict.
    A bound passes when the largest value is at most `tol`; an obstruction
    passes when at least OBSTRUCTION_SHARE of the values are at least `tol`."""

    name: str
    label: str
    tol: float
    measure: Callable[
        [Profile, Sequence[DomainPoint], DomainPoint, MetricData, CurvatureData], Sequence[float]
    ]
    obstruction: bool = False

    def result(self, values: list[float]) -> CheckResult:
        if self.obstruction:
            share = sum(v >= self.tol for v in values) / len(values)
            return CheckResult(self.name, share >= OBSTRUCTION_SHARE,
                               f"{self.label} >= {self.tol:g} at {share:.0%} of samples "
                               f"(PASS-nonzero, min {OBSTRUCTION_SHARE:.0%})")
        worst = float(np.max(values))  # NaN propagates: a non-finite measure fails
        return CheckResult(self.name, worst <= self.tol,
                           f"worst {self.label} {worst:.3e} (tol {self.tol:g})")


def _rel(x: np.ndarray, ref: np.ndarray) -> float:
    """||x - ref||_F / (1 + ||x||_F)."""
    return float(np.linalg.norm(x - ref) / (1.0 + np.linalg.norm(x)))


def _rel_max(x: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """max |x - ref| / (1 + max |x|) over the trailing axes, per point."""
    axes = tuple(range(1, x.ndim))
    return np.max(np.abs(x - ref), axis=axes) / (1.0 + np.max(np.abs(x), axis=axes))


def _scal_forms(profile, points, p, m, data) -> list[float]:
    """The direct scal against the trace and slope forms, algebraically
    identical to it: a deviation means a broken assembly."""
    values = []
    for q, h_inv, ric, scal, slope in zip(points, m.h_inv, data.ric, data.scal, data.slope):
        trace_form = float(np.trace(h_inv @ ric).real)
        slope_form = -q.n * (q.n + 1) + slope * q.gap
        values.append(max(abs(scal - trace_form), abs(scal - slope_form)) / (1.0 + abs(scal)))
    return values


# The measures look their oracles up by module attribute at call time, so
# that a function wrapped or replaced on its module is the one called.  The
# jet and finite-difference oracles take one point at a time.
ORACLE_CHECKS = (
    Check("metric_vs_fd_hessian", "rel", 1e-11,
          lambda prof, pts, p, m, d: [_rel(h, metric_fd_oracle(prof, q))
                                      for q, h in zip(pts, m.h)]),
    Check("determinant_closed_vs_dense", "rel", 1e-10,
          lambda prof, pts, p, m, d: np.abs(m.det - np.linalg.det(m.h).real)
          / (1.0 + np.abs(m.det))),
    Check("inverse_identity", "||h hinv - I||", 1e-10,
          lambda prof, pts, p, m, d: frobenius_norm(m.h @ m.h_inv - np.eye(p.n))),
    Check("ricci_vs_fd", "rel", 1e-11,
          lambda prof, pts, p, m, d: [_rel(ric, curvature.ricci_fd_oracle(prof, q))
                                      for q, ric in zip(pts, d.ric)]),
    Check("ricci_tail_rows", "fiber-row |Ric + (n+1)h|", 1e-9,
          lambda prof, pts, p, m, d: np.max(np.abs(d.ric[:, 1:] + (p.n + 1) * m.h[:, 1:]),
                                            axis=(1, 2))),
    Check("rho_closed_vs_fit", "rel", 1e-8,
          lambda prof, pts, p, m, d: _rel_max(d.rho, curvature.rho_oracle(m, d.ric))),
    Check("scal_forms", "rel", 1e-9, _scal_forms),
    Check("extremal_vs_fd", "rel", 1e-7,
          lambda prof, pts, p, m, d: _rel_max(
              d.t_zbar, np.array([curvature.extremal_fd_oracle(prof, q) for q in pts]))),
)

#: the classification checks as their bounds on affine profiles; on every
#: other profile each is an obstruction at FAIL_FLOOR
CLASSIFICATIONS = (
    Check("extremal_classification", "extremal residual", PASS_ZERO,
          lambda prof, pts, p, m, d: d.extremal),
    Check("einstein_classification", "||Ric + (n+1)h||", 1e-9,
          lambda prof, pts, p, m, d: frobenius_norm(d.ric + (p.n + 1) * m.h)),
)


def run_verification(
    profile: Profile, n: int, samples: int, seed: int, min_margin: float = 0.05
) -> list[CheckResult]:
    """The full oracle/invariant suite behind `verify-theorems`."""
    points = sample_interior(profile, n, samples, seed, min_margin)
    affine = isinstance(profile, Affine)
    checks = list(ORACLE_CHECKS)
    for check in CLASSIFICATIONS:
        checks.append(check if affine else replace(check, tol=FAIL_FLOOR, obstruction=True))
    if affine:
        checks.append(Check(
            "pullback_isometry", "rel", 1e-10,
            lambda prof, pts, p, m, d: canonical.pullback_check(prof.c1, prof.c2, p),
        ))

    values: list[list[float]] = [[] for _ in checks]
    for chunk, p, m, data in _curvature_blocks(profile, points):
        for check, vals in zip(checks, values):
            vals += np.asarray(check.measure(profile, chunk, p, m, data), dtype=float).tolist()
    return [check.result(vals) for check, vals in zip(checks, values)]


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
    p.add_argument("--tol", type=_finite_float, default=1e-9)
    p.set_defaults(func=cmd_check_pseudoconvex)

    p = sub.add_parser("curvature-scan", help="per-sample curvature report as CSV")
    interior(p, out_required=True)
    p.set_defaults(func=cmd_curvature_scan)

    p = sub.add_parser("levi-scan", help="restricted Levi eigenvalues over boundary samples")
    common(p)
    p.add_argument("--tol", type=_finite_float, default=1e-9)
    p.set_defaults(func=cmd_levi_scan)

    p = sub.add_parser("extremal-residual", help="extremal-metric residual over interior samples")
    interior(p)
    p.set_defaults(func=cmd_extremal_residual)

    p = sub.add_parser("soliton-check", help="soliton residual for a given (lam, field) pair")
    interior(p, out=False)
    p.add_argument("--lam", type=_finite_float, default=None, help="soliton constant (default -(n+1))")
    p.add_argument("--field", default="", help="holomorphic field, '|'-separated components")
    p.add_argument("--tol", type=_finite_float, default=PASS_ZERO)
    p.add_argument("--sweep", action="store_true",
                   help="least-squares search over all holomorphic fields (>= 2 samples)")
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
    except ArithmeticError as exc:
        print(f"error: numeric failure ({type(exc).__name__}: {exc})", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
