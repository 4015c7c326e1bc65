"""Command-line surface: scans, reports, and theorem-verification suites.

Exit-code contract: 0 when every requested check passes, 1 when a check
fails (or a numerical routine gives up, overflows or divides by zero), 2
on usage or parse errors.  CSV output is UTF-8, comma-separated, LF line
endings, one header row, and all floats printed with 17 significant
digits (`%.17g`, CELL_FORMAT) so files are byte-reproducible and
round-trip exactly.  `_write_table` formats each row with one `%` on a
row template built from CELL_FORMAT, giving the same bytes as `fmt` per
cell.  The argument parser is built once per process (`build_parser`)
and shared by every `main` call.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import math
import sys
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from . import canonical, curvature, metric
from .boundary import restricted_levi_min_eigenvalue, sample_boundary
from .canonical import HoloVectorField
from .curvature import CurvatureData
from .errors import HartogsError
from .metric import (
    DomainPoint, MetricData, assemble_metric, blocks, frobenius_norm, relative_norm,
    sample_interior,
)
from .profiles import Affine, Profile, interior_grid, is_strongly_pseudoconvex, parse_profile

#: two-tier residual thresholds shared by the classification checks; an
#: obstruction needs OBSTRUCTION_SHARE of the samples at FAIL_FLOOR or above
PASS_ZERO = 1e-8
FAIL_FLOOR = 1e-3
OBSTRUCTION_SHARE = 0.9


#: the rendering of every float the CLI writes to a CSV: 17 significant
#: digits, which round-trip float64 exactly
CELL_FORMAT = "%.17g"


def fmt(value: float) -> str:
    """One cell rendered with CELL_FORMAT."""
    return CELL_FORMAT % value


def _checked(convert, ok, wording: str):
    """An argparse `type`: `convert` the text and require `ok` of the value.
    Text that does not convert fails with the same wording as a value out
    of range, so no usage error names this module's functions."""
    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            value = None
        if value is None or not ok(value):
            raise argparse.ArgumentTypeError(f"{wording}, got {text!r}")
        return value
    return parse


_positive_int = _checked(int, lambda v: v > 0, "must be a positive integer")
_seed = _checked(int, lambda v: v >= 0, "must be a non-negative integer")
_positive_float = _checked(float, lambda v: math.isfinite(v) and v > 0.0,
                           "must be a finite positive number")
_finite_float = _checked(float, math.isfinite, "must be a finite number")
_dimension = _checked(int, lambda v: v >= 2, "dimension must be >= 2")


def _row_template(label: str, n: int, width: int) -> str:
    """The `%` template of one CSV row: the `label,n` pair as `csv.writer`
    quotes it, `%` escaped, then `width` cells of CELL_FORMAT."""
    prefix = io.StringIO()
    csv.writer(prefix, lineterminator="").writerow([label, str(n)])
    return prefix.getvalue().replace("%", "%%") + ("," + CELL_FORMAT) * width + "\n"


def _write_table(path: str, label: str, z: np.ndarray, columns: list[str], values: np.ndarray):
    """Write the CSV of N points: the header `profile, n, re_z0, im_z0,
    ..., columns`, then for point i the label, n, the parts of z[i] and
    values[i, :].  Cells are formatted here, and only here, one `%` per row
    on `_row_template`; the bytes are those of `fmt` on each cell."""
    n = z.shape[-1]
    header = ["profile", "n", *(f"{part}_z{k}" for k in range(n) for part in ("re", "im")),
              *columns]
    cells = np.column_stack([np.stack([z.real, z.imag], axis=-1).reshape(len(z), 2 * n), values])
    row = _row_template(label, n, cells.shape[1])
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerow(header)
        fh.writelines([row % tuple(r) for r in cells.tolist()])


def _curvature_blocks(profile: Profile, points: DomainPoint):
    """(stacked record, metric, curvature) for each run of points of
    `metric.blocks`, in order."""
    for p in blocks(points):
        m = assemble_metric(profile, p)
        yield p, m, curvature.curvature_at(profile, p, m)


def _curvature_table(profile: Profile, points: DomainPoint, what: str, columns):
    """(z[N, n], values[N, k]) over all N points, values[:, j] the column
    columns(p, m, data)[j] of each block in order.  A non-finite value
    raises HartogsError naming `what` and the first sample that has one."""
    z, values = [], []
    for p, m, data in _curvature_blocks(profile, points):
        z.append(p.z)
        values.append(np.column_stack(columns(p, m, data)))
    values = np.concatenate(values)
    finite = np.isfinite(values).all(axis=1)
    if not finite.all():
        raise HartogsError(f"non-finite {what} at sample {int(np.argmin(finite))}")
    return np.concatenate(z), values


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
    z, values = _curvature_table(
        profile, points, "scan value",
        lambda p, m, d: [p.gap, p.x, m.det, d.scal, d.rho, d.einstein, d.extremal],
    )
    columns = (["gap", "x", "det", "scal"] + [f"rho_{k}" for k in range(args.n)]
               + ["einstein_res", "extremal_res"])
    _write_table(args.out, label, z, columns, values)
    print(f"curvature-scan {label}: wrote {len(values)} rows to {args.out}")
    return 0


def cmd_levi_scan(args) -> int:
    profile = parse_profile(args.profile)
    label = profile.label()
    samples = sample_boundary(profile, args.n, args.samples, args.seed)
    eigs = restricted_levi_min_eigenvalue(profile, samples)
    if args.out:
        # the defining residual rho = -gap, read from the record
        _write_table(args.out, label, samples.z, ["x", "defining_residual", "min_eig"],
                     np.column_stack([samples.x, -samples.gap, eigs]))
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
    z, values = _curvature_table(profile, points, "extremal residual",
                                 lambda p, m, d: [p.gap, p.x, d.extremal])
    if args.out:
        _write_table(args.out, label, z, ["gap", "x", "extremal_res"], values)
    residuals = sorted(values[:, -1].tolist())
    print(
        f"extremal-residual {label}: {len(residuals)} samples, "
        f"max {residuals[-1]:.6g}, median {residuals[len(residuals) // 2]:.6g}"
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
    residuals = [canonical.soliton_residual(profile, p, lam, field) for p in blocks(points)]
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
    samples, `(profile, p, m, data)` with their stacked record p, its
    metric m and its curvature data, and returns one value per sample; and
    how the values reduce to a verdict.
    A bound passes when the largest value is at most `tol`; an obstruction
    passes when at least OBSTRUCTION_SHARE of the values are at least `tol`."""

    name: str
    label: str
    tol: float
    measure: Callable[[Profile, DomainPoint, MetricData, CurvatureData], Sequence[float]]
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


def _rel_max(x: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """max |x - ref| / (1 + max |x|) over the trailing axes, per point."""
    axes = tuple(range(1, x.ndim))
    return np.max(np.abs(x - ref), axis=axes) / (1.0 + np.max(np.abs(x), axis=axes))


def _scal_forms(profile, p, m, data) -> np.ndarray:
    """The direct scal against the trace and slope forms, algebraically
    identical to it: a deviation means a broken assembly."""
    trace_form = np.trace(m.h_inv @ data.ric, axis1=-2, axis2=-1).real
    slope_form = -p.n * (p.n + 1) + data.slope * p.gap
    deviation = np.maximum(np.abs(data.scal - trace_form), np.abs(data.scal - slope_form))
    return deviation / (1.0 + np.abs(data.scal))


# The measures look their oracles up by module attribute at call time, so
# that a function wrapped or replaced on its module is the one called.  Each
# oracle takes the whole stacked record of a block in one call.
ORACLE_CHECKS = (
    Check("metric_vs_fd_hessian", "rel", 1e-11,
          lambda prof, p, m, d: relative_norm(
              m.h - metric.metric_fd_oracle(prof, p), m.h)),
    Check("determinant_closed_vs_dense", "rel", 1e-10,
          lambda prof, p, m, d: np.abs(m.det - np.linalg.det(m.h).real)
          / (1.0 + np.abs(m.det))),
    Check("inverse_identity", "||h hinv - I||", 1e-10,
          lambda prof, p, m, d: frobenius_norm(m.h @ m.h_inv - np.eye(p.n))),
    Check("ricci_vs_fd", "rel", 1e-11,
          lambda prof, p, m, d: relative_norm(
              d.ric - curvature.ricci_fd_oracle(prof, p), d.ric)),
    Check("ricci_tail_rows", "fiber-row |Ric + (n+1)h|", 1e-9,
          lambda prof, p, m, d: np.max(np.abs(d.ric[:, 1:] + (p.n + 1) * m.h[:, 1:]),
                                       axis=(1, 2))),
    Check("rho_closed_vs_fit", "rel", 1e-8,
          lambda prof, p, m, d: _rel_max(d.rho, curvature.rho_oracle(m, d.ric))),
    Check("scal_forms", "rel", 1e-9, _scal_forms),
    Check("extremal_vs_jet", "rel", 1e-10,
          lambda prof, p, m, d: curvature.jacobian_max(
              p, d.dbar - curvature.extremal_jet_oracle(prof, p)) / (1.0 + d.extremal)),
)

#: the classification checks as their bounds on affine profiles; on every
#: other profile each is an obstruction at FAIL_FLOOR
CLASSIFICATIONS = (
    Check("extremal_classification", "extremal residual", PASS_ZERO,
          lambda prof, p, m, d: d.extremal),
    Check("einstein_classification", "||Ric + (n+1)h||", 1e-9,
          lambda prof, p, m, d: frobenius_norm(d.ric + (p.n + 1) * m.h)),
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
            lambda prof, p, m, d: canonical.pullback_check(prof.c1, prof.c2, p),
        ))

    values: list[list[float]] = [[] for _ in checks]
    for p, m, data in _curvature_blocks(profile, points):
        for check, vals in zip(checks, values):
            vals += np.asarray(check.measure(profile, p, m, data), dtype=float).tolist()
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `hartogs` parser, built on the first call and shared by every
    later call and every `main` in the process: do not mutate it.  Parsing
    leaves it unchanged, and each subcommand's `func` looks the library
    up by module attribute at call time."""
    parser = argparse.ArgumentParser(
        prog="hartogs",
        description="Numerical verification of the Kahler geometry of profile domains.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, out_required=False, out=True):
        p.add_argument("--profile", required=True, help="family:params, e.g. affine:1,1")
        p.add_argument("--n", type=_dimension, default=2, help="complex dimension (>= 2)")
        p.add_argument("--samples", type=_positive_int, default=50)
        p.add_argument("--seed", type=_seed, default=0)
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
    except MemoryError as exc:
        print(f"error: out of memory ({exc})", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
