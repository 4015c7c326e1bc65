"""Command-line surface: scans, reports, and theorem-verification suites.

Exit-code contract: 0 when every requested check passes, 1 when a check
fails (or a numerical routine gives up, overflows or divides by zero), 2
on usage or parse errors.  CSV output is UTF-8, comma-separated, LF line
endings, one header row, and all floats printed with 17 significant
digits (`%.17g`, CELL_FORMAT) so files are byte-reproducible and
round-trip exactly.  `_write_table` renders the float cells of a whole
table in numpy (`_render_cells`): the 17 digits of each cell come from
one exact double-length product, so they are the correctly rounded
digits of `fmt`, and CELL_FORMAT itself formats only NaN, the infinities
and the cells it writes with an exponent.  It writes each table over
its file in place.  The argument parser is built
once per process (`build_parser`) and shared by every `main` call.
`parse_args` has two paths: it reads a plain argv (a subcommand's name,
then its exact option strings, each `store` option with one value that
does not start with `-`) from the subcommand's option table, which is
derived from its parser, and hands everything else to the top parser,
which words the help and every usage error.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import math
import os
import stat
import sys
from typing import Callable, NamedTuple, Sequence

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


def _csv_line(fields: list[str]) -> bytes:
    """One CSV line of text fields as `csv.writer` quotes them in a file of
    LF lines (so a field holding a line feed is quoted), UTF-8, without its
    line feed."""
    text = io.StringIO()
    csv.writer(text, lineterminator="\n").writerow(fields)
    return text.getvalue()[:-1].encode("utf-8")


def _split(a):
    """Veltkamp's split of doubles into (hi, lo), a = hi + lo exactly, each
    half of at most 26 significant bits, so their products are exact."""
    s = a * 134217729.0  # 2^27 + 1
    hi = s - (s - a)
    return hi, a - hi


#: 10^m for m = 0..21, each an exact double
_POW10 = np.array([float(10 ** m) for m in range(22)])
#: the four ASCII digits of q = 0..9999 as one word each, then at 10^4 + q
#: the same with the zeros after its last nonzero digit NUL
_QUADS = np.empty((2, 10, 10, 10, 10, 4), np.uint8)
_QUADS[..., 0] = np.arange(48, 58, dtype=np.uint8)[:, None, None, None]
_QUADS[..., 1] = np.arange(48, 58, dtype=np.uint8)[:, None, None]
_QUADS[..., 2] = np.arange(48, 58, dtype=np.uint8)[:, None]
_QUADS[..., 3] = np.arange(48, 58, dtype=np.uint8)
_QUADS[1, ..., 0, 3] = _QUADS[1, ..., 0, 0, 2:] = _QUADS[1, :, 0, 0, 0, 1:] = 0
_QUADS[1, 0, 0, 0, 0] = 0
_QUADS = _QUADS.view(np.uint32).ravel()


def _digits17(a, k):
    """round_half_even(a * 10^(16 - k)) as int64, exactly: Dekker's product
    of a and the exact double 10^(16 - k) is hi + lo, and where it is at
    least 10^16 > 2^53, hi is an even integer, so hi + rint(lo) rounds it
    half to even.  numpy runs each ufunc on its own: nothing is fused."""
    b = _POW10[16 - k.astype(np.intp)]
    hi = a * b
    (a_hi, a_lo), (b_hi, b_lo) = _split(a), _split(b)
    lo = ((a_hi * b_hi - hi) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo
    return hi.astype(np.int64) + np.rint(lo).astype(np.int64)


def _render_cells(cells: np.ndarray) -> bytes:
    """Each row of the float64 table `cells` as a line feed, then "," and
    the CELL_FORMAT text of each cell: the bytes of `fmt`, cell by cell.

    A finite cell with 1e-4 <= |v| < 1e16 has the decimal exponent k of
    its 17 significant digits in [-4, 15], so `%.17g` writes it without an
    exponent.  Its digits are D = round_half_even(|v| 10^(16 - k)) in
    [10^16, 10^17), computed exactly (`_digits17`) from k = floor(log10
    |v|); where log10 rounds across a power of ten, or the rounding carries
    D to 10^17, D leaves that range and k moves by one.  ±0.0 is D = 0 at
    k = 0.  The digits are written four at a time through `_QUADS`, with
    the zeros after the last nonzero digit NUL.  Sorted by k, each run of
    cells of one k fills its NUL-padded slots with a few slice copies:
    "0." and -k - 1 zeros, then the digits, for k < 0; for k >= 0 the
    k + 1 integer digits (NULs put back to "0"), a "." unless no fraction
    digit is left, then the fraction digits.  The NULs are deleted at the
    end.  Every other cell (NaN, ±inf, and the cells `%.17g` writes with an
    exponent) is CELL_FORMAT % v, one at a time."""
    v = np.asarray(cells, dtype=np.float64).ravel()
    a = np.abs(v)
    fast = (a >= 1e-4) & (a < 1e16)
    a = np.where(fast, a, 1.0)
    k = np.clip(np.floor(np.log10(a)), -4, 15).astype(np.int8)
    digits = _digits17(a, k)
    low, high = digits < 10 ** 16, digits >= 10 ** 17
    redo = low | high
    k += high
    k -= low
    digits[redo] = _digits17(a[redo], k[redo])
    digits[v == 0.0] = 0
    order = np.argsort(k, kind="stable")
    # the digits of each cell in sorted order, digit j at byte 3 + j; a
    # quad after which every quad is 0 takes its form with trailing NULs
    words = np.zeros((len(v), 5), np.uint32)
    rest, tail = digits[order], np.ones(len(v), bool)
    for col in range(4, 0, -1):
        quad = rest
        rest = quad // 10 ** 4
        quad -= rest * 10 ** 4
        words[:, col] = _QUADS[quad + 10 ** 4 * tail]
        tail &= quad == 0
    text = words.view(np.uint8)
    text[:, 3] = rest + 48
    # a cell's slot: a line feed before the first cell of a row, ",", the
    # sign, then up to 23 bytes of text
    slots = np.zeros((len(v), 26), np.uint8)
    slots[:, 1] = 44
    slots[:, 2] = np.signbit(v[order]) * np.uint8(45)
    ends = np.cumsum(np.bincount(k + 4, minlength=20))
    for e, (start, stop) in enumerate(zip([0, *ends[:-1]], ends), -4):
        if start == stop:
            continue
        run, chars = slots[start:stop], text[start:stop]
        if e < 0:
            run[:, 3:4 - e] = np.frombuffer(b"0.000"[:1 - e], np.uint8)
            run[:, 4 - e:21 - e] = chars[:, 3:]
        else:
            np.bitwise_or(chars[:, 3:4 + e], 48, out=run[:, 3:4 + e])
            run[:, 4 + e] = (chars[:, 4 + e] != 0) * np.uint8(46)
            run[:, 5 + e:21] = chars[:, 4 + e:]
    place = np.empty_like(order)
    place[order] = np.arange(len(v))
    slots = np.take(slots, place, axis=0)
    slots[::cells.shape[1], 0] = 10
    for i in np.flatnonzero(~fast & (v != 0.0)):
        slots[i, 2:] = np.frombuffer((CELL_FORMAT % v[i]).encode().ljust(24, b"\0"), np.uint8)
    return slots.tobytes().translate(None, b"\0")


def _write_table(path: str, label: str, z: np.ndarray, columns: list[str], values: np.ndarray):
    """Write the CSV of N points: the header `profile, n, re_z0, im_z0,
    ..., columns`, then for point i the label, n, the parts of z[i] and
    values[i, :].  Cells are formatted here, and only here, by
    `_render_cells`; the bytes are those of `fmt` on each cell.  The header
    and the `label,n` pair of each row are as `csv.writer` quotes them.
    The file is written in place, not truncated on open (which frees its
    blocks for the write to allocate again: 130 µs against 15 µs for a
    94 KB table on ext4); only a regular file is then cut to length."""
    n = z.shape[-1]
    header = ["profile", "n", *(f"{part}_z{k}" for k in range(n) for part in ("re", "im")),
              *columns]
    cells = np.column_stack([np.stack([z.real, z.imag], axis=-1).reshape(len(z), 2 * n), values])
    body = _render_cells(cells).replace(b"\n", b"\n" + _csv_line([label, str(n)]))
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0), 0o666)
    with open(fd, "wb") as fh:
        fh.write(_csv_line(header))
        fh.write(body)
        fh.write(b"\n")
        if stat.S_ISREG(os.fstat(fd).st_mode):
            fh.truncate()


def _curvature_blocks(profile: Profile, points: DomainPoint):
    """(stacked record, metric, curvature) for each run of points of
    `metric.blocks`, in order."""
    for p in blocks(points):
        m = assemble_metric(profile, p)
        yield p, m, curvature.curvature_at(profile, p, m)


def _table(rows, what: str):
    """(z[N, n], values[N, k]) over all N points from the pairs (p,
    columns) of `rows`, one per run of points of `metric.blocks` in order,
    values[:, j] the column columns[j] of each.  A non-finite value raises
    HartogsError naming `what` and the first sample that has one."""
    z, values = [], []
    for p, columns in rows:
        z.append(p.z)
        values.append(np.column_stack(columns))
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
    z, values = _table(
        ((p, [p.gap, p.x, m.det, d.scal, d.rho, d.einstein, d.extremal])
         for p, m, d in _curvature_blocks(profile, points)),
        "scan value",
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
    # the residual reads the point record alone: no metric is assembled
    z, values = _table(
        ((p, [p.gap, p.x, curvature.scalar_curvature_at(profile, p).extremal])
         for p in blocks(points)),
        "extremal residual",
    )
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
    # each block's metric and Ricci tensor, built once, give its residuals
    # and its rows of the sweep
    residuals, rows = [], []
    for p in blocks(points):
        m = assemble_metric(profile, p)
        ric = curvature.ricci_tensor(profile, p, m)
        residuals.append(canonical.soliton_residual_of(profile, p, m, ric, lam, field))
        if args.sweep:
            rows.append(canonical.sweep_rows(profile, p, m, ric))
    # NaN propagates: a non-finite residual fails
    worst = float(np.max(np.concatenate(residuals)))
    ok = worst <= args.tol
    print(
        f"soliton-check {profile.label()}: lam={lam:g}, {len(points)} samples, "
        f"max residual {worst:.6g} (tol {args.tol:g}) -> {'PASS' if ok else 'FAIL'}"
    )
    if args.sweep:
        sweep = canonical.sweep_fit(rows)
        print(
            f"  least-squares sweep over all holomorphic fields (invariant fit "
            f"a={sweep.a:.6g}, b={sweep.b:.6g}): "
            f"residual floor {sweep.residual:.6g} at lam={sweep.lam:.6g}"
        )
    return 0 if ok else 1


class CheckResult(NamedTuple):
    name: str
    passed: bool
    detail: str


class Check(NamedTuple):
    """One `verify-theorems` check: a measure that takes one block of
    samples, `(profile, p, m, data)` with their stacked record p, its
    metric m and its curvature data, and returns one value per sample; and
    how the values reduce to a verdict.  A bound passes when the largest
    value is at most `tol`; an obstruction passes when at least
    OBSTRUCTION_SHARE of the values are at least `tol`, and prints its
    share rounded down, so a failing share never reads as the minimum.
    A check is an immutable record: `check._replace(tol=...)` gives a
    variant, as the classification checks are made obstructions."""

    name: str
    label: str
    tol: float
    measure: Callable[[Profile, DomainPoint, MetricData, CurvatureData], Sequence[float]]
    obstruction: bool = False

    def result(self, values: np.ndarray) -> CheckResult:
        if self.obstruction:
            hits = int(np.count_nonzero(values >= self.tol))
            return CheckResult(self.name, hits / len(values) >= OBSTRUCTION_SHARE,
                               f"{self.label} >= {self.tol:g} at {100 * hits // len(values)}% "
                               f"of samples (PASS-nonzero, min {OBSTRUCTION_SHARE:.0%})")
        worst = float(np.max(values))  # NaN propagates: a non-finite measure fails
        return CheckResult(self.name, worst <= self.tol,
                           f"worst {self.label} {worst:.3e} (tol {self.tol:g})")


def _rel_max(x: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """max |x - ref| / (1 + max |x|) over the trailing axes, per point."""
    axes = tuple(range(1, x.ndim))
    return np.max(np.abs(x - ref), axis=axes) / (1.0 + np.max(np.abs(x), axis=axes))


def _scal_forms(profile, p, m, data) -> np.ndarray:
    """The direct scal against the trace and slope forms, algebraically
    identical to it: a deviation means a broken assembly.  The trace form
    reads the closed-form inverse, which it forms here."""
    trace_form = np.trace(metric.inverse_metric_matrix(p) @ data.ric, axis1=-2, axis2=-1).real
    slope_form = -p.n * (p.n + 1) + data.slope * p.gap
    deviation = np.maximum(np.abs(data.scal - trace_form), np.abs(data.scal - slope_form))
    return deviation / (1.0 + np.abs(data.scal))


# The measures look their oracles, and the closed-form inverse, up by module
# attribute at call time, so that a function wrapped or replaced on its
# module is the one called.  Each takes the whole stacked record of a block
# in one call.
ORACLE_CHECKS = (
    Check("metric_vs_fd_hessian", "rel", 1e-11,
          lambda prof, p, m, d: relative_norm(
              m.h - metric.metric_fd_oracle(prof, p), m.h)),
    Check("determinant_closed_vs_dense", "rel", 1e-10,
          lambda prof, p, m, d: np.abs(m.det - np.linalg.det(m.h).real)
          / (1.0 + np.abs(m.det))),
    Check("inverse_identity", "||h hinv - I||", 1e-10,
          lambda prof, p, m, d: frobenius_norm(
              m.h @ metric.inverse_metric_matrix(p) - np.eye(p.n))),
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
        checks.append(check if affine else check._replace(tol=FAIL_FLOOR, obstruction=True))
    if affine:
        checks.append(Check(
            "pullback_isometry", "rel", 1e-10,
            lambda prof, p, m, d: canonical.pullback_check(prof.c1, prof.c2, p),
        ))

    values: list[list[np.ndarray]] = [[] for _ in checks]
    for p, m, data in _curvature_blocks(profile, points):
        for check, vals in zip(checks, values):
            vals.append(np.asarray(check.measure(profile, p, m, data), dtype=float))
    return [check.result(np.concatenate(vals)) for check, vals in zip(checks, values)]


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


@functools.cache
def _option_table(sub: argparse.ArgumentParser):
    """(option string -> action, namespace defaults, required actions) of a
    subcommand's parser, read as it is: every action but help is a
    `store_true`, or a `store` whose value argparse only converts with
    `type` (no nargs, choices or typed string default), and there is no
    mutually exclusive group (`test_cli.py::test_subparsers_take_plain_actions`)."""
    actions = [a for a in sub._actions if not isinstance(a, argparse._HelpAction)]
    return ({s: a for a in actions for s in a.option_strings},
            {**sub._defaults, **{a.dest: a.default for a in actions}},
            {a for a in actions if a.required})


def _parse_plain(name: str, sub: argparse.ArgumentParser, tokens):
    """The namespace of `[name, *tokens]` if it is plain, else None."""
    options, defaults, required = _option_table(sub)
    values, seen, tokens = {**defaults, "command": name}, set(), iter(tokens)
    for token in tokens:
        action = options.get(token)
        if action is None:
            return None
        seen.add(action)
        if action.nargs == 0:
            values[action.dest] = action.const
            continue
        text = next(tokens, "-")  # a missing value falls through as a `-`-prefixed one
        if text.startswith("-"):
            return None
        try:
            values[action.dest] = action.type(text) if action.type else text
        except (argparse.ArgumentTypeError, TypeError, ValueError):
            return None
    return None if required - seen else argparse.Namespace(**values)


def parse_args(argv) -> argparse.Namespace:
    """`build_parser().parse_args(argv)`, by one of two paths.  A plain
    argv, with every required option given and every value accepted by its
    `type`, is read from the subcommand's option table, with no argparse
    parse; anything else is `build_parser().parse_args(argv)` itself, which
    words the help and every usage error."""
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    names = next(a.choices for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    if argv and argv[0] in names:
        args = _parse_plain(argv[0], names[argv[0]], argv[1:])
        if args is not None:
            return args
    return parser.parse_args(argv)


def main(argv=None) -> int:
    try:
        args = parse_args(argv)
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
