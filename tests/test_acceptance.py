"""Acceptance suite: one test per criterion, tolerances pinned here.

Each test prints a single [PASS]/[FAIL] line; run with `pytest -s` to see
them.  All derived constants were computed from the stated independent
oracles before being frozen.
"""

import math
import time

import numpy as np
import pytest

import hartogs as hg
from hartogs.canonical import HoloVectorField
from hartogs.cli import main
from hartogs.curvature import rho_oracle
from hartogs.metric import inverse_metric_matrix, metric_fd_oracle

ACCEPTANCE_FAMILIES = [
    hg.Affine(1, 1),
    hg.Affine(2, 3),
    hg.PowerCap(2),
    hg.ExpDecay(1),
    hg.Rational(),
]
DIMS = (2, 3, 4)
SAMPLES = 50


def report(name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def metric_grid():
    """Seeded 50-point grids with assembled metrics, per family and n."""
    grid = {}
    for prof in ACCEPTANCE_FAMILIES:
        for n in DIMS:
            pts = hg.sample_interior(prof, n, SAMPLES, seed=1000 + 10 * n, min_margin=0.05)
            grid[(prof.label(), n)] = (prof, [(p, hg.assemble_metric(prof, p)) for p in pts])
    return grid


def test_criterion_1_metric_oracle_equivalence(metric_grid):
    t0 = time.perf_counter()
    worst = 0.0
    for prof, pairs in metric_grid.values():
        for p, m in pairs:
            fd = metric_fd_oracle(prof, p)
            worst = max(worst, np.linalg.norm(m.h - fd) / (1.0 + np.linalg.norm(m.h)))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-11 and elapsed <= 10.0
    report(
        "criterion-01 metric vs oracle Hessian",
        ok,
        f"worst rel Frobenius {worst:.3e} (tol 1e-11), {elapsed:.1f}s (budget 10s)",
    )


def test_criterion_2_determinant_identity(metric_grid):
    worst = 0.0
    for _, pairs in metric_grid.values():
        for _, m in pairs:
            dense = np.linalg.det(m.h).real
            worst = max(worst, abs(m.det - dense) / (1.0 + abs(m.det)))
    report("criterion-02 determinant identity", worst <= 1e-10, f"worst rel {worst:.3e} (tol 1e-10)")


def test_criterion_3_inverse_identity(metric_grid):
    worst = 0.0
    for (_, n), (_, pairs) in metric_grid.items():
        eye = np.eye(n)
        for p, m in pairs:
            worst = max(worst, float(np.linalg.norm(m.h @ inverse_metric_matrix(p) - eye)))
    report("criterion-03 inverse identity", worst <= 1e-10, f"worst Frobenius {worst:.3e} (tol 1e-10)")


def test_criterion_4_ricci_identity(metric_grid):
    worst = 0.0
    worst_tail = 0.0
    for (_, n), (prof, pairs) in metric_grid.items():
        for p, m in pairs:
            ric = hg.ricci_tensor(prof, p, m)
            fd = hg.ricci_fd_oracle(prof, p)
            worst = max(worst, np.linalg.norm(ric - fd) / (1.0 + np.linalg.norm(ric)))
            worst_tail = max(worst_tail, float(np.max(np.abs(ric[1:, :] + (n + 1) * m.h[1:, :]))))
    ok = worst <= 1e-11 and worst_tail <= 1e-9
    report(
        "criterion-04 Ricci identity",
        ok,
        f"worst rel vs oracle {worst:.3e} (tol 1e-11), fiber rows {worst_tail:.3e} (tol 1e-09)",
    )


def test_criterion_5_constant_curvature(metric_grid):
    worst_scal = 0.0
    worst_fit = 0.0
    rho_n2_exact = True
    for prof_label in ("affine:1,1", "affine:2,3"):
        for n in (2, 3):
            prof, pairs = metric_grid[(prof_label, n)]
            for p, m in pairs:
                data = hg.curvature_at(prof, p, m)
                worst_scal = max(worst_scal, abs(data.scal + n * (n + 1)))
                rho = data.rho
                fitted = rho_oracle(m, hg.ricci_tensor(prof, p, m))
                worst_fit = max(worst_fit, float(np.max(np.abs(rho - fitted))))
                if n == 2 and not np.allclose(rho, [-6.0, 9.0], atol=1e-8):
                    rho_n2_exact = False
    ok = worst_scal <= 1e-9 and worst_fit <= 1e-8 and rho_n2_exact
    report(
        "criterion-05 constant curvature (affine)",
        ok,
        f"|scal + n(n+1)| {worst_scal:.3e} (tol 1e-09), rho vs fit {worst_fit:.3e} (tol 1e-08), "
        f"n=2 rho=(-6,9): {rho_n2_exact}",
    )


def test_criterion_6_powercap_pinned_values():
    prof = hg.PowerCap(2)
    p = hg.contains(prof, [0, 0])
    m = hg.assemble_metric(prof, p)
    data = hg.curvature_at(prof, p, m)
    scal, rho = data.scal, data.rho
    # independent confirmation through the trace of the Ricci oracle
    trace = float(np.trace(inverse_metric_matrix(p) @ hg.ricci_fd_oracle(prof, p)).real)
    ok = (
        abs(scal + 5.0) <= 1e-6
        and abs(rho[0] + 5.0) <= 1e-6
        and abs(rho[1] - 6.0) <= 1e-6
        and abs(trace + 5.0) <= 1e-5
    )
    report(
        "criterion-06 powercap(2) pinned values",
        ok,
        f"scal {scal:.9f} (want -5 +/- 1e-06), rho ({rho[0]:.9f}, {rho[1]:.9f}) "
        f"(want (-5, 6)), oracle trace {trace:.7f}",
    )


def test_criterion_7_extremal_rigidity():
    worst_affine = 0.0
    for c1, c2 in ((1, 1), (2, 3)):
        prof = hg.Affine(c1, c2)
        for p in hg.sample_interior(prof, 2, SAMPLES, seed=700, min_margin=0.05):
            worst_affine = max(worst_affine, hg.extremal_residual(prof, p))
    fracs = []
    for prof in (hg.PowerCap(2), hg.ExpDecay(1)):
        vals = []
        for p in hg.sample_interior(prof, 2, SAMPLES, seed=701, min_margin=0.05):
            if complex(p.z[0]) != 0 and complex(p.z[1]) != 0:
                vals.append(hg.extremal_residual(prof, p))
        fracs.append(sum(1 for v in vals if v >= 1e-3) / len(vals))
    ok = worst_affine <= 1e-8 and all(f >= 0.9 for f in fracs)
    report(
        "criterion-07 extremal rigidity",
        ok,
        f"affine max {worst_affine:.3e} (tol 1e-08); nonaffine frac >= 1e-03: "
        f"powercap {fracs[0]:.0%}, expdecay {fracs[1]:.0%} (need 90%)",
    )


def test_criterion_8_soliton_rigidity():
    worst_einstein_pair = 0.0
    affine_sweep_floor, affine_sweep_lam = 0.0, 0.0
    for c1, c2 in ((1, 1), (2, 3)):
        prof = hg.Affine(c1, c2)
        points = hg.sample_interior(prof, 2, SAMPLES, seed=800, min_margin=0.05)
        for p in points:
            residual = hg.soliton_residual(prof, p, -3.0, HoloVectorField.zero(2))
            worst_einstein_pair = max(worst_einstein_pair, residual)
        fit = hg.soliton_sweep(prof, points)
        affine_sweep_floor = max(affine_sweep_floor, fit.residual)
        affine_sweep_lam = max(affine_sweep_lam, abs(fit.lam + 3.0))

    prof = hg.PowerCap(2)
    points = hg.sample_interior(prof, 2, SAMPLES, seed=800, min_margin=0.05)
    powercap_sweep_floor = hg.soliton_sweep(prof, points).residual
    origin = hg.contains(prof, [0, 0])
    m = hg.assemble_metric(prof, origin)
    obstruction = (hg.ricci_tensor(prof, origin, m) + 3.0 * m.h)[0, 0].real
    adjacent = hg.contains(prof, [0.05, 0.05])
    einstein_obstructed = hg.einstein_residual(prof, adjacent)

    worst_rotation = 0.0
    for c1, c2 in ((1, 1), (2, 3)):
        aff = hg.Affine(c1, c2)
        rot = HoloVectorField.rotation(2, 1.0)
        for p in hg.sample_interior(aff, 2, SAMPLES, seed=801, min_margin=0.3):
            worst_rotation = max(worst_rotation, hg.soliton_residual(aff, p, -3.0, rot))

    ok = (
        worst_einstein_pair <= 1e-8
        and abs(obstruction - 2.0) <= 1e-6
        and einstein_obstructed >= 1e-3
        and worst_rotation <= 1e-8
        and affine_sweep_floor <= 1e-8
        and affine_sweep_lam <= 1e-8
        and powercap_sweep_floor >= 1e-3
    )
    report(
        "criterion-08 soliton rigidity",
        ok,
        f"affine (lam=-(n+1), X=0) max {worst_einstein_pair:.3e} (tol 1e-08); "
        f"powercap head obstruction {obstruction:.9f} (want 2 +/- 1e-06), "
        f"einstein res {einstein_obstructed:.3e} (floor 1e-03); "
        f"rotation delta {worst_rotation:.3e} (tol 1e-08); "
        f"affine sweep floor {affine_sweep_floor:.3e} (tol 1e-08) with |lam + 3| "
        f"{affine_sweep_lam:.3e} (tol 1e-08), powercap sweep floor "
        f"{powercap_sweep_floor:.3e} (floor 1e-03)",
    )


def test_criterion_9_hyperbolic_isometry():
    worst = 0.0
    for c1, c2 in ((1.0, 1.0), (2.0, 3.0), (0.5, 2.0)):
        prof = hg.Affine(c1, c2)
        for p in hg.sample_interior(prof, 2, SAMPLES, seed=900, min_margin=0.01):
            worst = max(worst, hg.pullback_check(c1, c2, p))
    report("criterion-09 hyperbolic isometry", worst <= 1e-10, f"worst rel {worst:.3e} (tol 1e-10)")


def test_criterion_10_levi_equivalence():
    worst_min = math.inf
    for prof in ACCEPTANCE_FAMILIES:
        for n in (2, 3):
            for b in hg.sample_boundary(prof, n, 100, seed=110 + n):
                worst_min = min(worst_min, hg.restricted_levi_min_eigenvalue(prof, b))
    probe = hg.ConstantProbe()
    probe_min = math.inf
    for n in (2, 3):
        for b in hg.sample_boundary(probe, n, 100, seed=110 + n):
            probe_min = min(probe_min, hg.restricted_levi_min_eigenvalue(probe, b))
    ok = worst_min > 0 and probe_min <= 1e-9
    report(
        "criterion-10 Levi/pseudoconvexity equivalence",
        ok,
        f"pseudoconvex min eigenvalue {worst_min:.3e} (> 0 over 200 samples/profile); "
        f"constant-probe min {probe_min:.3e} (<= 1e-09)",
    )


def test_criterion_11_scan_determinism(tmp_path, capsys):
    args = ["curvature-scan", "--profile", "powercap:2", "--n", "2",
            "--samples", "10", "--seed", "12"]
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    code1 = main(args + ["--out", str(a)])
    code2 = main(args + ["--out", str(b)])
    capsys.readouterr()
    ok = code1 == 0 and code2 == 0 and a.read_bytes() == b.read_bytes()
    report(
        "criterion-11 scan determinism",
        ok,
        f"two runs byte-identical: {a.read_bytes() == b.read_bytes()} ({a.stat().st_size} bytes)",
    )
