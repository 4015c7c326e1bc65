import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings

import hartogs as hg
import hartogs.canonical
import hartogs.metric
from hartogs.canonical import HoloVectorField, lie_from_jets, soliton_sweep
from hartogs.cli import main
from hartogs.curvature import curvature_at, extremal_jet_oracle
from hartogs.errors import DomainError
from hartogs.wirtinger import ComplexStencil

from conftest import (
    FAMILY_IDS, PSEUDOCONVEX_FAMILIES, CubicCap, field_jet_reference, jacobian_from_block,
    profile_cases, same_bits, scal_gradient_bar, stencil_t_zbar,
)


def sweep(prof):
    """The soliton sweep over ten points at margin 0.3, seed 9."""
    return soliton_sweep(prof, hg.sample_interior(prof, 2, 10, 9, 0.3))


def monomial_jets(z, exps):
    """Values z^e and gradients d z^e / d z_a of each monomial, one
    single-monomial field (in component 0) per exponent tuple."""
    n = len(z)
    jets = [HoloVectorField(n, (((1 + 0j, e),),) + ((),) * (n - 1)).jet(np.array(z)) for e in exps]
    return np.array([vals[0] for vals, _ in jets]), np.array([jac[0] for _, jac in jets])


def random_field(rng, n):
    """A field of degree at most 3 with up to three monomials per component,
    about a third of whose coefficient parts are 0.0, -0.0 or small
    integers."""
    def part():
        return float(rng.choice([0.0, -0.0, 1.0, -2.0])) if rng.random() < 0.35 else rng.normal()

    comps = []
    for _ in range(n):
        monos = []
        for _ in range(rng.integers(0, 4)):
            exps = rng.multinomial(rng.integers(0, 4), np.full(n, 1.0 / n))
            monos.append((complex(part(), part()), tuple(int(e) for e in exps)))
        comps.append(tuple(monos))
    return HoloVectorField(n, tuple(comps))


def signed_zero_points(rng, count, n):
    """Gaussian points of C^n, about a fifth of whose parts are 0.0 and a
    fifth -0.0."""
    parts = rng.normal(size=(2, count, n))
    pick = rng.random(size=parts.shape)
    parts[pick < 0.2] = 0.0
    parts[pick > 0.8] = -0.0
    z = np.empty((count, n), dtype=complex)
    z.real, z.imag = parts
    return z


class TestMonomialJets:
    """Jets of single monomials through `HoloVectorField.jet`."""

    @pytest.mark.parametrize("z", [[0.5 + 0.5j, -0.25j, 1.5 - 0.75j], [0.0, -0.25j, 1.5 - 0.75j]],
                             ids=["generic", "zero-coordinate"])
    def test_hand_written_up_to_degree_3(self, z):
        z0, z1, z2 = z
        exps = [(0, 0, 0), (1, 0, 0), (0, 2, 0), (1, 1, 1), (2, 0, 1), (3, 0, 0), (0, 1, 2)]
        want_vals = [1, z0, z1**2, z0 * z1 * z2, z0**2 * z2, z0**3, z1 * z2**2]
        want_grads = [
            [0, 0, 0],
            [1, 0, 0],
            [0, 2 * z1, 0],
            [z1 * z2, z0 * z2, z0 * z1],
            [2 * z0 * z2, 0, z0**2],
            [3 * z0**2, 0, 0],
            [0, z2**2, 2 * z1 * z2],
        ]
        vals, grads = monomial_jets(np.array(z), exps)
        assert vals.shape == (7,) and grads.shape == (7, 3)
        assert np.max(np.abs(vals - np.array(want_vals))) <= 1e-15
        assert np.max(np.abs(grads - np.array(want_grads))) <= 1e-15

    def test_zero_coordinate_exact(self):
        # d(z_0 z_1)/dz_1 = z_0 = 0 and d(z_0 z_1)/dz_0 = z_1, both exact
        vals, grads = monomial_jets(np.array([0.0, 0.3 - 0.2j]), [(1, 1), (2, 0), (0, 0)])
        assert vals.tolist() == [0, 0, 1]
        assert grads.tolist() == [[0.3 - 0.2j, 0], [0, 0], [0, 0]]


class TestHoloVectorField:
    def test_value_and_derivative(self):
        # f_0 = 2 z_0^2 z_1, f_1 = i
        f = HoloVectorField(2, ((((2 + 0j), (2, 1)),), (((1j), (0, 0)),)))
        z = np.array([0.5 + 0.5j, -0.25j])
        vals, jac = f.jet(z)
        assert vals[0] == pytest.approx(2 * z[0] ** 2 * z[1])
        assert vals[1] == 1j
        assert jac[0, 0] == pytest.approx(4 * z[0] * z[1])
        assert jac[0, 1] == pytest.approx(2 * z[0] ** 2)
        assert jac[1].tolist() == [0, 0]

    def test_rotation_constructor(self):
        f = HoloVectorField.rotation(3, 0.5)
        z = np.array([0.2, 0.3j, -0.1])
        vals, jac = f.jet(z)
        assert np.array_equal(vals, 0.5j * z)
        assert np.array_equal(jac, 0.5j * np.eye(3))

    def test_zero_jet(self):
        vals, jac = HoloVectorField.zero(4).jet(np.array([0.1, 0.2j, -0.3, 0.4]))
        assert np.array_equal(vals, np.zeros(4)) and np.array_equal(jac, np.zeros((4, 4)))
        assert np.any(HoloVectorField.rotation(2).jet(np.array([0.1, 0.2]))[0])

    @pytest.mark.parametrize("n", [2, 3, 5])
    @pytest.mark.parametrize("seed", range(4))
    def test_stacked_jet_has_python_complex_bits(self, n, seed):
        # every value and Jacobian entry of a stacked jet has the bits of
        # the per-point Python-complex reference, with zero and negative
        # zero parts in the coefficients and the coordinates
        rng = np.random.default_rng(seed)
        field, z = random_field(rng, n), signed_zero_points(rng, 40, n)
        values, jac = field.jet(z)
        assert values.shape == (40, n) and jac.shape == (40, n, n)
        for i, w in enumerate(z):
            want_values, want_jac = field_jet_reference(field, w)
            assert same_bits(values[i], want_values) and same_bits(jac[i], want_jac), i
        single = field.jet(z[7])
        assert same_bits(single[0], values[7]) and same_bits(single[1], jac[7])
        grid = field.jet(z.reshape(4, 10, n))
        assert same_bits(grid[0], values.reshape(4, 10, n))
        assert same_bits(grid[1], jac.reshape(4, 10, n, n))

    def test_exponents_above_100_and_infinities(self):
        # above exponent 100 Python's complex ** takes its polar form; a
        # product past the float range is inf or NaN, as in Python, also
        # under the kernel's raised faults
        field = HoloVectorField.from_text("1,0:0,101;0.5,-0.25:1,150|1e300,1e300:3,0;2,0:0,1", 2)
        z = signed_zero_points(np.random.default_rng(3), 20, 2)
        z[:, 1] *= 0.5
        z[0, 0] = complex(1e5, 1e5)
        with np.errstate(over="raise", invalid="raise"):
            values, jac = field.jet(z)
        assert not np.isfinite(values[0, 1]) and not np.isfinite(jac[0, 1, 0])
        for i, w in enumerate(z):
            want_values, want_jac = field_jet_reference(field, w)
            assert same_bits(values[i], want_values) and same_bits(jac[i], want_jac), i

    def test_overflowing_power_raises(self, capsys):
        field = HoloVectorField.from_text("1,0:200,0|", 2)
        with pytest.raises(OverflowError):
            field.jet(np.array([[0.5, 0.5], [1e3, 0.5]]))
        code = main(["soliton-check", "--profile", "affine:1e4,1", "--n", "2", "--samples", "5",
                     "--field", "1,0:200,0|"])
        out, err = capsys.readouterr()
        assert code == 1 and out == ""
        assert err == "error: numeric failure (OverflowError: complex exponentiation)\n"

    def test_dimension_checks(self):
        with pytest.raises(ValueError):
            HoloVectorField(2, ((), (), ()))
        with pytest.raises(ValueError):
            HoloVectorField(2, ((((1 + 0j), (1, 0, 0)),), ()))

    def test_parse_wire_format(self):
        # rotation field for n=2: i z_0 and i z_1
        f = HoloVectorField.from_text("0,1:1,0|0,1:0,1", 2)
        z = np.array([0.4, 0.7j])
        assert f.jet(z)[0] == pytest.approx(1j * z)
        g = HoloVectorField.from_text("1,0:0,0;0,-2:1,1|", 2)
        vals, jac = g.jet(z)
        assert vals[0] == pytest.approx(1.0 - 2j * z[0] * z[1])
        assert vals[1] == 0
        assert jac[0] == pytest.approx([-2j * z[1], -2j * z[0]])

    @pytest.mark.parametrize(
        "text", ["0,1:1,0", "x:1,0|", "1:1,0|", "1,2:a,b|", "1,2,3:1,0|",
                 "nan,0:1,0|", "0,inf:1,0|", "-inf,0:1,0|"]
    )
    def test_parse_errors(self, text):
        with pytest.raises(ValueError):
            HoloVectorField.from_text(text, 2)


class TestLieDerivative:
    def test_zero_field_gives_zero_matrix(self, points_for):
        prof = hg.PowerCap(2)
        p = points_for(prof, 3, count=1)[0]
        m = hg.assemble_metric(prof, p)
        lie = hg.lie_derivative_components(prof, p, m, HoloVectorField.zero(3))
        assert np.array_equal(lie, np.zeros((3, 3), complex))

    @pytest.mark.parametrize("profile", PSEUDOCONVEX_FAMILIES, ids=FAMILY_IDS)
    def test_rotation_is_killing(self, profile, points_for):
        # metric entries depend only on moduli and zbar_a z_b pairings, both
        # preserved by the rotation flow; the cancellation holds to rounding
        # near the boundary too, where h grows like 1/margin^2
        for n in (2, 3, 8):
            for margin in (0.3, 0.05, 0.01):
                for p in points_for(profile, n, count=4, seed=55, min_margin=margin):
                    m = hg.assemble_metric(profile, p)
                    lie = hg.lie_derivative_components(profile, p, m, HoloVectorField.rotation(n))
                    assert np.max(np.abs(lie)) <= 1e-8

    def test_translation_not_killing(self, points_for):
        prof = hg.Affine(1, 1)
        p = points_for(prof, 2, count=1, seed=19, min_margin=0.3)[0]
        m = hg.assemble_metric(prof, p)
        translation = HoloVectorField(2, (((1.0 + 0j, (0, 0)),), ()))
        lie = hg.lie_derivative_components(prof, p, m, translation)
        assert np.linalg.norm(lie) > 1e-2

    def test_additive_and_hermitian(self, points_for):
        prof = hg.ExpDecay(1)
        p = points_for(prof, 2, count=1, seed=23, min_margin=0.3)[0]
        a = HoloVectorField(2, (((1.0 + 0.5j, (0, 0)),), ()))
        b = HoloVectorField.rotation(2, 0.7)
        m = hg.assemble_metric(prof, p)
        la = hg.lie_derivative_components(prof, p, m, a)
        lb = hg.lie_derivative_components(prof, p, m, b)
        # the field a + b, written out monomial by monomial
        a_plus_b = HoloVectorField(2, (((1.0 + 0.5j, (0, 0)), (0.7j, (1, 0))), ((0.7j, (0, 1)),)))
        lab = hg.lie_derivative_components(prof, p, m, a_plus_b)
        assert np.max(np.abs(lab - (la + lb))) <= 1e-10
        for mat in (la, lb, lab):
            assert np.max(np.abs(mat - mat.conj().T)) <= 1e-10

    def test_jet_sum_matches_explicit_loops(self):
        n = 3
        rng = np.random.default_rng(5)

        def cplx(*shape):
            return rng.normal(size=shape) + 1j * rng.normal(size=shape)

        # dh/dzbar_k is the conjugate transpose of dh/dz_k, as for any
        # Hermitian h, so the zbar terms are the conjugate transpose of the
        # derivative along f that lie_from_jets receives
        h, dg, f, df = cplx(n, n), cplx(n, n, n), cplx(n), cplx(n, n)
        dgbar = np.swapaxes(dg.conj(), -1, -2)
        along = np.zeros((n, n), dtype=complex)
        want = np.zeros((n, n), dtype=complex)
        for a in range(n):
            for b in range(n):
                for k in range(n):
                    along[a, b] += f[k] * dg[k, a, b]
                    want[a, b] += f[k] * dg[k, a, b] + f[k].conjugate() * dgbar[k, a, b]
                    want[a, b] += df[k, a] * h[k, b] + df[k, b].conjugate() * h[a, k]
        got = lie_from_jets(h, along, df)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def test_batched_jets_match_stacked_calls(self):
        n, batch = 3, (4, 5)
        rng = np.random.default_rng(6)

        def cplx(*shape):
            return rng.normal(size=shape) + 1j * rng.normal(size=shape)

        h, along, df = cplx(n, n), cplx(*batch, n, n), cplx(*batch, n, n)
        got = lie_from_jets(h, along, df)
        assert got.shape == batch + (n, n)
        for i, j in itertools.product(*map(range, batch)):
            want = lie_from_jets(h, along[i, j], df[i, j])
            assert np.max(np.abs(got[i, j] - want)) <= 1e-14 * np.max(np.abs(want))

    def test_dimension_mismatch(self, points_for):
        prof = hg.Affine(1, 1)
        p = points_for(prof, 2, count=1)[0]
        m = hg.assemble_metric(prof, p)
        with pytest.raises(ValueError):
            hg.lie_derivative_components(prof, p, m, HoloVectorField.zero(3))


class TestEinsteinResidual:
    def test_affine_exactly_zero(self, points_for):
        for prof in (hg.Affine(1, 1), hg.Affine(2, 3)):
            for p in points_for(prof, 2, count=6):
                assert hg.einstein_residual(prof, p) <= 1e-9

    def test_powercap_origin_value(self):
        # only the head entry differs, by -defect(0) = 2, and the metric at
        # the origin is diag(2, 1)
        prof = hg.PowerCap(2)
        p = hg.contains(prof, [0, 0])
        want = 2.0 / (1.0 + math.sqrt(5.0))
        assert hg.einstein_residual(prof, p) == pytest.approx(want, rel=1e-9)

    def test_expdecay_positive(self, points_for):
        for p in points_for(hg.ExpDecay(1), 2, count=6):
            assert hg.einstein_residual(hg.ExpDecay(1), p) > 1e-3


class TestSolitonResidual:
    def test_affine_einstein_pair_exact(self, points_for):
        for prof in (hg.Affine(1, 1), hg.Affine(2, 3)):
            for n in (2, 3):
                for p in points_for(prof, n, count=5):
                    assert hg.soliton_residual(prof, p, -(n + 1), HoloVectorField.zero(n)) <= 1e-8

    def test_powercap_obstruction(self):
        prof = hg.PowerCap(2)
        for z in ([0, 0], [0.05, 0.05]):
            p = hg.contains(prof, z)
            assert hg.soliton_residual(prof, p, -3.0, HoloVectorField.zero(2)) > 1e-2

    def test_rotation_field_changes_nothing_for_affine(self, points_for):
        for prof in (hg.Affine(1, 1), hg.Affine(2, 3)):
            for n, margin in ((2, 0.3), (3, 0.002)):
                rot = HoloVectorField.rotation(n, 1.0)
                for p in points_for(prof, n, count=5, seed=99, min_margin=margin):
                    assert hg.soliton_residual(prof, p, -(n + 1), rot) <= 1e-8

    @pytest.mark.parametrize("n", [2, 3])
    def test_one_radial_evaluation_per_point(self, monkeypatch, n):
        # `contains` evaluated the radial data once, building p; the
        # residual and the metric gradients read that record
        prof = hg.PowerCap(2)
        p = hg.contains(prof, [0.3] + [0.2j] * (n - 1))
        calls = []
        original = hartogs.metric.contains

        def counted(profile, z):
            calls.append(z)
            return original(profile, z)

        monkeypatch.setattr(hartogs.metric, "contains", counted)
        hg.soliton_residual(prof, p, -(n + 1), HoloVectorField.rotation(n))
        assert calls == []

    def test_no_finite_differences(self, monkeypatch, points_for, tmp_path):
        # the Lie derivative, the sweep and the extremal residual run on
        # exact metric gradients, and so do the scan subcommands; the metric
        # and Ricci oracles run on jets
        def refuse(*args, **kwargs):
            raise AssertionError("finite difference taken")

        for name in ("d_pair", "d_zbar", "hessian_z_zbar"):
            monkeypatch.setattr(ComplexStencil, name, refuse)
        prof = hg.PowerCap(2)
        rot = HoloVectorField.rotation(2)
        for p in points_for(prof, 2, count=3):
            assert hg.soliton_residual(prof, p, -3.0, rot) > 1e-2
            assert hg.extremal_residual(prof, p) > 1e-2
            m = hg.assemble_metric(prof, p)
            assert np.allclose(hartogs.metric.metric_fd_oracle(prof, p), m.h, rtol=1e-12)
            assert np.allclose(hg.ricci_fd_oracle(prof, p), hg.ricci_tensor(prof, p, m), rtol=1e-12)
        assert sweep(prof).residual > 1e-2
        common = ["--profile", "powercap:2", "--n", "3", "--samples", "5", "--seed", "2"]
        assert main(["curvature-scan", *common, "--out", str(tmp_path / "s.csv")]) == 0
        assert main(["extremal-residual", *common]) == 0


@settings(derandomize=True, max_examples=100, deadline=None)
@given(case=profile_cases())
@example(case=(CubicCap(1.0 / 3.0, 1.0), 8, 1e-3, 9))
@example(case=(hg.Rational(), 16, 1e-3, 3))
def test_zero_field_residual_has_the_lie_path_bits(case):
    # a field with no monomials forms no Lie term; the residual keeps the
    # bits of the one that subtracts the Lie derivative of the zero field,
    # on a stack and at a single point, and still checks the dimension
    profile, n, margin, seed = case
    p = hg.sample_interior(profile, n, 6, seed % 1000, margin)
    zero = HoloVectorField.zero(n)
    for q in (p, p[2]):
        m = hg.assemble_metric(profile, q)
        ric = hg.ricci_tensor(profile, q, m)
        lie = hg.lie_derivative_components(profile, q, m, zero)
        for lam in (-(n + 1.0), 0.75):
            want = hartogs.metric.relative_norm(ric - lam * m.h - lie, m.h)
            assert same_bits(hg.soliton_residual(profile, q, lam, zero), want), lam
    with pytest.raises(ValueError, match="dimension"):
        hg.soliton_residual(profile, p, -1.0, HoloVectorField.zero(n + 1))


class TestExtremalResidual:
    def test_affine_zero(self, points_for):
        for prof in (hg.Affine(1, 1), hg.Affine(2, 3)):
            for n in (2, 3):
                for p in points_for(prof, n, count=6):
                    assert hg.extremal_residual(prof, p) == 0.0

    def test_powercap_pinned_point(self):
        # max |dT/dzbar| at (0.4, 0.3), far above the 1e-3 obstruction floor
        prof = hg.PowerCap(2)
        p = hg.contains(prof, [0.4, 0.3])
        assert hg.extremal_residual(prof, p) == pytest.approx(0.22256351520199916, rel=1e-12)

    @pytest.mark.parametrize("profile", [hg.PowerCap(2), hg.ExpDecay(1), hg.Rational()],
                             ids=lambda prof: prof.label())
    def test_independent_of_stencil(self, profile):
        # a stencil of T converges onto the exact oracle like step^2: its
        # error falls 100x from step 1e-3 to 1e-4 and (10/3)^2 to 3e-5
        for z in ([0.9 + 0.3j, 0.2 + 0.1j], [0.5 - 0.4j, 0.3 + 0.2j], [0.2 + 0.1j, 0.5 + 0.1j]):
            p = hg.contains(profile, z)
            if p is None:
                continue
            exact = jacobian_from_block(p.z, extremal_jet_oracle(profile, p))
            size = float(np.max(np.abs(exact)))
            err = [float(np.max(np.abs(stencil_t_zbar(profile, p.z, step) - exact))) / size
                   for step in (1e-3, 1e-4, 3e-5)]
            assert err[1] <= 1e-6
            assert 90.0 <= err[0] / err[1] <= 110.0
            assert 10.0 <= err[1] / err[2] <= 12.5

    def test_matches_jet_oracle_over_range(self):
        # 10 profiles, near-affine ones included, x n = 2..8 x margins down
        # to 1e-3; every affine residual and oracle value is exactly 0.  On
        # the test-only CubicCap A and F''' are not zero, so the F''' terms
        # of A' and B', which the oracle takes from its jet of F'' and
        # never reads, are far above rounding
        profiles = [hg.Affine(1, 1), hg.Affine(2, 3), hg.PowerCap(0.5), hg.PowerCap(2),
                    hg.PowerCap(3), hg.PowerCap(1.001), hg.ExpDecay(1), hg.ExpDecay(1e-4),
                    hg.Rational(), CubicCap(1.0 / 3.0, 1.0)]
        worst = 0.0
        for prof in profiles:
            for n in (2, 3, 4, 6, 8):
                for margin in (0.05, 0.01, 0.002, 0.001):
                    for p in hg.sample_interior(prof, n, 20, 0, margin):
                        data = curvature_at(prof, p, hg.assemble_metric(prof, p))
                        oracle = extremal_jet_oracle(prof, p)
                        if prof.family == "affine":
                            assert data.extremal == 0.0 and not np.any(oracle)
                        diff = np.max(np.abs(jacobian_from_block(p.z, oracle - data.dbar)))
                        worst = max(worst, float(diff) / (1.0 + data.extremal))
        assert worst <= 1e-13

    def test_expdecay_nonzero(self, points_for):
        for p in points_for(hg.ExpDecay(1), 2, count=6):
            assert hg.extremal_residual(hg.ExpDecay(1), p) > 1e-3

    def test_axis_points_still_compute(self):
        # obstruction terms vanish with z_0 z_i = 0 but the residual is
        # still a finite number
        prof = hg.PowerCap(2)
        p = hg.contains(prof, [0, 0.3])
        assert math.isfinite(hg.extremal_residual(prof, p))

    def test_field_matches_slope_structure(self):
        # the tests' dbar scal, on which their reference for the gradient
        # field T is built, against Wirtinger differences of scal itself
        def scal(w):
            p = hg.contains(prof, w)
            return curvature_at(prof, p, hg.assemble_metric(prof, p)).scal

        for prof in (hg.PowerCap(2), hg.ExpDecay(1), hg.Rational()):
            for z in ([0.4, 0.3], [0.5 - 0.4j, 0.3 + 0.2j, 0.1j]):
                z = np.array(z, complex)
                p = hg.contains(prof, z)
                slope = -prof.defect(p.x) * p.f / p.det_core
                grad = scal_gradient_bar(p, slope, prof.slope_d1(p.x))
                fd = [ComplexStencil(1e-5).d_zbar(scal, z, c) for c in range(len(z))]
                assert np.max(np.abs(grad - fd)) <= 1e-8 * (1.0 + np.max(np.abs(grad)))


class TestHyperbolicIsometry:
    def test_identity_for_unit_parameters(self):
        z = [0.3 + 0.1j, 0.2]
        w = hg.hyperbolic_isometry(1, 1, z)
        assert np.array_equal(w, np.asarray(z, complex))

    def test_rescaling_example(self):
        w = hg.hyperbolic_isometry(2, 3, [0.4, 0.5])
        assert w[0] == pytest.approx(0.4 * math.sqrt(1.5), rel=1e-15)
        assert w[1] == pytest.approx(0.5 / math.sqrt(2), rel=1e-15)

    def test_outside_rejected(self):
        with pytest.raises(DomainError):
            hg.hyperbolic_isometry(2, 3, [0.9, 0.1])

    def test_image_lands_in_unit_model(self):
        target = hg.Affine(1, 1)
        for c1, c2 in ((2.0, 3.0), (0.5, 2.0)):
            pts = hg.sample_interior(hg.Affine(c1, c2), 3, 100, seed=31, min_margin=1e-3)
            for p in pts:
                w = hg.hyperbolic_isometry(c1, c2, p.z)
                assert hg.contains(target, w) is not None


class TestPullback:
    def test_unit_parameters_exact(self, points_for):
        for p in points_for(hg.Affine(1, 1), 2, count=5):
            assert hg.pullback_check(1, 1, p) == 0.0

    @pytest.mark.parametrize("c1", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("c2", [0.5, 1.0, 3.0])
    def test_isometry_grid(self, c1, c2, points_for):
        prof = hg.Affine(c1, c2)
        for p in points_for(prof, 2, count=8, seed=37):
            assert hg.pullback_check(c1, c2, p) <= 1e-10

    def test_wrong_parameters_detected(self, points_for):
        # the rescaling for affine(2, 2.9) maps affine(2, 3) into the ball
        # but is not an isometry of it: the defect is far above the 1e-10
        # gate of pullback_isometry
        for p in points_for(hg.Affine(2, 3), 2, count=8, seed=37):
            assert hg.pullback_check(2, 2.9, p) > 1e-3

    def test_origin_tight(self):
        prof = hg.Affine(1, 2)
        p = hg.contains(prof, [0, 0])
        assert hg.pullback_check(1, 2, p) <= 1e-12

    def test_builds_only_the_images(self, monkeypatch):
        # the record of p is not rebuilt: one require_interior per call, on
        # the images, which keep the bits of `hyperbolic_isometry`
        calls = []
        original = hartogs.canonical.require_interior

        def spied(profile, z):
            calls.append((profile, np.array(z)))
            return original(profile, z)

        monkeypatch.setattr(hartogs.canonical, "require_interior", spied)
        points = hg.sample_interior(hg.Affine(2, 3), 3, 7, seed=5, min_margin=1e-3)
        images = hg.hyperbolic_isometry(2, 3, points.z)
        for p in (points, next(iter(points))):
            calls.clear()
            hg.pullback_check(2, 3, p)
            assert len(calls) == 1 and calls[0][0] == hg.Affine(1, 1)
            assert same_bits(calls[0][1], images if p is points else images[0])


def invariant_fields(n):
    """z_0 d/dz_0 and z'.d/dz', written out as explicit fields."""
    def coordinate(k):
        return tuple(int(j == k) for j in range(n))

    head = HoloVectorField(n, tuple(((1.0 + 0j, coordinate(0)),) if k == 0 else ()
                                    for k in range(n)))
    fiber = HoloVectorField(n, tuple(((1.0 + 0j, coordinate(k)),) if k else ()
                                     for k in range(n)))
    return [head, fiber]


def explicit_system(prof, points, fields):
    """The weighted least-squares system (design, rhs) of the sweep, built
    column by column: Ric on the right, then h and one Lie derivative per
    field, through lie_derivative_components."""
    blocks = []
    for p in points:
        m = hg.assemble_metric(prof, p)
        cols = [hg.ricci_tensor(prof, p, m), m.h]
        cols += [hg.lie_derivative_components(prof, p, m, f) for f in fields]
        weight = 1.0 / (1.0 + np.linalg.norm(m.h))
        blocks.append(weight * np.stack(
            [np.concatenate([c.real.ravel(), c.imag.ravel()]) for c in cols], axis=1))
    system = np.concatenate(blocks)
    return system[:, 1:], system[:, 0]


def lstsq_floor(design, rhs, count):
    """Solution and RMS per-point residual norm of a sweep system."""
    solution = np.linalg.lstsq(design, rhs, rcond=None)[0]
    per_point = (rhs - design @ solution).reshape(count, -1)
    return solution, math.sqrt(np.mean(np.sum(per_point**2, axis=1)))


def turned(prof, p, rng):
    """p moved by a random z_0 phase and a random unitary of the fiber."""
    n = p.n
    q, r = np.linalg.qr(rng.normal(size=(n - 1, n - 1)) + 1j * rng.normal(size=(n - 1, n - 1)))
    unitary = q * (np.diag(r) / np.abs(np.diag(r)))
    w = np.empty(n, complex)
    w[0] = np.exp(2j * math.pi * rng.random()) * p.z[0]
    w[1:] = unitary @ p.z[1:]
    return hg.contains(prof, w)


class TestInvariance:
    @pytest.mark.parametrize("profile", PSEUDOCONVEX_FAMILIES, ids=FAMILY_IDS)
    def test_group_leaves_measures_and_sweep_unchanged(self, profile):
        # U(1) x U(n-1) acts by isometries fixing h and Ric, which is what
        # lets the sweep fit only the invariant fields, and the radial
        # block of dT/dzbar is a function of (x, gap) alone; the max-abs
        # extremal residual is not invariant and is not checked
        rng = np.random.default_rng(71)

        def rel(a, b):
            return float(np.max(np.abs(np.asarray(a) - b)) / (1.0 + np.max(np.abs(b))))

        for n in (2, 3, 5, 8):
            points = hg.sample_interior(profile, n, 15, 4, 0.01)
            moved = [turned(profile, p, rng) for p in points]
            worst = 0.0
            for p, q in zip(points, moved):
                d = curvature_at(profile, p, hg.assemble_metric(profile, p))
                e = curvature_at(profile, q, hg.assemble_metric(profile, q))
                worst = max(worst, rel(e.scal, d.scal), rel(e.rho, d.rho),
                            rel(e.einstein, d.einstein),
                            rel(e.dbar, d.dbar))
            moved = hg.contains(profile, np.array([q.z for q in moved]))
            fit, fit_moved = soliton_sweep(profile, points), soliton_sweep(profile, moved)
            worst = max(worst, rel(fit_moved.lam, fit.lam), rel(fit_moved.residual, fit.residual))
            assert worst <= 1e-12, (n, worst)


class TestSolitonSweep:
    def test_affine_finds_einstein_pair(self):
        r = sweep(hg.Affine(1, 1))
        assert r.lam == pytest.approx(-3.0, abs=1e-6)
        assert abs(r.a) <= 1e-10 and abs(r.b) <= 1e-10
        assert r.residual <= 1e-10

    def test_affine_whole_range(self):
        # zero floor at lam = -(n+1), a = b = 0, over n = 2..8, margins down
        # to 0.002 and three seeds
        for prof in (hg.Affine(1, 1), hg.Affine(2, 3)):
            for n in range(2, 9):
                for margin in (0.05, 0.01, 0.002):
                    for seed in range(3):
                        r = soliton_sweep(prof, hg.sample_interior(prof, n, 10, seed, margin))
                        case = (prof.label(), n, margin, seed, r)
                        assert r.residual <= hartogs.cli.PASS_ZERO, case
                        assert max(abs(r.lam + n + 1), abs(r.a), abs(r.b)) <= 1e-10, case

    def test_nonaffine_floor(self):
        # empirically frozen floors: ~0.11 for powercap(2), ~0.20 for
        # expdecay(1); rigidity keeps them bounded away from zero
        assert sweep(hg.PowerCap(2)).residual > 1e-2
        assert sweep(hg.ExpDecay(1)).residual > 1e-2

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("prof", [hg.PowerCap(2), hg.Rational()], ids=lambda prof: prof.label())
    def test_matches_explicit_basis(self, monkeypatch, prof, n):
        # the solved system is the three-column one assembled from the two
        # invariant fields, and its floor is at least that of every field
        # of degree <= 2 (one HoloVectorField per basis column), which
        # contains the invariant fields
        points = hg.sample_interior(prof, n, 8, 3, 0.05)
        design, rhs = explicit_system(prof, points, invariant_fields(n))
        solution, floor = lstsq_floor(design, rhs, len(points))
        exps = sorted(e for e in itertools.product(range(3), repeat=n) if sum(e) <= 2)
        basis = [HoloVectorField(n, tuple(((unit, e),) if j == k else () for j in range(n)))
                 for k in range(n) for e in exps for unit in (1.0 + 0j, 1j)]
        degree_2_floor = lstsq_floor(*explicit_system(prof, points, basis), len(points))[1]

        seen = []
        original = np.linalg.lstsq

        def recorded(a, b, **kwargs):
            seen.append((a, b))
            return original(a, b, **kwargs)

        monkeypatch.setattr(hartogs.canonical.np.linalg, "lstsq", recorded)
        got = soliton_sweep(prof, points)
        assert len(seen) == 1
        assert seen[0][0].shape == design.shape == (len(points) * 2 * n * n, 3)
        assert np.max(np.abs(seen[0][0] - design)) <= 1e-12 * np.max(np.abs(design))
        assert np.max(np.abs(seen[0][1] - rhs)) <= 1e-12 * np.max(np.abs(rhs))
        assert [got.lam, got.a, got.b] == pytest.approx(solution, rel=1e-10)
        assert got.residual == pytest.approx(floor, rel=1e-10)
        assert got.residual >= degree_2_floor

    def test_one_batched_lie_sum_per_point(self, monkeypatch):
        # the two invariant fields go through lie_from_jets once per block
        # of points, on the stacked record, and no HoloVectorField is
        # evaluated
        calls = []
        original = hartogs.canonical.lie_from_jets

        def counted(*args):
            calls.append(args[1].shape)
            return original(*args)

        def refuse(self, z):
            raise AssertionError("HoloVectorField.jet called in the sweep")

        monkeypatch.setattr(hartogs.canonical, "lie_from_jets", counted)
        monkeypatch.setattr(HoloVectorField, "jet", refuse)
        prof = hg.Rational()
        for n in (2, 4):
            calls.clear()
            soliton_sweep(prof, hg.sample_interior(prof, n, 6, 1, 0.05))
            assert calls == [(2, 6, n, n)]
