import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hartogs as hg
from hartogs.errors import DomainError
from hartogs.profiles import interior_grid, interior_x_max, parse_profile

from conftest import FAMILY_IDS, PSEUDOCONVEX_FAMILIES, CubicCap, QuadCap, central_d1, same_bits


class TestEval:
    def test_affine_value_at_zero(self):
        assert hg.Affine(1, 1).eval(0.0, 0) == 1.0

    def test_affine_first_derivative_constant(self):
        assert hg.Affine(1, 1).eval(0.5, 1) == -1.0

    def test_powercap_second_derivative(self):
        # F'' = p(p-1)(1-x)^(p-2) = 2 at p=2; cross-checked against a
        # finite difference of F' below
        prof = hg.PowerCap(2)
        assert prof.eval(0.5, 2) == pytest.approx(2.0, abs=1e-12)
        fd = central_d1(lambda x: prof.eval(x, 1), 0.5, 1e-5)
        assert prof.eval(0.5, 2) == pytest.approx(fd, rel=1e-6)

    def test_out_of_domain_raises(self):
        with pytest.raises(DomainError):
            hg.Affine(1, 1).eval(1.0)
        with pytest.raises(DomainError):
            hg.PowerCap(2).eval(-0.1)

    def test_bad_order_raises(self):
        with pytest.raises(ValueError):
            hg.Rational().eval(0.5, 4)

    def test_bad_parameters_raise(self):
        with pytest.raises(ValueError):
            hg.Affine(-1, 1)
        with pytest.raises(ValueError):
            hg.PowerCap(0)
        with pytest.raises(ValueError):
            hg.ExpDecay(-2)
        for make in (lambda: hg.Affine(math.inf, 1), lambda: hg.Affine(1, math.inf),
                     lambda: hg.PowerCap(math.inf), lambda: hg.ExpDecay(math.inf),
                     lambda: hg.ConstantProbe(math.inf)):
            with pytest.raises(ValueError, match="finite"):
                make()


RADIAL_FAMILIES = [
    *PSEUDOCONVEX_FAMILIES, hg.PowerCap(0.5), hg.PowerCap(800), hg.ExpDecay(1e-4), hg.ExpDecay(3.7),
    hg.ConstantProbe(), QuadCap(1.0 / 3.0), CubicCap(1.0 / 3.0, 1.0),
]


@pytest.mark.parametrize("profile", RADIAL_FAMILIES, ids=lambda prof: prof.label())
def test_radial_is_eval_and_det_core(profile):
    # the radial data of a record from one call: F, F', F'' and det_core
    # with the bits of eval and det_core, at a float and at each x of an
    # array, and the same DomainError outside [0, x0)
    xs = interior_x_max(profile) * np.array([0.0, 1e-300, 0.1, 0.37, 0.5, 0.999, 1.0])
    for x in (xs, *xs.tolist()):
        want = (profile.eval(x), profile.eval(x, 1), profile.eval(x, 2), profile.det_core(x))
        got = profile.radial(x)
        assert len(got) == 4
        for g, w in zip(got, want):
            assert type(g) is type(w) and same_bits(g, w)
    top = profile.x0 if math.isfinite(profile.x0) else -1.0
    for x in (-0.5, top, np.array([0.1, -0.25, top])):
        with pytest.raises(DomainError) as want:
            profile.eval(x)
        with pytest.raises(DomainError) as got:
            profile.radial(x)
        assert str(got.value) == str(want.value)


# powercap's F''' vanishes at p = 2, so two more exponents check it
@pytest.mark.parametrize(
    "profile", [*PSEUDOCONVEX_FAMILIES, hg.PowerCap(0.5), hg.PowerCap(3)],
    ids=lambda prof: prof.label(),
)
def test_closed_form_derivatives_match_fd(profile):
    top = interior_x_max(profile)
    for i in range(1, 20):
        x = top * i / 20
        h = 1e-5 * (1 + abs(x))
        d1_fd = central_d1(lambda t: profile.eval(t, 0), x, h)
        d2_fd = central_d1(lambda t: profile.eval(t, 1), x, h)
        d3_fd = central_d1(lambda t: profile.eval(t, 2), x, h)
        assert profile.eval(x, 1) == pytest.approx(d1_fd, rel=1e-6, abs=1e-9)
        assert profile.eval(x, 2) == pytest.approx(d2_fd, rel=1e-6, abs=1e-9)
        assert profile.eval(x, 3) == pytest.approx(d3_fd, rel=1e-6, abs=1e-9)


@pytest.mark.parametrize("profile", PSEUDOCONVEX_FAMILIES, ids=FAMILY_IDS)
def test_decreasing_positive_hypothesis(profile):
    for x in interior_grid(profile, 50):
        assert profile.eval(x, 0) > 0
        assert profile.eval(x, 1) < 0


@pytest.mark.parametrize("profile", PSEUDOCONVEX_FAMILIES, ids=FAMILY_IDS)
def test_det_core_matches_generic_combination(profile):
    # simplified per-family closed form against x F'^2 - F (F' + F'' x)
    for x in interior_grid(profile, 25):
        f, d1, d2 = (profile.eval(x, k) for k in range(3))
        t1 = x * d1 * d1
        t2 = f * (d1 + d2 * x)
        scale = 1.0 + abs(t1) + abs(t2)
        assert abs(profile.det_core(x) - (t1 - t2)) <= 1e-12 * scale


class TestMargin:
    def test_affine_at_zero(self):
        # -(x (-1)/(1-x))' = 1/(1-x)^2, equal to 1 at x = 0
        assert hg.pseudoconvexity_margin(hg.Affine(1, 1), 0.0) == pytest.approx(1.0, abs=1e-12)

    def test_affine_closed_form(self):
        prof = hg.Affine(1, 1)
        for x in (0.1, 0.4, 0.8):
            assert hg.pseudoconvexity_margin(prof, x) == pytest.approx(
                1.0 / (1.0 - x) ** 2, rel=1e-12
            )

    def test_expdecay_identically_one(self):
        prof = hg.ExpDecay(1)
        for x in (0.0, 0.7, 3.0, 9.5):
            assert hg.pseudoconvexity_margin(prof, x) == pytest.approx(1.0, abs=1e-12)

    def test_powercap_at_zero(self):
        # margin = p/(1-x)^2
        assert hg.pseudoconvexity_margin(hg.PowerCap(2), 0.0) == pytest.approx(2.0, abs=1e-12)
        assert hg.pseudoconvexity_margin(hg.PowerCap(2), 0.5) == pytest.approx(8.0, rel=1e-12)

    @pytest.mark.parametrize("profile", PSEUDOCONVEX_FAMILIES, ids=FAMILY_IDS)
    def test_margin_matches_fd_of_ratio(self, profile):
        # oracle: central difference of -x F'/F
        def ratio(x):
            return x * profile.eval(x, 1) / profile.eval(x, 0)

        top = interior_x_max(profile)
        for i in range(1, 20):
            x = top * i / 20
            h = 1e-5 * (1 + abs(x))
            fd = -central_d1(ratio, x, h)
            m = hg.pseudoconvexity_margin(profile, x)
            assert abs(m - fd) <= 1e-6 * (1.0 + abs(m))

    @pytest.mark.parametrize(
        "profile",
        [hg.Affine(1, 1), hg.Affine(2, 3), hg.PowerCap(0.5), hg.PowerCap(2), hg.PowerCap(3),
         hg.ExpDecay(1), hg.Rational()],
        ids=lambda prof: prof.label(),
    )
    def test_closed_form_matches_base_formula(self, profile):
        # the family's closed form against -[(F' + x F'') F - x F'^2] / F^2
        # (worst 6.8e-15)
        for count in (200, 2000):
            for x in interior_grid(profile, count):
                want = hg.Profile.margin(profile, x)
                assert abs(profile.margin(x) - want) <= 1e-13 * abs(want)

    def test_margin_is_domain_guarded(self):
        for prof, x in ((hg.Affine(1, 1), 1.0), (hg.PowerCap(2), -0.1), (hg.ExpDecay(1), math.inf)):
            with pytest.raises(DomainError):
                hg.pseudoconvexity_margin(prof, x)

    def test_probe_margin_identically_zero(self):
        probe = hg.ConstantProbe()
        for x in (0.0, 0.5, 2.0):
            assert hg.pseudoconvexity_margin(probe, x) == 0.0


class TestScan:
    def test_affine_2_3(self):
        grid = [i * (2 / 3 - 1e-3) / 99 for i in range(100)]
        scan = hg.is_strongly_pseudoconvex(hg.Affine(2, 3), grid, 1e-9)
        assert scan.ok
        assert scan.min_margin > 0

    def test_expdecay(self):
        grid = [10 * i / 99 for i in range(100)]
        scan = hg.is_strongly_pseudoconvex(hg.ExpDecay(1), grid, 1e-9)
        assert scan.ok
        assert scan.min_margin == pytest.approx(1.0, abs=1e-12)

    def test_probe_fails(self):
        grid = [i / 10 for i in range(11)]
        scan = hg.is_strongly_pseudoconvex(hg.ConstantProbe(), grid, 1e-9)
        assert not scan.ok
        assert scan.min_margin == 0.0

    def test_empty_grid_raises(self):
        with pytest.raises(ValueError):
            hg.is_strongly_pseudoconvex(hg.Affine(1, 1), [], 1e-9)

    @pytest.mark.parametrize("where", ["everywhere", "upper half"])
    def test_nan_margin_fails(self, where):
        # a NaN margin is the worst one and fails the scan; a loop of
        # `m < worst` comparisons skipped it and passed with min margin inf
        class NanMargin(hg.PowerCap):
            def margin(self, x):
                return np.where(x >= (0.0 if where == "everywhere" else 0.5), math.nan, 1.0)

        grid = interior_grid(hg.PowerCap(2), 100)
        scan = hg.is_strongly_pseudoconvex(NanMargin(2), grid)
        assert not scan.ok and math.isnan(scan.min_margin)
        assert scan.x_at_min == min(x for x in grid if x >= (0.0 if where == "everywhere" else 0.5))

    def test_reports_argmin(self):
        # affine margin is increasing, so the minimum sits at x = 0
        scan = hg.is_strongly_pseudoconvex(hg.Affine(1, 1), interior_grid(hg.Affine(1, 1), 100))
        assert scan.x_at_min == 0.0
        assert scan.min_margin == pytest.approx(1.0, abs=1e-12)


class TestParse:
    @pytest.mark.parametrize("profile", PSEUDOCONVEX_FAMILIES, ids=FAMILY_IDS)
    def test_label_round_trip(self, profile):
        assert parse_profile(profile.label()) == profile

    def test_labels(self):
        profiles = [hg.Affine(1, 1), hg.Affine(2.5, 3.0), hg.PowerCap(0.5), hg.ExpDecay(1e-3),
                    hg.Rational(), hg.ConstantProbe()]
        assert [prof.label() for prof in profiles] == [
            "affine:1,1", "affine:2.5,3", "powercap:0.5", "expdecay:0.001", "rational",
            "constant-probe:1",
        ]

    def test_examples(self):
        assert parse_profile("affine:1,1") == hg.Affine(1, 1)
        assert parse_profile("powercap:2") == hg.PowerCap(2)
        assert parse_profile("expdecay:0.5") == hg.ExpDecay(0.5)
        assert parse_profile("rational") == hg.Rational()

    @pytest.mark.parametrize(
        "text", ["affine:1", "affine", "powercap", "rational:1", "nosuch:1", "affine:a,b",
                 "affine:1,,1", "affine:1,1,", "powercap:,2", "powercap:2,", "rational:,"]
    )
    def test_malformed(self, text):
        with pytest.raises(ValueError):
            parse_profile(text)

    def test_probe_not_reachable(self):
        with pytest.raises(ValueError):
            parse_profile("constant-probe:1")


def test_x0_values():
    assert hg.Affine(2, 3).x0 == pytest.approx(2 / 3)
    assert hg.PowerCap(2).x0 == 1.0
    assert math.isinf(hg.ExpDecay(1).x0)
    assert math.isinf(hg.Rational().x0)


@pytest.mark.parametrize("count", [1, 2, 3, 7, 200, 2000, 4097])
@pytest.mark.parametrize("profile", [hg.Affine(2, 3), hg.PowerCap(2), hg.Rational()],
                         ids=lambda prof: prof.label())
def test_interior_grid_is_the_scalar_grid(profile, count):
    # one array expression, the bits of top * i / (count - 1) per point
    top = interior_x_max(profile)
    want = [top * i / (count - 1) for i in range(count)] if count > 1 else [0.0]
    grid = interior_grid(profile, count)
    assert grid.dtype == np.float64
    assert grid.tolist() == want


def test_interior_grid_respects_clearance():
    grid = interior_grid(hg.Affine(2, 3), 100)
    assert grid[0] == 0.0
    assert grid[-1] <= hg.Affine(2, 3).x0 * (1 - 1e-3) + 1e-15
    grid = interior_grid(hg.Rational(), 10)
    assert grid[-1] == 10.0


@settings(max_examples=40, deadline=None)
@given(
    c1=st.floats(min_value=0.3, max_value=3.0),
    c2=st.floats(min_value=0.3, max_value=3.0),
    frac=st.floats(min_value=0.02, max_value=0.8),
)
def test_affine_margin_positive_and_fd_consistent(c1, c2, frac):
    prof = hg.Affine(c1, c2)
    x = frac * prof.x0 * (1 - 1e-3)
    m = hg.pseudoconvexity_margin(prof, x)
    assert m > 0
    h = 1e-5 * (1 + x)
    fd = -central_d1(lambda t: t * prof.eval(t, 1) / prof.eval(t, 0), x, h)
    assert abs(m - fd) <= 1e-6 * (1 + abs(m))


CLOSED_FORMS = ("_f", "_d1", "_d2", "_d3", "det_core", "margin", "defect", "slope_d1", "slope_d2")


@st.composite
def cli_profiles(draw):
    """A profile of a CLI family, at pinned and drawn parameters."""
    family = draw(st.sampled_from(["powercap", "affine", "expdecay", "rational"]))
    if family == "powercap":
        return hg.PowerCap(draw(st.sampled_from([0.5, 1.0, 2.0, 800.0]) | st.floats(0.01, 1000.0)))
    if family == "affine":
        return hg.Affine(draw(st.floats(1e-3, 1e3)), draw(st.floats(1e-3, 1e3)))
    if family == "expdecay":
        return hg.ExpDecay(draw(st.sampled_from([1e-4, 1.0]) | st.floats(1e-4, 50.0)))
    return hg.Rational()


@settings(derandomize=True, max_examples=300, deadline=None)
@given(profile=cli_profiles(),
       fracs=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=12))
def test_array_closed_forms_match_scalar_ones(profile, fracs):
    # each closed form on an array of x has x's shape and, at each entry,
    # the bits of the scalar call at that x, signed zeros included
    x = np.array([f * interior_x_max(profile) for f in fracs])
    for name in CLOSED_FORMS:
        form = getattr(profile, name)
        with np.errstate(all="ignore"):  # powercap:800's slopes overflow to inf near x0
            stacked = form(x)
            single = np.array([form(v) for v in x.tolist()], dtype=float)
        assert np.shape(stacked) == x.shape, name
        assert np.asarray(stacked).view(np.int64).tolist() == single.view(np.int64).tolist(), name


@settings(derandomize=True, max_examples=300, deadline=None)
@given(profile=cli_profiles())
@example(profile=hg.PowerCap(1.0000001))
@example(profile=hg.PowerCap(1.0000000000000002))
@example(profile=hg.Affine(123456789, 2))
@example(profile=hg.ExpDecay(0.3333333333333333))
def test_label_names_the_profile(profile):
    # the label that starts every output line and fills the CSV profile
    # column reads back as the same profile, every parameter to the bit
    assert parse_profile(profile.label()) == profile


#: each family once, with the repr and label it has as a dataclass; QuadCap
#: and CubicCap carry their parameters through `params`, like the others
FAMILY_RECORDS = [
    (hg.PowerCap(2.0), "PowerCap(p=2.0)", "powercap:2"),
    (hg.Affine(1.0, 2.0), "Affine(c1=1.0, c2=2.0)", "affine:1,2"),
    (hg.ExpDecay(0.5), "ExpDecay(rate=0.5)", "expdecay:0.5"),
    (hg.Rational(), "Rational()", "rational"),
    (hg.ConstantProbe(), "ConstantProbe(level=1.0)", "constant-probe:1"),
    (QuadCap(3.0), "QuadCap(c=3.0)", "quadcap:3"),
    (CubicCap(1.0 / 3.0, 1.0), "CubicCap(c=0.3333333333333333, d=1.0)",
     "cubiccap:0.3333333333333333,1"),
]


@pytest.mark.parametrize("profile, text, label", FAMILY_RECORDS,
                         ids=[label for _, _, label in FAMILY_RECORDS])
def test_family_is_an_immutable_value(profile, text, label):
    assert repr(profile) == text and profile.label() == label
    # equal and hashed on the family and the values, as built again
    again = type(profile)(*(getattr(profile, name) for name in profile.params))
    assert again == profile and hash(again) == hash(profile) and again is not profile
    if profile.family in ("powercap", "affine", "expdecay", "rational"):
        parsed = parse_profile(label)
        assert parsed == profile and hash(parsed) == hash(profile)
    for name in (*profile.params, "family", "other"):
        with pytest.raises(AttributeError):
            setattr(profile, name, 1.0)
        with pytest.raises(AttributeError):
            delattr(profile, name)
    assert repr(profile) == text


def test_families_differ_with_equal_values():
    assert hg.PowerCap(2.0) != hg.ExpDecay(2.0) and hg.ExpDecay(2.0) != hg.PowerCap(2.0)
    assert QuadCap(2.0) != hg.PowerCap(2.0) and CubicCap(2.0, 1.0) != QuadCap(2.0)
    assert hg.Rational() == hg.Rational() and hg.Rational() != hg.ConstantProbe()
    assert hg.ConstantProbe() == hg.ConstantProbe(1.0) == hg.ConstantProbe(level=1.0)


def test_parameter_wordings():
    for make, wording in [
        (lambda: hg.PowerCap(0), "powercap profile needs finite p > 0, got 0"),
        (lambda: hg.Affine(1.0, -2.0), "affine profile needs finite c2 > 0, got -2.0"),
        (lambda: hg.ExpDecay(math.nan), "expdecay profile needs finite rate > 0, got nan"),
        (lambda: hg.ConstantProbe(math.inf),
         "constant-probe profile needs finite level > 0, got inf"),
        (lambda: QuadCap(-1.0), "quadcap profile needs finite c > 0, got -1.0"),
        (lambda: CubicCap(1.0, 0.0), "cubiccap profile needs finite d > 0, got 0.0"),
    ]:
        with pytest.raises(ValueError) as err:
            make()
        assert str(err.value) == wording
    for text, wording in [
        ("affine:1", "profile 'affine' takes 2 parameter(s), got 1 in 'affine:1'"),
        ("powercap", "profile 'powercap' takes 1 parameter(s), got 0 in 'powercap'"),
        ("rational:1", "profile 'rational' takes 0 parameter(s), got 1 in 'rational:1'"),
    ]:
        with pytest.raises(ValueError) as err:
            parse_profile(text)
        assert str(err.value) == wording
    for make in (lambda: hg.PowerCap(), lambda: hg.PowerCap(1.0, 2.0), lambda: hg.Rational(1.0),
                 lambda: hg.PowerCap(2.0, p=3.0), lambda: hg.ExpDecay(p=1.0)):
        with pytest.raises(TypeError):
            make()
