import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings

import hartogs as hg
import hartogs.cli
import hartogs.metric
import hartogs.profiles
from hartogs.boundary import boundary_point, sample_boundary
from hartogs.errors import DomainError, SamplingError, SingularityError
from hartogs.metric import (
    BLOCK,
    DISK_BATCH,
    _draws,
    _x_and_fiber,
    inverse_metric_matrix,
    metric_derivative_along,
    metric_fd_oracle,
    metric_matrix,
    point_record,
    require_interior,
    sample_streams,
    stacked_points,
)
from hartogs.profiles import interior_x_max
from hartogs.wirtinger import ComplexStencil

from conftest import (
    FAMILY_IDS,
    MASK,
    PSEUDOCONVEX_FAMILIES,
    QuadCap,
    ReferenceStreams,
    disk_rounds,
    doctor_draws,
    interior_reference,
    metric_gradients,
    profile_cases,
    same_bits,
    unreached_draws,
)


class TestContains:
    def test_origin_interior(self):
        p = hg.contains(hg.Affine(1, 1), [0, 0])
        assert p is not None
        assert p.gap == 1.0
        assert p.margin == 1.0

    def test_boundary_point_outside(self):
        assert hg.contains(hg.Affine(1, 1), [0, 1]) is None

    def test_radial_bound(self):
        assert hg.contains(hg.Affine(1, 1), [1.0, 0]) is None

    def test_powercap_gap_value(self):
        # gap = (1 - 0.25)^2 - 0.09 = 0.4725
        p = hg.contains(hg.PowerCap(2), [0.5, 0.3j])
        assert p is not None
        assert p.gap == pytest.approx(0.4725, abs=1e-15)

    def test_require_interior_raises(self):
        with pytest.raises(DomainError):
            require_interior(hg.Affine(1, 1), [0, 1.2])

    @pytest.mark.parametrize("profile", PSEUDOCONVEX_FAMILIES, ids=FAMILY_IDS)
    @pytest.mark.parametrize("n", [2, 3, 8])
    def test_record_matches_closed_forms(self, profile, n, points_for):
        # the record's radial data are the profile's closed forms at p.x,
        # bit for bit, at interior and at boundary points
        for p in [*points_for(profile, n), *sample_boundary(profile, n, 10, seed=101)]:
            assert (p.f, p.d1, p.d2) == tuple(profile.eval(p.x, k) for k in range(3))
            assert p.det_core == profile.det_core(p.x)

    def test_needs_two_coordinates(self):
        with pytest.raises(ValueError):
            hg.contains(hg.Affine(1, 1), [0.1])

    def test_all_inside_is_the_record_itself(self, monkeypatch):
        # no masked copy where every point is inside: the fields are
        # point_record's arrays, and z is the caller's
        prof, records = hg.PowerCap(2), []

        def recorded(profile, z):
            records.append(point_record(profile, z))
            return records[-1]

        monkeypatch.setattr(hartogs.metric, "point_record", recorded)
        z = np.array([[0.1, 0.2], [0.3, 0.1j], [0.2j, -0.4]])
        p = hg.contains(prof, z)
        assert np.shares_memory(p.z, z)
        for name in hg.DomainPoint._fields:
            assert np.shares_memory(getattr(p, name), getattr(records[-1], name)), name
        # with points outside, the others keep their order and their bits
        mixed = np.array([[0.1, 2.0], [0.1, 0.2], [0.9, 0.5], [0.3, 0.1j], [0.2j, -0.4]])
        kept = hg.contains(prof, mixed)
        assert not np.shares_memory(kept.z, mixed)
        for name in hg.DomainPoint._fields:
            assert same_bits(getattr(kept, name), getattr(p, name)), name

    @pytest.mark.parametrize("n", [2, 3, 8, 32])
    def test_fiber_norm_summed_in_coordinate_order(self, n):
        # one Python float at a time, |z_1|^2 first; magnitudes spread over
        # 16 orders so that any other order of the sum moves bits
        rng = np.random.default_rng(n)
        scale = 10.0 ** rng.integers(-8, 8, (200, n))
        z = scale * (rng.standard_normal((200, n)) + 1j * rng.standard_normal((200, n)))
        want = []
        for w in z.tolist():
            fiber = 0.0
            for c in w[1:]:
                fiber = fiber + (c.real * c.real + c.imag * c.imag)
            want.append(fiber)
        x, fiber = _x_and_fiber(z)
        assert same_bits(fiber, np.array(want))
        assert same_bits(x, z.real[:, 0] * z.real[:, 0] + z.imag[:, 0] * z.imag[:, 0])

    @pytest.mark.parametrize("n", [2, 3, 8, 16, 32])
    @pytest.mark.parametrize("count", [1, 20, 64, 65, 2000])
    def test_fiber_sum_has_the_cumsum_bits(self, count, n):
        # the in-place column adds give every x and fiber norm cumsum's
        # bits, on one row, on the few of a small record and on many; signed
        # zeros and subnormals among the coordinates, and magnitudes over
        # 16 orders, so that another order of the sum moves bits
        rng = np.random.default_rng(count * 100 + n)
        scale = 10.0 ** rng.integers(-8, 8, (count, n))
        z = scale * (rng.standard_normal((count, n)) + 1j * rng.standard_normal((count, n)))
        special = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e-160])
        for part in (z.real, z.imag):
            hit = rng.random((count, n)) < 0.2
            part[hit] = rng.choice(special, hit.sum())
        z[0] = complex(-0.0, -0.0)
        square = z.real * z.real + z.imag * z.imag
        x, fiber = _x_and_fiber(z)
        assert same_bits(x, square[:, 0])
        assert same_bits(fiber, np.cumsum(square[:, 1:], axis=-1)[:, -1])

    def test_one_domain_check_per_record(self, monkeypatch):
        # point_record reads F, F', F'' and det_core from one
        # Profile.radial call, which checks the domain once for the stack
        checks = []
        real = hartogs.profiles._require_domain
        monkeypatch.setattr(hartogs.profiles, "_require_domain",
                            lambda profile, x: checks.append(np.shape(x)) or real(profile, x))
        z = 0.5 * sample_boundary(hg.PowerCap(2), 8, 300, seed=4).z
        for profile in (hg.ExpDecay(1), hg.PowerCap(2), hg.Rational(), QuadCap(3.0)):
            for points, shape in ((z, (300,)), (z[7], (1,))):
                checks.clear()
                point_record(profile, points)
                assert checks == [shape]


class TestAssembly:
    def test_identity_at_origin(self):
        prof = hg.Affine(1, 1)
        p = hg.contains(prof, [0, 0])
        m = hg.assemble_metric(prof, p)
        assert np.array_equal(m.h, np.eye(2).astype(complex))
        assert np.array_equal(inverse_metric_matrix(p), np.eye(2).astype(complex))
        assert m.det == 1.0

    def test_zero_fiber_kills_off_diagonals(self):
        prof = hg.ExpDecay(1)
        p = hg.contains(prof, [0.3 + 0.1j, 0, 0])
        m = hg.assemble_metric(prof, p)
        assert m.h[0, 1] == 0 and m.h[0, 2] == 0 and m.h[1, 2] == 0
        assert m.h[1, 1] == m.h[2, 2]

    def test_hermitian_by_construction(self, points_for):
        prof = hg.PowerCap(2)
        for p in points_for(prof, 4):
            m = hg.assemble_metric(prof, p)
            h_inv = inverse_metric_matrix(p)
            assert np.array_equal(m.h, m.h.conj().T)
            assert np.array_equal(h_inv, h_inv.conj().T)

    def test_non_interior_rejected(self):
        prof = hg.Affine(1, 1)
        bogus = boundary_point(prof, [0, 1])
        with pytest.raises(DomainError):
            hg.assemble_metric(prof, bogus)

    @pytest.mark.parametrize("profile", PSEUDOCONVEX_FAMILIES, ids=FAMILY_IDS)
    def test_boundary_records_rejected(self, profile):
        # a sampled boundary record carries margin 0.0, whatever the sign
        # of its rounded gap
        for b in sample_boundary(profile, 3, 10, seed=2):
            assert b.margin == 0.0
            with pytest.raises(DomainError):
                hg.assemble_metric(profile, b)

    def test_singular_profile_rejected(self):
        probe = hg.ConstantProbe()
        p = hg.contains(probe, [0.2, 0.3])
        with pytest.raises(SingularityError):
            hg.assemble_metric(probe, p)


@pytest.mark.parametrize("profile", PSEUDOCONVEX_FAMILIES, ids=FAMILY_IDS)
@pytest.mark.parametrize("n", [2, 3, 4])
def test_closed_form_vs_fd_hessian(profile, n, points_for):
    for p in points_for(profile, n):
        m = hg.assemble_metric(profile, p)
        fd = metric_fd_oracle(profile, p)
        err = np.linalg.norm(m.h - fd) / (1.0 + np.linalg.norm(m.h))
        assert err <= 1e-11


@pytest.mark.parametrize("profile", PSEUDOCONVEX_FAMILIES, ids=FAMILY_IDS)
@pytest.mark.parametrize("n", [2, 3, 8])
def test_metric_gradients_vs_fd(profile, n, points_for):
    # Wirtinger differences of the closed-form entries, against the
    # test-side tensor that the contractions are checked against below
    stencil = ComplexStencil(1e-6)

    def h_of(w):
        return metric_matrix(require_interior(profile, w))

    for p in points_for(profile, n, min_margin=0.05):
        dg, dgbar = metric_gradients(profile, p)
        for k in range(n):
            for got, want in zip((dg[k], dgbar[k]), stencil.d_pair(h_of, p.z, k)):
                assert np.max(np.abs(got - want)) <= 1e-6 * np.max(np.abs(want))


def relative_error(got, want):
    """max |got - want| / max |want| over each point's matrix."""
    return np.max(np.abs(got - want), axis=(-2, -1)) / np.max(np.abs(want), axis=(-2, -1))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(case=profile_cases())
@example(case=(hg.PowerCap(1.001), 8, 1e-3, 1))
@example(case=(hg.PowerCap(1.001), 16, 0.05, 2))
@example(case=(hg.Rational(), 16, 1e-3, 3))
@example(case=(hg.ExpDecay(1.0), 16, 1e-3, 4))
@example(case=(hg.Affine(1.0, 1.0), 16, 1e-3, 5))
@example(case=(hg.PowerCap(2.0), 16, 1e-3, 6))
def test_contractions_match_gradient_tensor(case):
    # sum_k v_k dh/dz_k, formed in O(n^2), is the contraction of the
    # test-side (N, n, n, n) tensor, for random complex v, two vectors per
    # point
    profile, n, margin, seed = case
    p = hg.sample_interior(profile, n, 6, seed % 1000, margin)
    rng = np.random.default_rng(seed)
    v = rng.normal(size=(2, 6, n)) + 1j * rng.normal(size=(2, 6, n))
    dg = metric_gradients(profile, p)[0]
    along = metric_derivative_along(profile, p, v)
    for j in range(2):
        assert np.max(relative_error(along[j], np.einsum("...k,...kab->...ab", v[j], dg))) <= 1e-14


@pytest.mark.parametrize("profile", PSEUDOCONVEX_FAMILIES, ids=FAMILY_IDS)
@pytest.mark.parametrize("n", [2, 3, 4])
def test_determinant_and_inverse_identities(profile, n, points_for):
    eye = np.eye(n)
    for p in points_for(profile, n):
        m = hg.assemble_metric(profile, p)
        dense = np.linalg.det(m.h).real
        assert abs(m.det - dense) <= 1e-10 * (1.0 + abs(m.det))
        assert np.linalg.norm(m.h @ inverse_metric_matrix(p) - eye) <= 1e-10
        # determinant also reads as F^2 * margin / gap^(n+1)
        f = profile.eval(p.x)
        alt = f * f * hg.pseudoconvexity_margin(profile, p.x) / p.gap ** (n + 1)
        assert m.det == pytest.approx(alt, rel=1e-12)


def test_determinant_examples():
    aff = hg.Affine(1, 1)
    assert hg.assemble_metric(aff, hg.contains(aff, [0, 0])).det == 1.0
    assert hg.assemble_metric(aff, hg.contains(aff, [0, 0, 0])).det == 1.0
    # expdecay(1) at (1, 0, 0): margin is 1, gap = e^-1, so det = e^-2 / e^-4
    prof = hg.ExpDecay(1)
    det = hg.assemble_metric(prof, hg.contains(prof, [1, 0, 0])).det
    assert det == pytest.approx(math.e**2, rel=1e-12)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_principal_minor_formula(n, points_for):
    # det of the fiber block of gap^2 h is gap^(n-1) + gap^(n-2) * fiber norm
    prof = hg.Affine(2, 3)
    for p in points_for(prof, n):
        m = hg.assemble_metric(prof, p)
        block = (p.gap**2 * m.h)[1:, 1:]
        fiber = sum(abs(complex(z)) ** 2 for z in p.z[1:])
        want = p.gap ** (n - 1) + p.gap ** (n - 2) * fiber
        got = np.linalg.det(block).real
        assert got == pytest.approx(want, rel=1e-10)


@pytest.mark.parametrize("profile", PSEUDOCONVEX_FAMILIES, ids=FAMILY_IDS)
def test_positive_definiteness_tracks_margin(profile, points_for):
    for p in points_for(profile, 3):
        assert hg.pseudoconvexity_margin(profile, p.x) > 0
        assert np.linalg.eigvalsh(metric_matrix(p))[0] > 0.0


def test_degenerate_probe_not_positive_definite():
    probe = hg.ConstantProbe()
    z = np.array([0.4, 0.3 + 0.2j], complex)
    assert hg.pseudoconvexity_margin(probe, 0.16) == 0.0
    eig = np.linalg.eigvalsh(metric_matrix(require_interior(probe, z)))
    assert eig[0] <= 1e-12 * eig[-1]


class TestSampling:
    def test_determinism(self):
        a = hg.sample_interior(hg.PowerCap(2), 3, 7, seed=42)
        b = hg.sample_interior(hg.PowerCap(2), 3, 7, seed=42)
        assert len(a) == len(b) == 7
        for pa, pb in zip(a, b):
            assert np.array_equal(pa.z, pb.z)

    def test_margins_respected(self):
        for p in hg.sample_interior(hg.Affine(1, 1), 2, 25, seed=7, min_margin=0.05):
            assert p.gap >= 0.05
            assert p.margin >= 0.05

    def test_tight_margin_clusters_near_origin(self):
        pts = hg.sample_interior(hg.Affine(1, 1), 2, 5, seed=3, min_margin=0.999)
        for p in pts:
            assert p.gap >= 0.999
            assert max(abs(complex(z)) for z in p.z) < 0.05

    def test_unbounded_profiles_capped(self):
        for p in hg.sample_interior(hg.Rational(), 2, 20, seed=9, min_margin=0.05):
            assert p.x <= 10.0

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            hg.sample_interior(hg.Affine(1, 1), 2, 0, seed=1)
        with pytest.raises(ValueError):
            hg.sample_interior(hg.Affine(1, 1), 1, 5, seed=1)

    def test_impossible_margin_raises(self):
        with pytest.raises(SamplingError):
            hg.sample_interior(hg.Affine(1, 1), 2, 1, seed=1, min_margin=1.5)

    @pytest.mark.parametrize("min_margin", [0.05, 0.01, 0.002])
    @pytest.mark.parametrize("profile", PSEUDOCONVEX_FAMILIES, ids=FAMILY_IDS)
    def test_reaches_n8(self, profile, min_margin):
        pts = hg.sample_interior(profile, 8, 50, 8, min_margin)
        assert len(pts) == 50
        assert all(p.n == 8 and p.margin >= min_margin for p in pts)

    @pytest.mark.parametrize("profile", PSEUDOCONVEX_FAMILIES, ids=FAMILY_IDS)
    def test_draws_match_reference(self, profile):
        # the sampler written one candidate at a time, three uniforms a
        # candidate and one fiber row a candidate with a positive budget:
        # the block draws must give the same points bit for bit,
        # rejections included
        for margin in (0.05, 0.002):
            for n in range(2, 9):
                want = interior_reference(n, profile, n, 50, margin)
                assert same_bits(hg.sample_interior(profile, n, 50, n, margin).z, want)

    @pytest.mark.parametrize(
        "profile, n, count, margin",
        [*((p, 3, BLOCK + 44, 0.05) for p in PSEUDOCONVEX_FAMILIES), (hg.Rational(), 16, 40, 0.002)],
        ids=[*(f"{label}-past-block" for label in FAMILY_IDS), "rational-n16"],
    )
    def test_draws_match_reference_past_block_and_at_n16(self, profile, n, count, margin):
        want = interior_reference(n, profile, n, count, margin)
        assert same_bits(hg.sample_interior(profile, n, count, n, margin).z, want)

    @pytest.mark.parametrize("profile", PSEUDOCONVEX_FAMILIES, ids=FAMILY_IDS)
    def test_draws_match_reference_over_disk_rounds(self, monkeypatch, profile):
        # 600 points at n = 8 are 4800 slots: rounds of one disk attempt a
        # slot while more than BLOCK slots are left, then of DISK_BATCH
        # attempts a slot, give the reference's points bit for bit
        rounds = disk_rounds(monkeypatch)
        got = hg.sample_interior(profile, 8, 600, 8)
        assert same_bits(got.z, interior_reference(8, profile, 8, 600, 0.05))
        counts = [count for _, count in rounds]
        assert rounds[0] == (4800, 1) and counts[1] == 1 and DISK_BATCH in counts
        assert all(left <= BLOCK for left, count in rounds if count == DISK_BATCH)

    @pytest.mark.parametrize("profile", PSEUDOCONVEX_FAMILIES, ids=FAMILY_IDS)
    def test_built_once_per_sample(self, monkeypatch, profile):
        # the budget test runs until as many candidates passed it as points
        # are asked for, and only those are built and tested, in one call
        # each of `stacked_points` and `contains`
        built, tested = [], []
        real_points, real_contains = hartogs.metric.stacked_points, hartogs.metric.contains
        monkeypatch.setattr(hartogs.metric, "stacked_points",
                            lambda stream, rows, *args: built.append(len(rows))
                            or real_points(stream, rows, *args))
        monkeypatch.setattr(hartogs.metric, "contains",
                            lambda profile, z: tested.append(len(z)) or real_contains(profile, z))
        for n in range(2, 9):
            for count in (40, 80, 250):
                built.clear()
                tested.clear()
                assert len(hg.sample_interior(profile, n, count, seed=n, min_margin=0.05)) == count
                assert built == [count] and tested == [count]

    @pytest.mark.parametrize("profile", PSEUDOCONVEX_FAMILIES, ids=FAMILY_IDS)
    def test_prefix_across_rounds(self, monkeypatch, profile):
        # rounds of at most 7 candidates and rounds sized to the points
        # missing give the same sample, and the first K points of a sample
        # of N are the sample of K wherever the rounds fall
        whole = hg.sample_interior(profile, 3, 60, seed=4)
        monkeypatch.setattr(hartogs.metric, "ROUND", 7)
        assert same_bits(hg.sample_interior(profile, 3, 60, seed=4).z, whole.z)
        for k in (1, 6, 8, 59):
            assert same_bits(hg.sample_interior(profile, 3, k, seed=4).z, whole.z[:k])

    @pytest.mark.parametrize("n", [2, 3, 8])
    @pytest.mark.parametrize("profile", PSEUDOCONVEX_FAMILIES, ids=FAMILY_IDS)
    def test_unreached_draws_match_reference(self, monkeypatch, profile, n):
        # draws no seed reaches (`unreached_draws`): a slot that misses the
        # disk over two rounds, one next to the origin, and candidate 2 at
        # x = 0, whose z_0 keeps the sign of -0.0 through the record
        replace = unreached_draws(7, n, zero_x=4)
        doctor_draws(monkeypatch, replace)
        got = hg.sample_interior(profile, n, 20, 7)
        assert same_bits(got.z, interior_reference(7, profile, n, 20, 0.05, replace))
        (at,) = np.flatnonzero(got.x == 0.0)
        assert np.signbit(got.z[at, 0].real) and not np.signbit(got.z[at, 0].imag)

    @pytest.mark.parametrize("profile", [hg.PowerCap(2), hg.ExpDecay(1)], ids=str)
    def test_round_keeping_no_candidate(self, monkeypatch, profile):
        # the first budget round's 33 candidates all draw x at the top of
        # its range, where F(x) is below the margin: that round keeps no
        # candidate, later rounds keep the 20 candidates that are built,
        # in one call, and they give the reference's points
        uniform, _ = ReferenceStreams().streams(7)
        replace = {(uniform, 2 * i): MASK for i in range(33)}
        doctor_draws(monkeypatch, replace)
        drawn, built = [], []
        real_uniforms, real_points = hartogs.metric.uniforms, hartogs.metric.stacked_points

        def spied_uniforms(key, index):
            drawn.append((int(index[0]), int(index[-1]) + 1))
            return real_uniforms(key, index)

        def spied_points(stream, rows, *args):
            built.append(np.array(rows))
            return real_points(stream, rows, *args)

        monkeypatch.setattr(hartogs.metric, "uniforms", spied_uniforms)
        monkeypatch.setattr(hartogs.metric, "stacked_points", spied_points)
        got = hg.sample_interior(profile, 3, 20, 7)
        assert same_bits(got.z, interior_reference(7, profile, 3, 20, 0.05, replace))
        assert drawn[0] == (0, 66) and len(drawn) > 1
        assert len(built) == 1 and len(built[0]) == 20 and built[0].min() >= 33

    def test_disk_attempts_redraw_per_slot(self, monkeypatch):
        # slot 1 misses the disk in its first 8 attempts: it lands at a
        # later one, the reference's; no other slot moves, and neither the
        # attempts per round nor how many slots end the one-attempt rounds
        # (BLOCK, read by `_attempts`) changes a bit
        ref = ReferenceStreams()
        phase = ref.streams(3)[1]
        x, radius = np.full(4, 0.25), np.full(4, 0.5)
        clean = stacked_points(phase, np.arange(4), 3, x, radius)
        replace = {(ref.child(phase, t), 1): MASK if t % 2 else 0 for t in range(8)}
        doctor_draws(monkeypatch, replace)
        got = stacked_points(phase, np.arange(4), 3, x, radius)
        want = [ReferenceStreams(replace).point(phase, r, 3, 0.25, 0.5) for r in range(4)]
        assert same_bits(got, np.array(want))
        assert same_bits(got[1:], clean[1:]) and same_bits(got[0, [0, 2]], clean[0, [0, 2]])
        assert got[0, 1] != clean[0, 1]
        rounds = disk_rounds(monkeypatch)
        for block, batch in ((BLOCK, 1), (BLOCK, 2), (BLOCK, 7), (4, DISK_BATCH), (0, DISK_BATCH)):
            monkeypatch.setattr(hartogs.metric, "BLOCK", block)
            monkeypatch.setattr(hartogs.metric, "DISK_BATCH", batch)
            rounds.clear()
            assert same_bits(stacked_points(phase, np.arange(4), 3, x, radius), got)
            # one attempt a slot while more than `block` slots are left
            assert [count for _, count in rounds] == [1 if left > block else batch
                                                      for left, _ in rounds]
            assert sum(count for _, count in rounds) >= 9
            if block == 4:
                assert rounds[0] == (12, 1) and rounds[-1] == (1, DISK_BATCH)
            if block == 0:
                assert rounds[0] == (12, 1) and len(rounds) >= 9

    def test_count_past_attempt_cap(self, monkeypatch):
        # a round holds at most the attempts left, so a count far above the
        # cap allocates no more rows than the cap; the error says how many
        # points were found, and that many can be sampled
        sizes, empty = [], np.empty

        def recorded(shape, *args, **kwargs):
            sizes.append(int(np.prod(shape)))
            return empty(shape, *args, **kwargs)

        monkeypatch.setattr(hartogs.metric, "_MAX_SAMPLE_ATTEMPTS", 1000)
        monkeypatch.setattr(np, "empty", recorded)
        with pytest.raises(SamplingError) as error:
            hg.sample_interior(hg.PowerCap(2), 3, 10**12, seed=0)
        monkeypatch.setattr(np, "empty", empty)
        assert sizes and max(sizes) <= 4 * 1000
        found = int(re.fullmatch(
            r"only (\d+) of 1000000000000 interior points with margin >= 0.05 found in "
            r"1000 attempts for powercap:2", str(error.value)).group(1))
        assert 0 < found < 1000
        assert len(hg.sample_interior(hg.PowerCap(2), 3, found, seed=0)) == found
        with pytest.raises(SamplingError, match=rf"^only {found} of {found + 1} interior"):
            hg.sample_interior(hg.PowerCap(2), 3, found + 1, seed=0)

    def test_no_point_found_keeps_its_wording(self, monkeypatch):
        monkeypatch.setattr(hartogs.metric, "_MAX_SAMPLE_ATTEMPTS", 0)
        with pytest.raises(SamplingError, match=r"^no interior point with margin >= 0.05 found "
                                                r"in 0 attempts for affine:1,1$"):
            hg.sample_interior(hg.Affine(1, 1), 2, 5, seed=1)

    def test_later_round_keeping_nothing(self, monkeypatch):
        # the first round's record loses a point, as to its margin check, so
        # later rounds follow; where the attempts run out, some in rounds
        # that keep no candidate, the error counts the points found.  On
        # expdecay:1.5, about 80% of candidates fail the budget test.
        contains, kept = hartogs.metric.contains, []

        def losing_one(profile, z):
            p = contains(profile, z)
            p = p if kept else p[:-1]
            kept.append(len(p))
            return p

        monkeypatch.setattr(hartogs.metric, "contains", losing_one)
        outcomes = set()
        for cap in range(3, 60):
            monkeypatch.setattr(hartogs.metric, "_MAX_SAMPLE_ATTEMPTS", cap)
            kept.clear()
            try:
                outcomes.add(len(hg.sample_interior(hg.ExpDecay(1.5), 2, 3, seed=0)))
            except SamplingError as error:
                found = sum(kept)
                which = f"only {found} of 3 interior points" if found else "no interior point"
                assert str(error) == (f"{which} with margin >= 0.05 found in {cap} "
                                      "attempts for expdecay:1.5")
                outcomes.add(f"found {found}")
        assert {3, "found 1", "found 2"} <= outcomes

    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_fiber_uniform_in_ball(self, n):
        # for a uniform fiber vector in the ball of radius sqrt(F(x) - m),
        # (|fiber|^2 / (F(x) - m))^(n-1) is uniform on [0, 1]
        prof, m, count = hg.PowerCap(2), 0.05, 2000
        u = [
            ((p.z[1:] @ p.z[1:].conj()).real / (prof.eval(p.x) - m)) ** (n - 1)
            for p in hg.sample_interior(prof, n, count, 17, m)
        ]
        assert abs(float(np.mean(u)) - 0.5) <= 4.0 / math.sqrt(12.0 * count)


def test_draws_are_splitmix64():
    # the stream keyed 0 is SplitMix64 seeded with 0: its published first
    # outputs
    assert [int(v) for v in _draws(0, np.arange(3))] == [
        0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]


class TestSeeds:
    def test_every_limb_reaches_the_streams(self):
        # seeds of any size: each 64-bit limb is folded into the keys
        streams = [sample_streams(seed) for seed in (0, 1, 2**64, 2**64 + 1, 2**128, 2**200)]
        assert len(set(streams)) == len(streams)
        assert streams == [ReferenceStreams().streams(s) for s in (0, 1, 2**64, 2**64 + 1, 2**128, 2**200)]

    def test_first_draws_pinned(self):
        # the first two draws of the uniform stream of seeds 0 and 2^64
        got = {seed: [int(v) for v in _draws(sample_streams(seed)[0], np.arange(2))]
               for seed in (0, 2**64)}
        assert got == {0: [0xB18A02F46D8D86C3, 0xF8C5B62C83F707E8],
                       2**64: [0xE547C89CE79C0E99, 0x9F3F9309158F73D0]}


def _phase_moments(z):
    """|mean(z^2 / |z|^2)| of each column of z."""
    return np.abs(np.mean(z * z / (z * z.conj()).real, axis=0))


@pytest.mark.parametrize("n", [2, 3, 8])
@pytest.mark.parametrize("where", ["boundary", "interior"])
def test_direction_law(n, where):
    # the fiber direction is uniform on the sphere of C^(n-1): each
    # |w_j|^2 / |w|^2, a Beta(1, n-2) variable, has mean 1/(n-1); every
    # coordinate has a uniform phase, so mean(z_j^2 / |z_j|^2) is about 0;
    # and boundary x is uniform below x_top.  All within 4 sigma.
    count, prof = 4000, hg.PowerCap(2)
    if where == "boundary":
        p = sample_boundary(prof, n, count, seed=61)
        top = interior_x_max(prof)
        assert abs(np.mean(p.x / top) - 0.5) <= 4.0 * math.sqrt(1.0 / (12.0 * count))
    else:
        p = hg.sample_interior(prof, n, count, seed=62)
    w = p.z[:, 1:]
    share = (w * w.conj()).real / (w * w.conj()).real.sum(axis=1, keepdims=True)
    m = n - 1
    sigma = math.sqrt((m - 1) / (m * m * (m + 1)) / count)
    assert np.all(np.abs(share.mean(axis=0) - 1.0 / m) <= 4.0 * sigma + 1e-12)
    assert np.all(_phase_moments(p.z) <= 4.0 / math.sqrt(count))


def test_potential_nan_outside():
    prof = hg.Affine(1, 1)
    assert math.isnan(hg.kahler_potential(prof, np.array([0, 1.5], complex)))
    assert math.isnan(hg.kahler_potential(prof, np.array([1.2, 0], complex)))
    assert hg.kahler_potential(prof, np.zeros(2, complex)) == 0.0


def test_records_are_immutable_and_replace_one_field():
    # a point record, single and stacked, the metric, the curvature data
    # and a verify check: no field can be assigned or deleted, nor another
    # attribute added, and `_replace` changes the named field alone, every
    # other field being the very object it was, so bit for bit the same
    prof = hg.PowerCap(2)
    p = hg.sample_interior(prof, 3, 4, seed=7)
    m = hg.assemble_metric(prof, p)
    records = (p, p[1], m, hg.curvature_at(prof, p, m), hartogs.cli.ORACLE_CHECKS[0])
    for record in records:
        for name in (*record._fields, "other"):
            with pytest.raises(AttributeError):
                setattr(record, name, None)
            with pytest.raises(AttributeError):
                delattr(record, name)
        for name in record._fields:
            marker = object()
            changed = record._replace(**{name: marker})
            assert type(changed) is type(record) and changed is not record
            for other in record._fields:
                want = marker if other == name else getattr(record, other)
                assert getattr(changed, other) is want, (type(record).__name__, name, other)
    assert p._fields == ("z", "x", "gap", "margin", "f", "d1", "d2", "det_core")
