"""Stacked point records: the closed forms take one record or a stack of
them, and a point's values have the same bits either way."""

import dataclasses

import numpy as np
import pytest

import hartogs as hg
import hartogs.cli
import hartogs.curvature
import hartogs.metric
from hartogs.boundary import boundary_point
from hartogs.canonical import HoloVectorField
from hartogs.errors import DomainError
from hartogs.metric import (
    BLOCK, DomainPoint, blocks, metric_derivative_along, point_record,
)

from conftest import FAMILY_IDS, PSEUDOCONVEX_FAMILIES, metric_gradients, same_bits


def closed_forms(profile, p) -> dict:
    m = hg.assemble_metric(profile, p)
    data = hg.curvature_at(profile, p, m)
    return {
        "h": m.h, "h_inv": m.h_inv, "det": m.det, "scal": data.scal, "rho": data.rho,
        "einstein": data.einstein, "dbar": data.dbar, "extremal": data.extremal,
        "dg": metric_gradients(profile, p)[0],
        "along": np.moveaxis(metric_derivative_along(profile, p, np.stack([p.z, 1j * p.z])), 0, -3),
        "soliton": hg.soliton_residual(profile, p, -(p.n + 1.0), HoloVectorField.rotation(p.n)),
    }


@pytest.mark.parametrize("profile", PSEUDOCONVEX_FAMILIES, ids=FAMILY_IDS)
@pytest.mark.parametrize("n", [2, 3, 8])
def test_point_bits_alone_and_in_stacks(profile, n, points_for):
    points = points_for(profile, n, count=12, min_margin=0.01)
    forward = closed_forms(profile, points)
    backward = closed_forms(profile, points[::-1])
    for i, p in enumerate(points):
        for name, alone in closed_forms(profile, p).items():
            assert same_bits(alone, forward[name][i]), (name, i)
            assert same_bits(alone, backward[name][-1 - i]), (name, i)


FIELDS = [f.name for f in dataclasses.fields(DomainPoint)]


def test_stack_and_blocks():
    points = hg.sample_interior(hg.PowerCap(2), 3, BLOCK + 2, seed=4)
    runs = blocks(points)
    assert [len(run) for run in runs] == [BLOCK, 2]
    for name in FIELDS:
        assert same_bits(np.concatenate([getattr(run, name) for run in runs]),
                         getattr(points, name))
    s = runs[1]
    assert (s.n, s.z.shape, s.x.shape, s.det_core.shape) == (3, (2, 3), (2,), (2,))
    assert same_bits(s.z[1], points[-1].z) and s.gap[1] == points[-1].gap


@pytest.mark.parametrize(
    "profile", [*PSEUDOCONVEX_FAMILIES, hg.PowerCap(800)], ids=[*FAMILY_IDS, "powercap:800"]
)
@pytest.mark.parametrize("n", [2, 3, 8])
def test_stacked_records_match_single_ones(profile, n):
    # row i of a stacked record, interior or boundary, has the bits of the
    # record of z[i] alone; the boundary points of powercap:800 lie where
    # its F underflows to 0 beyond x of about 0.6
    z = np.concatenate([hg.sample_interior(profile, n, 20, 3, 0.01).z,
                        hg.sample_boundary(profile, n, 20, 3).z])
    assert any(point_record(profile, w).f == 0.0 for w in z) == (profile == hg.PowerCap(800))
    for on_boundary in (False, True):
        stacked = point_record(profile, z, on_boundary)
        for i, w in enumerate(z):
            alone = point_record(profile, w, on_boundary)
            for name in FIELDS:
                assert same_bits(getattr(alone, name), getattr(stacked, name)[i]), (name, i)


def test_stacked_errors_name_the_first_point():
    # a DomainError on a stack has the message of the single call at its
    # first offending point
    prof = hg.PowerCap(2)
    z = np.array([[0.1, 0.2], [1.1, 0.0], [1.3, 0.0]], dtype=complex)
    with pytest.raises(DomainError) as stacked:
        point_record(prof, z)
    with pytest.raises(DomainError) as alone:
        point_record(prof, z[1])
    assert str(stacked.value) == str(alone.value)
    assert str(alone.value) == "x=1.2100000000000002 outside [0, 1.0) for powercap:2"
    on_graph = hg.sample_boundary(prof, 2, 3, seed=1).z
    off = on_graph.copy()
    off[1:, 1] *= [1.001, 1.01]
    with pytest.raises(DomainError) as stacked:
        boundary_point(prof, off)
    with pytest.raises(DomainError) as alone:
        boundary_point(prof, off[1])
    assert str(stacked.value) == str(alone.value)
    # membership keeps the points inside, in order
    inside = hg.contains(prof, np.array([[0.1, 0.2], [0.1, 2.0], [0.3, 0.1j]]))
    assert same_bits(inside.z, np.array([[0.1, 0.2], [0.3, 0.1j]]))


def test_pullback_and_rho_oracle_stack():
    prof = hg.Affine(2, 3)
    points = hg.sample_interior(prof, 3, 6, seed=5)
    s = points
    m = hg.assemble_metric(prof, s)
    ric = hg.ricci_tensor(prof, s, m)
    rho = hg.rho_oracle(m, ric)
    pullback = hg.pullback_check(2, 3, s)
    for i, p in enumerate(points):
        single = hg.assemble_metric(prof, p)
        assert same_bits(hg.rho_oracle(single, hg.ricci_tensor(prof, p, single)), rho[i])
        assert same_bits(hg.pullback_check(2, 3, p), pullback[i])


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_kernel_faults_raise():
    # gap^2 overflows: one FloatingPointError, an ArithmeticError, and no
    # RuntimeWarning per array operation
    prof = hg.Affine(1e308, 1e-308)
    p = hg.contains(prof, [0.5, 1e150])
    with pytest.raises(FloatingPointError):
        hg.assemble_metric(prof, p)
    with pytest.raises(FloatingPointError):
        hg.assemble_metric(prof, point_record(prof, [p.z, p.z]))


ORACLES = {
    "metric": hartogs.metric.metric_fd_oracle,
    "ricci": hartogs.curvature.ricci_fd_oracle,
    "extremal": hartogs.curvature.extremal_jet_oracle,
}

ORACLE_PROFILES = [hg.Affine(1, 1), hg.PowerCap(2), hg.PowerCap(0.5), hg.ExpDecay(1), hg.Rational()]


def oracles_match_single_records(profile, points) -> None:
    for name, oracle in ORACLES.items():
        stacked = oracle(profile, points)
        assert same_bits(stacked, np.array([oracle(profile, p) for p in points])), name


@pytest.mark.parametrize("profile", ORACLE_PROFILES, ids=lambda f: f.label())
@pytest.mark.parametrize("n", range(2, 9))
@pytest.mark.parametrize("margin", [0.05, 1e-3])
def test_oracles_stacked_match_single_records(profile, n, margin):
    # an oracle on a stacked record gives, bit for bit, its results on the
    # single records stacked
    oracles_match_single_records(profile, hg.sample_interior(profile, n, 6, 7, margin))


def test_oracles_over_two_blocks():
    prof = hg.PowerCap(2)
    runs = blocks(hg.sample_interior(prof, 8, BLOCK + 3, 11, 1e-3))
    assert [len(run) for run in runs] == [BLOCK, 3]
    for run in runs:
        oracles_match_single_records(prof, run)


def test_extremal_oracle_above_n8(monkeypatch):
    # above n = 8 the oracle is still one jet over the whole stack, with no
    # inverse metric and no displaced points to check for interiority, and
    # each point keeps the bits of its single record
    calls = []
    scales = hartogs.curvature._radial_scales

    def counted(profile, x, *rest):
        calls.append(len(x.val))
        return scales(profile, x, *rest)

    def forbidden(*args):
        raise AssertionError("the extremal oracle assembled an inverse or checked points")

    monkeypatch.setattr(hartogs.curvature, "_radial_scales", counted)
    monkeypatch.setattr(hartogs.metric, "inverse_metric_matrix", forbidden)
    monkeypatch.setattr(hartogs.metric, "require_interior", forbidden)
    assert not hasattr(hartogs.curvature, "inverse_metric_matrix")
    assert not hasattr(hartogs.curvature, "require_interior")
    prof = hg.PowerCap(2)
    oracle = ORACLES["extremal"]
    for n, count in ((16, 40), (32, 6)):
        points = hg.sample_interior(prof, n, count, 3, 1e-3)
        calls.clear()
        stacked = oracle(prof, points)
        assert calls == [count]
        assert same_bits(stacked, np.array([oracle(prof, p) for p in points]))


@pytest.mark.parametrize("n, samples, calls", [(3, 80, 1), (8, 300, 2)])
def test_verification_calls_each_oracle_once_per_block(monkeypatch, n, samples, calls):
    counts = dict.fromkeys(ORACLES, 0)
    for name, module in (("metric", hartogs.metric), ("ricci", hartogs.curvature),
                         ("extremal", hartogs.curvature)):
        oracle = ORACLES[name]

        def counted(profile, p, _name=name, _oracle=oracle):
            counts[_name] += 1
            return _oracle(profile, p)

        monkeypatch.setattr(module, oracle.__name__, counted)
    results = hartogs.cli.run_verification(hg.PowerCap(2), n, samples, seed=0)
    assert all(r.passed for r in results)
    assert counts == dict.fromkeys(ORACLES, calls)
