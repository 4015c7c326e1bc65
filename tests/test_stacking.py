"""Stacked point records: the closed forms take one record or a stack of
them, and a point's values have the same bits either way."""

import numpy as np
import pytest

import hartogs as hg
from hartogs.canonical import HoloVectorField
from hartogs.metric import BLOCK, blocks, metric_gradients, stack

from conftest import FAMILY_IDS, PSEUDOCONVEX_FAMILIES


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return (a.dtype, a.shape) == (b.dtype, b.shape) and \
        np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()


def closed_forms(profile, p) -> dict:
    m = hg.assemble_metric(profile, p)
    data = hg.curvature_at(profile, p, m)
    return {
        "h": m.h, "h_inv": m.h_inv, "det": m.det, "scal": data.scal, "rho": data.rho,
        "einstein": data.einstein, "t_zbar": data.t_zbar, "extremal": data.extremal,
        "dg": metric_gradients(profile, p)[0],
        "soliton": hg.soliton_residual(profile, p, -(p.n + 1.0), HoloVectorField.rotation(p.n)),
    }


@pytest.mark.parametrize("profile", PSEUDOCONVEX_FAMILIES, ids=FAMILY_IDS)
@pytest.mark.parametrize("n", [2, 3, 8])
def test_point_bits_alone_and_in_stacks(profile, n, points_for):
    points = points_for(profile, n, count=12, min_margin=0.01)
    forward = closed_forms(profile, stack(points))
    backward = closed_forms(profile, stack(points[::-1]))
    for i, p in enumerate(points):
        for name, alone in closed_forms(profile, p).items():
            assert same_bits(alone, forward[name][i]), (name, i)
            assert same_bits(alone, backward[name][-1 - i]), (name, i)


def test_stack_and_blocks():
    points = hg.sample_interior(hg.PowerCap(2), 3, BLOCK + 2, seed=4)
    runs = blocks(points)
    assert [len(run) for run in runs] == [BLOCK, 2]
    assert [p for run in runs for p in run] == points
    s = stack(runs[1])
    assert (s.n, s.z.shape, s.x.shape, s.det_core.shape) == (3, (2, 3), (2,), (2,))
    assert same_bits(s.z[1], points[-1].z) and s.gap[1] == points[-1].gap


def test_pullback_and_rho_oracle_stack():
    prof = hg.Affine(2, 3)
    points = hg.sample_interior(prof, 3, 6, seed=5)
    s = stack(points)
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
        hg.assemble_metric(prof, stack([p, p]))
