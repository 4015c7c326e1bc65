"""Per-layer microseconds per call at n = 2, 4 and 8 on `powercap:2`.

Interior points come from the benchmark's own seeded sampler, which draws
the fiber vector uniformly in the ball and validates every point through
`hartogs.contains`.  The package sampler accepts with probability about
1/(n-1)! and gives up at n = 8, so it could not supply points there; it is
still timed itself, one point per call.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

import hartogs
from hartogs.curvature import ricci_tensor
from hartogs.metric import metric_fd_oracle
from hartogs.profiles import interior_x_max

PROFILE = "powercap:2"
DIMENSIONS = (2, 4, 8)
POINTS = 12
REPEATS = 3
MIN_MARGIN = 0.05

#: layer name -> call on one prepared point (p, metric, Ricci, boundary point)
CALLS = {
    "metric.assemble_metric": lambda f, q: hartogs.assemble_metric(f, q.p),
    "curvature.curvature_at": lambda f, q: hartogs.curvature_at(f, q.p, q.m),
    "canonical.einstein_residual": lambda f, q: hartogs.einstein_residual(f, q.p),
    "canonical.extremal_residual": lambda f, q: hartogs.extremal_residual(f, q.p),
    "metric.metric_fd_oracle": lambda f, q: metric_fd_oracle(f, q.p),
    "curvature.ricci_fd_oracle": lambda f, q: hartogs.ricci_fd_oracle(f, q.p),
    "curvature.rho_oracle": lambda f, q: hartogs.rho_oracle(q.m, q.ric),
    "boundary.restricted_levi_min_eigenvalue":
        lambda f, q: hartogs.restricted_levi_min_eigenvalue(f, q.b),
}

SAMPLER = "metric.sample_interior"


class Prepared:
    def __init__(self, profile, p, b):
        self.p = p
        self.m = hartogs.assemble_metric(profile, p)
        self.ric = ricci_tensor(profile, p, self.m)
        self.b = b


def ball_points(profile, n: int, count: int, seed: int, min_margin: float = MIN_MARGIN):
    """Interior points with margin >= min_margin: |z_0|^2 uniform, fiber
    vector uniform in the ball of radius sqrt(F(|z_0|^2) - min_margin)."""
    rng = np.random.default_rng(seed)
    x_top = interior_x_max(profile)
    if not math.isinf(profile.x0):
        x_top = min(x_top, profile.x0 - min_margin)
    dim = 2 * (n - 1)
    points = []
    while len(points) < count:
        x = rng.uniform(0.0, x_top)
        budget = profile.eval(x) - min_margin
        if budget <= 0.0:
            continue
        direction = rng.normal(size=dim)
        radius = math.sqrt(budget) * rng.uniform() ** (1.0 / dim)
        fiber = radius * direction / np.linalg.norm(direction)
        z = np.empty(n, dtype=complex)
        z[0] = math.sqrt(x) * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
        z[1:] = fiber[0::2] + 1j * fiber[1::2]
        p = hartogs.contains(profile, z)
        if p is not None and p.margin >= min_margin:
            points.append(p)
    return points


def _per_call_us(fn, items) -> float:
    """Median over repeats of the mean time per call, in microseconds."""
    runs = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        for item in items:
            fn(item)
        runs.append((time.perf_counter() - start) / len(items))
    return statistics.median(runs) * 1e6


def measure(seed: int) -> dict[str, float]:
    """`<layer>.us_per_call.n<n>` for every layer and dimension."""
    profile = hartogs.parse_profile(PROFILE)
    out = {}
    for n in DIMENSIONS:
        interior = ball_points(profile, n, POINTS, seed + n)
        boundary = hartogs.sample_boundary(profile, n, POINTS, seed + n)
        prepared = [Prepared(profile, p, b) for p, b in zip(interior, boundary)]
        for name, call in CALLS.items():
            out[f"{name}.us_per_call.n{n}"] = _per_call_us(lambda q: call(profile, q), prepared)
        out[f"{SAMPLER}.us_per_call.n{n}"] = _sampler_us(profile, n, seed)
    return out


def _sampler_us(profile, n: int, seed: int) -> float:
    """Median over five seeds of one `sample_interior` call for one point;
    the number of rejected draws, hence the time, varies with the seed."""
    runs = []
    for k in range(5):
        start = time.perf_counter()
        hartogs.sample_interior(profile, n, 1, seed * 101 + n * 7 + k, MIN_MARGIN)
        runs.append(time.perf_counter() - start)
    return statistics.median(runs) * 1e6
