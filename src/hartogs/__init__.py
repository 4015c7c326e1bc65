"""Numerical verification of the Kahler geometry of profile (Hartogs) domains.

Closed-form metric, curvature, boundary Levi analysis and canonical-metric
residuals, each cross-checked against independent oracles: exact jets
and dense linear algebra.  The central differences of `ComplexStencil`
are only a reference for the tests.

Only the names read as `hartogs.<name>` are imported here, each once;
everything else is imported from its module.
"""

from .boundary import restricted_levi_min_eigenvalue, sample_boundary, tangent_space_basis
from .canonical import (
    einstein_residual, extremal_residual, hyperbolic_isometry, lie_derivative_components,
    pullback_check, soliton_residual, soliton_sweep,
)
from .curvature import curvature_at, curvature_defect, ricci_fd_oracle, ricci_tensor, rho_oracle
from .metric import DomainPoint, assemble_metric, contains, kahler_potential, sample_interior
from .profiles import (
    Affine, ConstantProbe, ExpDecay, PowerCap, Profile, Rational, is_strongly_pseudoconvex,
    parse_profile, pseudoconvexity_margin,
)

# loaded for perfbench/tracer.py, which looks `hartogs.wirtinger` up in
# sys.modules; nothing in the package calls it
from . import wirtinger  # noqa: F401
