"""Numerical verification of the Kahler geometry of profile (Hartogs) domains.

Closed-form metric, curvature, boundary Levi analysis and canonical-metric
residuals, each cross-checked against independent oracles: exact jets
and dense linear algebra.  The central differences of `ComplexStencil`
are only a reference for the tests.
"""

from .boundary import (
    boundary_point,
    defining_residual,
    levi_compression_oracle,
    restricted_levi_min_eigenvalue,
    sample_boundary,
    tangent_space_basis,
)
from .canonical import (
    HoloVectorField,
    einstein_residual,
    extremal_residual,
    hyperbolic_isometry,
    lie_derivative_components,
    pullback_check,
    soliton_residual,
    soliton_sweep,
)
from .curvature import (
    CurvatureData,
    curvature_at,
    curvature_defect,
    extremal_jet_oracle,
    ricci_fd_oracle,
    ricci_tensor,
    rho_oracle,
)
from .errors import (
    DomainError,
    HartogsError,
    NumericError,
    SamplingError,
    SingularityError,
)
from .metric import (
    DomainPoint,
    MetricData,
    assemble_metric,
    contains,
    kahler_potential,
    sample_interior,
)
from .profiles import (
    Affine,
    ConstantProbe,
    ExpDecay,
    PowerCap,
    Profile,
    Rational,
    interior_grid,
    is_strongly_pseudoconvex,
    parse_profile,
    pseudoconvexity_margin,
)
from .wirtinger import ComplexStencil

__version__ = "0.1.0"

__all__ = [
    "Affine",
    "ComplexStencil",
    "ConstantProbe",
    "CurvatureData",
    "DomainError",
    "DomainPoint",
    "ExpDecay",
    "HartogsError",
    "HoloVectorField",
    "MetricData",
    "NumericError",
    "PowerCap",
    "Profile",
    "Rational",
    "SamplingError",
    "SingularityError",
    "assemble_metric",
    "boundary_point",
    "contains",
    "curvature_at",
    "curvature_defect",
    "defining_residual",
    "einstein_residual",
    "extremal_jet_oracle",
    "extremal_residual",
    "hyperbolic_isometry",
    "interior_grid",
    "is_strongly_pseudoconvex",
    "kahler_potential",
    "levi_compression_oracle",
    "lie_derivative_components",
    "parse_profile",
    "pseudoconvexity_margin",
    "pullback_check",
    "restricted_levi_min_eigenvalue",
    "rho_oracle",
    "ricci_fd_oracle",
    "ricci_tensor",
    "sample_boundary",
    "sample_interior",
    "soliton_residual",
    "soliton_sweep",
    "tangent_space_basis",
]
