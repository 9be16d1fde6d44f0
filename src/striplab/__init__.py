"""Thin elastic strips, their rod limit, and the supporting truncation step.

The package solves the clamped planar strip problem at finite thickness h,
solves the limit bending problem for the midline angle, and measures every
identity connecting the two: per-slab rotations, scaled strain and stress
moments, rigidity ratios, and the Lipschitz truncation used to justify the
passage to the limit.
"""

from .algebra import dist_so2, polar_angle, rot2, svd2_vals
from .diagnostics import (
    ConvergenceTable,
    Diagnosis,
    IdentityRow,
    RotationProfile,
    convergence_study,
    diagnose,
    slab_rotations,
)
from .elastica import (
    ElasticaSolution,
    J2_eval,
    gtilde,
    linear_cantilever_theta,
    minimize_J2,
    solve_elastica,
)
from .energy import (
    EnergyDensity,
    HalfDistSquared,
    IsotropicQuadratic,
    Linearization,
    linearize,
    make_density,
    modulus_closed_form,
)
from .errors import (
    ConfigError,
    DiagnosticError,
    DomainError,
    NonConvergence,
    StepRejected,
    TruncationFailure,
)
from .loads import LoadProfile
from .mesh import DeformationField, StripMesh, build_mesh, mesh_rule_nx, rigid_state
from .solver import SolverConfig, SolverReport, scaled_energy, solve_stationary, warm_start
from .truncation import (
    GridFunction,
    TruncationResult,
    dirichlet_energy,
    gradient_magnitude,
    grad_sup,
    maximal_function,
    reflect_to_square,
    rough_field,
    sample_on_strip,
    select_lambda,
    thin_truncate,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
