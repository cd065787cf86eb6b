"""Exact-arithmetic toolkit for quiver schemes.

Everything is computed over the Gaussian rationals: truncated-polynomial
module maps, per-vertex moment values, Weyl reflections on parameters and
dimension vectors, orbit factorizations through chains, and the leg
regularization rewrite.  All identities verified by the test and check
suites hold exactly; there are no tolerances anywhere.
"""

from .errors import QschemeError
from .linalg import Matrix
from .orbit import (
    OrbitSpec,
    big_theta,
    canonical_leg_point,
    free_basis,
    leg_factorize,
    leg_mesh_residuals,
    leg_rank_checks,
    nu,
    orbit_dimension,
    orbit_membership,
)
from .quiver import (
    CartanData,
    QuiverMult,
    bilinear,
    expected_dim,
    parse_quiver,
    serialize_quiver,
    to_dot,
)
from .reflect import (
    SplitAtVertex,
    phi,
    random_level_point,
    reflection_functor,
    split,
    unsplit,
)
from .regularize import (
    LegDescriptor,
    PhiMap,
    check_theorem_hypotheses,
    find_legs,
    phi_map,
    regularize_params,
    regularize_quiver,
    verify_param_equivariance,
    verify_semidirect,
)
from .repn import (
    Representation,
    gauge,
    level_check,
    mesh_check,
    moment_map,
    random_rep,
    symplectic_form,
)
from .rmatrix import (
    ModShape,
    RMap,
    compose,
    extend_scalars,
    extend_scalars_rev,
    pair_d,
    pr_cd,
    trace_r,
)
from .scalars import (
    GaussQ,
    TruncScalar,
    trunc_inv,
    trunc_mul,
)
from .suites import run_suite
from .weyl import (
    LiftedCartan,
    lift_cartan,
    reflect_dim,
    reflect_param,
    rho,
    verify_coxeter,
)

__version__ = "0.1.0"
