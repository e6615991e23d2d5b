"""Brownian kernels, Haar sampling and character expansions on compact
matrix groups (SU(2), SO(3), SO(n)).

The package decides positive definiteness of the Brownian kernel
K(x,y) = (d(x,x0) + d(y,x0) - d(x,y))/2 for the bi-invariant geodesic
distance, computes the character-expansion coefficients of d(., e) three
independent ways, produces counterexample certificates on SO(n), and
simulates the pinned Gaussian field on SU(2) where the kernel is
positive definite.
"""

__version__ = "0.1.0"

from .field_sim import (
    FieldSample,
    KernelNotPSDError,
    build_field,
    empirical_variogram,
    sample_field,
)
from .group_core import (
    SO3,
    SU2,
    SOnElement,
    SU2Element,
    ad_morphism,
    dist_son,
    dist_su2,
    embed_so3,
    exp_so3,
    group_named,
    haar_son,
    haar_su2,
    pairwise_distance_matrix,
    rotation_angle_so3,
)
from .harmonic import (
    CoefficientTable,
    GroupTag,
    alpha_closed,
    alpha_monte_carlo,
    alpha_quadrature,
    angle_density,
    chi,
    dim_irrep,
    partial_sum,
    trace_density_so3,
)
from .kernel_lab import (
    GramAudit,
    WitnessCertificate,
    WitnessNotFoundError,
    find_witness,
    gram_audit,
    lemma_equivalence_check,
    transfer_witness,
)
from .quadrature import QuadratureError, simpson_adaptive
from .rng import RngStream

__all__ = [
    "CoefficientTable",
    "FieldSample",
    "GramAudit",
    "GroupTag",
    "KernelNotPSDError",
    "QuadratureError",
    "RngStream",
    "SO3",
    "SOnElement",
    "SU2",
    "SU2Element",
    "WitnessCertificate",
    "WitnessNotFoundError",
    "ad_morphism",
    "alpha_closed",
    "alpha_monte_carlo",
    "alpha_quadrature",
    "angle_density",
    "build_field",
    "chi",
    "dim_irrep",
    "dist_son",
    "dist_su2",
    "embed_so3",
    "empirical_variogram",
    "exp_so3",
    "find_witness",
    "gram_audit",
    "group_named",
    "haar_son",
    "haar_su2",
    "lemma_equivalence_check",
    "pairwise_distance_matrix",
    "partial_sum",
    "rotation_angle_so3",
    "sample_field",
    "simpson_adaptive",
    "trace_density_so3",
    "transfer_witness",
]
