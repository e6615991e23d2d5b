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
    dist_son,
    embed_so3,
    group_named,
    pairwise_distance_matrix,
)
from .harmonic import (
    alpha_closed,
    alpha_monte_carlo,
    alpha_quadrature,
    coefficients,
    dim_irrep,
)
from .kernel_lab import (
    GramAudit,
    WitnessCertificate,
    WitnessNotFoundError,
    find_witness,
    gram_audit,
    transfer_witness,
)
from .quadrature import QuadratureError, simpson_adaptive
from .rng import RngStream

__all__ = [
    "FieldSample",
    "GramAudit",
    "KernelNotPSDError",
    "QuadratureError",
    "RngStream",
    "SO3",
    "SU2",
    "WitnessCertificate",
    "WitnessNotFoundError",
    "alpha_closed",
    "alpha_monte_carlo",
    "alpha_quadrature",
    "build_field",
    "coefficients",
    "dim_irrep",
    "dist_son",
    "embed_so3",
    "empirical_variogram",
    "find_witness",
    "gram_audit",
    "group_named",
    "pairwise_distance_matrix",
    "sample_field",
    "simpson_adaptive",
    "transfer_witness",
]
