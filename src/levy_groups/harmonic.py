"""Characters, Haar densities and the character-expansion coefficients of
the distance-to-identity function on SU(2) and SO(3).

The distance to the identity is a class function, so it expands as
d(., e) = sum_l alpha_l * chi_l.  The coefficients are computed three
independent ways:

* ``alpha_closed``      -- closed forms obtained by integrating the
                           character against the angle density,
* ``alpha_quadrature``  -- adaptive Simpson on the same integral,
* ``alpha_monte_carlo`` -- the double Haar integral
                           d_l * E[ d(gh^{-1}, e) chi_l(g) chi_l(h) ].

The sign of the nontrivial coefficients decides whether the Brownian
kernel built from d is positive definite: on SU(2) all of them are <= 0,
on SO(3) the even-l ones are strictly positive.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .group_core import haar_su2_batch
from .quadrature import simpson_adaptive
from .rng import RngStream

# below this, sin(t) is treated as singular and the character limit is used
_SIN_TOL = 1e-8
# Haar pairs drawn per batch in alpha_monte_carlo (bounds its scratch memory)
_MC_CHUNK = 1 << 17


class GroupTag(enum.Enum):
    SU2 = "su2"
    SO3 = "so3"


def dim_irrep(group: GroupTag, l: int) -> int:
    """Dimension of the l-th irreducible representation."""
    if l < 0:
        raise ValueError("l must be >= 0")
    return l + 1 if group is GroupTag.SU2 else 2 * l + 1


def chi(group: GroupTag, l: int, t):
    """Character of the l-th irreducible representation at angle t.

    SU(2): sin((l+1)t)/sin(t) with the limit branches l+1 at t=0 and
    (-1)^l (l+1) at t=pi.  SO(3) = SU(2)/{+-e}: its l-th character is the
    SU(2) character of index 2l at half the angle, sin((2l+1)t/2)/sin(t/2).

    Accepts scalars or arrays; returns the same shape.
    """
    if l < 0:
        raise ValueError("l must be >= 0")
    t_arr = np.asarray(t, dtype=float)
    if group is GroupTag.SO3:
        l, t_arr = 2 * l, 0.5 * t_arr
    s = np.sin(t_arr)
    singular = np.abs(s) < _SIN_TOL
    safe = np.where(singular, 1.0, s)
    ratio = np.sin((l + 1) * t_arr) / safe
    limit = np.where(np.cos(t_arr) > 0.0, float(l + 1), (-1.0) ** l * (l + 1))
    out = np.where(singular, limit, ratio)
    return float(out) if np.isscalar(t) or t_arr.ndim == 0 else out


def angle_density(group: GroupTag, t):
    """Haar density of the distance-to-identity angle on [0, pi].

    SO(3): (1 - cos t)/pi.  SU(2): (2/pi) sin^2(t).  Zero outside [0, pi].
    """
    t_arr = np.asarray(t, dtype=float)
    inside = (t_arr >= 0.0) & (t_arr <= math.pi)
    if group is GroupTag.SO3:
        vals = (1.0 - np.cos(t_arr)) / math.pi
    else:
        vals = (2.0 / math.pi) * np.sin(t_arr) ** 2
    out = np.where(inside, vals, 0.0)
    return float(out) if np.isscalar(t) or t_arr.ndim == 0 else out


def trace_density_so3(y):
    """Haar density of the trace of an SO(3) rotation on [-1, 3].

    (1/2pi) (3-y)^{1/2} (y+1)^{-1/2}; the y = -1 endpoint is an
    integrable singularity and evaluates to inf.
    """
    y_arr = np.asarray(y, dtype=float)
    inside = (y_arr >= -1.0) & (y_arr <= 3.0)
    num = np.sqrt(np.clip(3.0 - y_arr, 0.0, None))
    den = np.sqrt(np.clip(y_arr + 1.0, 0.0, None))
    with np.errstate(divide="ignore"):
        vals = num / den / (2.0 * math.pi)
    out = np.where(inside, vals, 0.0)
    return float(out) if np.isscalar(y) or y_arr.ndim == 0 else out


def angle_cdf(group: GroupTag, t):
    """Distribution function of the angle law, for goodness-of-fit tests."""
    t_arr = np.clip(np.asarray(t, dtype=float), 0.0, math.pi)
    if group is GroupTag.SO3:
        out = (t_arr - np.sin(t_arr)) / math.pi
    else:
        out = (t_arr - np.sin(t_arr) * np.cos(t_arr)) / math.pi
    return float(out) if np.isscalar(t) or t_arr.ndim == 0 else out


def trace_cdf_so3(y):
    """Distribution function of the SO(3) trace law on [-1, 3]."""
    y_arr = np.clip(np.asarray(y, dtype=float), -1.0, 3.0)
    w = np.arccos(np.clip((y_arr - 1.0) / 2.0, -1.0, 1.0))
    out = 1.0 - (w - np.sin(w)) / math.pi
    return float(out) if np.isscalar(y) or y_arr.ndim == 0 else out


# ---------------------------------------------------------------------------
# Expansion coefficients
# ---------------------------------------------------------------------------

def alpha_closed(group: GroupTag, l: int) -> float:
    """Closed-form expansion coefficient of d(., e) on chi_l.

    SO(3), l >= 1:
        (2/pi) (1 + sum_{m<=l} ((-1)^m - 1)/m^2
                  + sum_{2<=m<=l} (m^2+1)/(m^2-1)^2 ((-1)^m + 1))
    and pi/2 + 2/pi for l = 0.  SU(2): pi/2 for l = 0,
    -(8/pi)(l+1)/(l^2 (l+2)^2) for odd l, 0 for even l >= 2.
    """
    if l < 0:
        raise ValueError("l must be >= 0")
    if group is GroupTag.SO3:
        if l == 0:
            return math.pi / 2.0 + 2.0 / math.pi
        total = 1.0
        for m in range(1, l + 1):
            total += ((-1) ** m - 1) / m ** 2
        for m in range(2, l + 1):
            total += (m * m + 1) / (m * m - 1) ** 2 * ((-1) ** m + 1)
        return 2.0 / math.pi * total
    if l == 0:
        return math.pi / 2.0
    if l % 2 == 0:
        return 0.0
    return -8.0 / math.pi * (l + 1) / (l * l * (l + 2) ** 2)


def alpha_quadrature(group: GroupTag, l: int, tol: float = 1e-10) -> float:
    """Expansion coefficient by adaptive Simpson on
    int_0^pi t chi_l(t) (angle density)(t) dt."""
    if l < 0:
        raise ValueError("l must be >= 0")

    def integrand(t: float) -> float:
        return t * chi(group, l, t) * angle_density(group, t)

    # panel width under a character half-period, so the oscillation
    # cannot alias with the bisection grid
    return simpson_adaptive(integrand, 0.0, math.pi, tol=tol, panels=l + 3)


def alpha_monte_carlo(
    group: GroupTag,
    l: int,
    n_samples: int,
    rng: RngStream,
) -> tuple[float, float]:
    """Monte Carlo coefficient from the double Haar integral.

    Draws pairs (g, h) from Haar measure and averages
    d(gh^{-1}, e) chi_l(g) chi_l(h); the mean times d_l estimates the
    coefficient.  Returns (estimate, standard error of the scaled mean).
    Requires n_samples >= 1000.
    """
    if n_samples < 1000:
        raise ValueError("n_samples must be >= 1000")
    d_l = dim_irrep(group, l)  # rejects l < 0 before any sampling
    total = 0.0
    total_sq = 0.0
    done = 0
    while done < n_samples:
        m = min(_MC_CHUNK, n_samples - done)
        u = haar_su2_batch(rng, m)
        v = haar_su2_batch(rng, m)
        dot = np.einsum("ij,ij->i", u, v)
        if group is GroupTag.SU2:
            tg = np.arccos(np.clip(u[:, 0], -1.0, 1.0))
            th = np.arccos(np.clip(v[:, 0], -1.0, 1.0))
            tgh = np.arccos(np.clip(dot, -1.0, 1.0))
        else:
            # rotations sampled through the covering map: the rotation
            # angle of Ad(q) is arccos(2 q_1^2 - 1), and of Ad(u)Ad(v)^T
            # is arccos(2 <u,v>^2 - 1)
            tg = np.arccos(np.clip(2.0 * u[:, 0] ** 2 - 1.0, -1.0, 1.0))
            th = np.arccos(np.clip(2.0 * v[:, 0] ** 2 - 1.0, -1.0, 1.0))
            tgh = np.arccos(np.clip(2.0 * dot ** 2 - 1.0, -1.0, 1.0))
        x = tgh * chi(group, l, tg) * chi(group, l, th)
        total += float(x.sum())
        total_sq += float((x * x).sum())
        done += m
    mean = total / n_samples
    var = max(0.0, (total_sq - n_samples * mean * mean) / (n_samples - 1))
    stderr = math.sqrt(var / n_samples)
    return d_l * mean, d_l * stderr


def partial_sum(group: GroupTag, lmax: int, t):
    """Partial character expansion sum_{l<=lmax} alpha_l chi_l(t)."""
    if lmax < 0:
        raise ValueError("lmax must be >= 0")
    t_arr = np.asarray(t, dtype=float)
    out = np.zeros_like(t_arr)
    for l in range(lmax + 1):
        a = alpha_closed(group, l)
        if a != 0.0:
            out = out + a * chi(group, l, t_arr)
    return float(out) if np.isscalar(t) or t_arr.ndim == 0 else out


# ---------------------------------------------------------------------------
# Coefficient tables
# ---------------------------------------------------------------------------

class CoefficientRow(NamedTuple):
    """The coefficient of chi_l three ways; Monte Carlo cells are None when off."""

    l: int
    dim: int
    closed: float
    quadrature: float
    monte_carlo: Optional[float]
    stderr: Optional[float]


@dataclass(frozen=True)
class CoefficientTable:
    """Coefficients for one group, one row per l."""

    group: GroupTag
    rows: tuple[CoefficientRow, ...]

    @classmethod
    def compute(
        cls,
        group: GroupTag,
        lmax: int,
        mc_samples: int = 0,
        rng: RngStream | None = None,
        tol: float = 1e-10,
    ) -> "CoefficientTable":
        """Closed-form and quadrature columns for l <= lmax, plus Monte
        Carlo when ``mc_samples`` > 0 (an rng is then required)."""
        if mc_samples > 0 and rng is None:
            raise ValueError("Monte Carlo entries need an RngStream")
        return cls(group, tuple(
            CoefficientRow(l, dim_irrep(group, l), alpha_closed(group, l),
                           alpha_quadrature(group, l, tol=tol),
                           *(alpha_monte_carlo(group, l, mc_samples, rng) if mc_samples > 0
                             else (None, None)))
            for l in range(lmax + 1)))

    def consistent(self, tol: float = 1e-8, k_sigma: float = 3.0) -> bool:
        """Cross-method agreement: closed vs quadrature within ``tol``,
        Monte Carlo within ``k_sigma`` standard errors of closed."""
        return all(
            abs(r.closed - r.quadrature) <= tol
            and (r.monte_carlo is None or abs(r.monte_carlo - r.closed) <= k_sigma * r.stderr)
            for r in self.rows
        )
