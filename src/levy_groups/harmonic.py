"""Characters and the character-expansion coefficients of the
distance-to-identity function on SU(2) and SO(3).

Every function takes the group as its descriptor, ``SU2`` or ``SO3`` from
``group_core``, and raises ValueError naming any other group.

The distance to the identity is a class function, so it expands as
d(., e) = sum_l alpha_l * chi_l.  The coefficients are computed three
independent ways:

* ``alpha_closed``      -- closed forms obtained by integrating the
                           character against the angle density,
* ``alpha_quadrature``  -- adaptive Simpson on the same integral in its
                           Weyl-reduced form (2/pi) t sin(k s) sin(s), where
                           the density has cancelled the character's
                           denominator,
* ``alpha_monte_carlo`` -- the double Haar integral
                           d_l * E[ d(gh^{-1}, e) chi_l(g) chi_l(h) ]
                           for every l <= lmax at once: its Haar pairs
                           are drawn once for all rows, and every chi_l
                           comes from the cosine of each angle by the
                           recurrence chi_{l+1} = 2 cos(t) chi_l - chi_{l-1}.

``coefficients`` returns the three columns as a ``canonical.Table`` of
``CoefficientRow``, one row per l.

The sign of the nontrivial coefficients decides whether the Brownian
kernel built from d is positive definite: on SU(2) all of them are <= 0,
on SO(3) the even-l ones are strictly positive.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional

import numpy as np

from .canonical import Table
from .group_core import SO3, SU2, haar_su2_batch
from .quadrature import simpson_adaptive
from .rng import RngStream

# Haar pairs per block of alpha_monte_carlo, for speed and memory; the pairs do not
# depend on it.  Its characters loop works on 10 floats a pair, 1.25 MiB here, in a
# 2 MiB L2.  alpha_monte_carlo(SO3, 50, 100_000), one BLAS thread on a 2-core Xeon,
# median of 15 in alternation: 53-54 ms here, 57 at 1 << 13, 60 at 1 << 15, 68 at 1 << 17
_MC_CHUNK = 1 << 14
QUADRATURE_TOL = 1e-10  # default absolute tolerance of the adaptive Simpson rule


def _is_so3(group) -> bool:
    """True for SO3, False for SU2; ValueError naming any other group."""
    if group is SO3:
        return True
    if group is not SU2:
        raise ValueError(f"no character formulas for {group!r}: only SU(2) and SO(3)")
    return False


def dim_irrep(group, l: int) -> int:
    """Dimension of the l-th irreducible representation."""
    if l < 0:
        raise ValueError("l must be >= 0")
    return 2 * l + 1 if _is_so3(group) else l + 1


# ---------------------------------------------------------------------------
# Expansion coefficients
# ---------------------------------------------------------------------------

def alpha_closed(group, l: int) -> float:
    """Closed-form expansion coefficient of d(., e) on chi_l.

    SO(3): pi/2 + 2/pi for l = 0, (2/pi)/(l+1)^2 for even l >= 2 and
    -(2/pi)/l^2 for odd l.  These are the sums
        (2/pi) (1 + sum_{m<=l} ((-1)^m - 1)/m^2
                  + sum_{2<=m<=l} (m^2+1)/(m^2-1)^2 ((-1)^m + 1))
    in closed form: (m^2+1)/(m^2-1)^2 = (1/(m-1)^2 + 1/(m+1)^2)/2, so the
    even-m terms of the second sum telescope against the odd-m terms of the
    first, and no cancelling series is summed.  SU(2): pi/2 for l = 0,
    -(8/pi)(l+1)/(l^2 (l+2)^2) for odd l, 0 for even l >= 2.
    """
    if l < 0:
        raise ValueError("l must be >= 0")
    if _is_so3(group):
        if l == 0:
            return math.pi / 2.0 + 2.0 / math.pi
        return 2.0 / math.pi / (l + 1) ** 2 if l % 2 == 0 else -2.0 / math.pi / l ** 2
    if l == 0:
        return math.pi / 2.0
    if l % 2 == 0:
        return 0.0
    return -8.0 / math.pi * (l + 1) / (l * l * (l + 2) ** 2)


def alpha_quadrature(group, l: int, tol: float = QUADRATURE_TOL) -> float:
    """Expansion coefficient by adaptive Simpson on
    int_0^pi t chi_l(t) (angle density)(t) dt.

    By the Weyl integration formula the density cancels the character's
    denominator, so the integrand is evaluated as the reduced product
    (2/pi) t sin(k s) sin(s): SU(2) k = l+1, s = t; SO(3) k = 2l+1,
    s = t/2.  It has no 0/0 point, and plain ``math`` evaluates it on the
    scalar t the rule passes.
    """
    if l < 0:
        raise ValueError("l must be >= 0")
    k, half = (2 * l + 1, 0.5) if _is_so3(group) else (l + 1, 1.0)
    sin, c = math.sin, 2.0 / math.pi

    def integrand(t: float) -> float:
        s = half * t
        return c * t * sin(k * s) * sin(s)

    # panel width under a character half-period, so the oscillation
    # cannot alias with the bisection grid
    return simpson_adaptive(integrand, 0.0, math.pi, tol=tol, panels=l + 3)


def _characters(group, c, lmax: int):
    """Yield chi_0, ..., chi_lmax at the elements whose rotation angle has
    cosine ``c`` (an array of any shape), by the recurrence
    chi_{l+1} = 2c chi_l - chi_{l-1} from chi_0 = 1.

    The same recurrence serves both groups; only the start differs:
    chi_{-1} = 0 on SU(2) (the Chebyshev U_l in cos t) and -1 on SO(3),
    where chi_l = 1 + 2 sum_{m<=l} cos(mt).  chi_{l+1} is written over
    chi_{l-1}, so a yielded array is overwritten two steps later: only the
    current and the previous character are held, with one scratch array
    for 2c chi_l.
    """
    two_c = 2.0 * np.asarray(c, dtype=float)
    del c  # may be a view that would keep the caller's whole draw alive
    prev = np.full_like(two_c, -1.0 if _is_so3(group) else 0.0)
    cur = np.ones_like(two_c)
    scratch = np.empty_like(two_c)
    for _ in range(lmax):
        yield cur
        np.multiply(two_c, cur, out=scratch)
        np.subtract(scratch, prev, out=prev)
        prev, cur = cur, prev
    yield cur


def monte_carlo_bytes(lmax: int, n_samples: int) -> int:
    """Bytes ``coefficients(group, lmax, n_samples)`` holds beside the quadrature's:
    its lmax + 1 rows and, with Monte Carlo on, alpha_monte_carlo's block of pairs.

    A row is its cells in the per-l lists, the Table's columns and the Monte Carlo
    sums.  VmHWM of `coeffs` grew 224-226 B a row at --mc-n 0 and 271-273 at --mc-n
    1,000, from --lmax 100,000 to 200,000 on both groups in JSON and CSV, with the
    closed forms and the quadrature, O(lmax^2) in time, stubbed by a new float a row;
    charged 320.  A block is float64 arrays of one block of pairs, or of n_samples
    below a block.  Traced, 12.0-12.1 a pair at a full block (the characters loop),
    14.1 below (the draw: numpy adds its squares in place only from 256 KiB); VmHWM of
    `coeffs --lmax 50` above --mc-n 0, up to 15.3 (--mc-n 5,000 to 10^6); charged 16."""
    return 320 * (lmax + 1) + 16 * 8 * min(_MC_CHUNK, n_samples)


def _block_sums(group, lmax: int, m: int, rng: RngStream) -> np.ndarray:
    """Sums (row 0) and sums of squares (row 1), for l = 0, ..., lmax, of
    d(gh^{-1}, e) chi_l(g) chi_l(h) over the next m Haar pairs (g, h).

    Pair k is rows 2k and 2k + 1 of one draw of 2m rows, filled in stream order,
    so no block size changes the pairs.  The characters of g and h come from one
    ``_characters`` generator on their stacked cosines; every array is local."""
    w = haar_su2_batch(rng, 2 * m)
    # cosines of the angles of g and h, stacked on unit stride, and of gh^{-1}:
    # the quaternion's real part on SU(2); on SO(3), through the covering map,
    # the rotation angle of Ad(q) has cosine 2 q_1^2 - 1
    cos_gh = np.einsum("ij,ij->i", w[0::2], w[1::2])
    cos = np.stack((w[0::2, 0], w[1::2, 0]))
    del w
    if group is SO3:
        cos, cos_gh = (2.0 * c * c - 1.0 for c in (cos, cos_gh))
    tgh = np.arccos(np.clip(cos_gh, -1.0, 1.0, out=cos_gh), out=cos_gh)
    x = np.empty_like(tgh)
    sums = np.empty((2, lmax + 1))
    for l, chi in enumerate(_characters(group, cos, lmax)):
        np.multiply(tgh, chi[0], out=x)
        x *= chi[1]
        sums[0, l] = x.sum()  # numpy's own reduction: no BLAS, so no thread count enters
        x *= x
        sums[1, l] = x.sum()
    return sums


def alpha_monte_carlo(
    group,
    lmax: int,
    n_samples: int,
    rng: RngStream,
) -> tuple[list[float], list[float]]:
    """Monte Carlo coefficients of chi_0, ..., chi_lmax from the double Haar
    integral, every l from one shared draw.

    The pairs are consecutive rows of the stream, taken ``_MC_CHUNK`` at a time;
    each block serves every l (``_block_sums``): the mean of d(gh^{-1}, e)
    chi_l(g) chi_l(h) times d_l estimates alpha_l.  Per-l sums and sums of squares accumulate
    block by block; no (lmax+1) x block table is built.  Returns
    (estimates, standard errors of the scaled means), one entry per l.
    Requires n_samples >= 1000.
    """
    if n_samples < 1000:
        raise ValueError("n_samples must be >= 1000")
    dim_irrep(group, lmax)  # rejects lmax < 0 and other groups before any sampling
    sums = np.zeros((2, lmax + 1))
    for done in range(0, n_samples, _MC_CHUNK):
        sums += _block_sums(group, lmax, min(_MC_CHUNK, n_samples - done), rng)
    total, total_sq = sums.tolist()
    estimates, stderrs = [], []
    for l in range(lmax + 1):
        d_l = dim_irrep(group, l)
        mean = total[l] / n_samples
        var = max(0.0, (total_sq[l] - n_samples * mean * mean) / (n_samples - 1))
        estimates.append(d_l * mean)
        stderrs.append(d_l * math.sqrt(var / n_samples))
    return estimates, stderrs


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


def coefficients(group, lmax: int, mc_samples: int = 0, rng: RngStream | None = None,
                 tol: float = QUADRATURE_TOL) -> Table:
    """Table of CoefficientRow for l <= lmax: closed-form and quadrature
    columns, plus Monte Carlo when ``mc_samples`` > 0 (an rng is then
    required), every row from the same Haar draw."""
    if mc_samples > 0 and rng is None:
        raise ValueError("Monte Carlo entries need an RngStream")
    ls = range(lmax + 1)
    off = [None] * len(ls)
    mc = alpha_monte_carlo(group, lmax, mc_samples, rng) if mc_samples > 0 else (off, off)
    return Table(CoefficientRow, ls, [dim_irrep(group, l) for l in ls],
                 [alpha_closed(group, l) for l in ls],
                 [alpha_quadrature(group, l, tol=tol) for l in ls], *mc)
