"""Gaussian field with the Brownian kernel as covariance, on SU(2).

The field is centered, pinned to zero at the base point x0, and has
E|X_x - X_y|^2 = d(x, y).  Its covariance is the Brownian kernel, which
is positive definite on SU(2); the same pipeline fed SO(3) points is a
diagnostic and fails the Cholesky stage for most configurations.

:func:`sample_field` draws realizations.  The variogram reads r
realizations only through their Gram matrix, whose law is Wishart(r, K), so
:func:`empirical_variogram` draws that matrix in law from Bartlett's factor
instead: its rows have the law of the variogram of r realizations, not the
values of sample_field's draws from the same stream.  Every increment
X_x - X_y is Gaussian, so the variogram's standard errors follow from its
estimates.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import NamedTuple, Optional

import numpy as np

from . import lapack
from .canonical import Table
from .group_core import BLOCK_FLOATS, mirror_upper, row_blocks
from .kernel_lab import brownian_kernel
from .rng import RngStream

DEFAULT_JITTER = 1e-10
_JITTER_DECADES = 3  # escalate x10 this many times before failing
_CANCELLATION_TOL = 1e-10  # largest variogram rounding bound accepted, relative to the value
_BLOCK = 1024  # realizations per column block of sample_field's colouring

# points closer than this to x0 are treated as the base point itself
_COINCIDENCE_TOL = 1e-12


class KernelNotPSDError(RuntimeError):
    """Cholesky failed after jitter escalation: kernel not PSD."""


@dataclass(frozen=True, eq=False)  # array fields: identity equality and hash
class FieldSample:
    """The points, their kernel's factor and (optionally) sampled values.

    ``points`` stacks the group's point rows, the base point first; the
    factor's row/column there and every sampled value there are exactly
    zero.  ``chol`` holds the Cholesky factor of the kernel's trailing block,
    lower triangular, in the one matrix the kernel was formed in; the kernel
    itself is not kept, and the variogram reads each distance from
    ``group`` and the points.  ``values`` holds one column per realization.
    """

    group: object
    points: np.ndarray
    chol: np.ndarray
    jitter_used: float
    values: Optional[np.ndarray] = None

    @property
    def m(self) -> int:
        return len(self.points)


def build_field(
    group,
    x: np.ndarray,
    x0=None,
    jitter: float = DEFAULT_JITTER,
) -> FieldSample:
    """Assemble and factor the Brownian-kernel matrix of the rows of x.

    x0 defaults to the group identity; the first row of x within
    ``_COINCIDENCE_TOL`` of it is moved to the front, or else x0 is
    prepended.  The kernel is formed in the distance matrix, its x0
    row/column exactly zero, and its trailing block Cholesky-factored in
    place with additive jitter escalating by decades; exhausting the ladder
    raises :class:`KernelNotPSDError`.  A failed rung leaves the block's
    strict upper triangle as it was (see :func:`lapack.cholesky`), so the
    next rung restores the lower triangle from it, and the diagonal from a
    copy, instead of holding a second matrix.
    """
    if jitter <= 0.0:
        raise ValueError("jitter must be positive")
    if len(x) == 0:
        raise ValueError("need at least one point")
    x0 = group.identity if x0 is None else np.asarray(x0, dtype=float)
    hit = np.flatnonzero(group.distances(x, x0) <= _COINCIDENCE_TOL)
    if hit.size:
        x0, x = x[hit[0]], np.delete(x, hit[0], axis=0)
    pts = np.concatenate((x0[None], x))
    k = brownian_kernel(group, pts)

    jit = 0.0
    if len(k) > 1:
        block = k[1:, 1:]
        diag = block.diagonal().copy()
        max_diag = float(diag.max())
        ladder = [jitter * 10.0 ** e for e in range(_JITTER_DECADES + 1)]
        for rung, jit in enumerate(ladder):
            if rung:  # K's block again, from the triangle the failed factor left
                for rows in row_blocks(len(block), len(block)):
                    mirror_upper(block, rows)
            np.fill_diagonal(block, diag + jit * max_diag)
            if not lapack.cholesky(k):
                break
        else:
            raise KernelNotPSDError(
                f"kernel not PSD: Cholesky failed up to jitter {ladder[-1]:g}"
            )
    return FieldSample(group=group, points=pts, chol=k, jitter_used=jit)


def variogram_bytes(m: int, realizations: int) -> int:
    """Bytes build_field and empirical_variogram hold at their peak for m
    points besides x0, the returned columns included.  No realization is
    drawn or held: S is drawn in the law of their Gram matrix (see
    :func:`empirical_variogram`).  The one pair pass holds three (m + 1)^2
    matrices at most: the factor, S and Bartlett's F, which is
    (m + 1) x min(m, r), so the charge is the same for every r >= m; besides
    them the estimate, distance and int32 pair-index columns (one and a half
    matrices) and one block of pairs, its distances and their terms, which
    read 6.9 float64 a pair at m = 1,500 and are charged 8; the stderr
    column comes after S is freed.  Drawing and colouring F hold less: its
    normals, and one block of rows of the colouring.  Besides:
    lapack.SCRATCH_BYTES.  VmHWM growth above the interpreter, with one BLAS
    thread, as `simulate` runs (numpy.random's import and the writer's pass
    included, as in cli.charge): 11.6 MiB at --points 200 --realizations
    10000, charged 22.6; 32.0 and 74.6 MiB, 6.53 and 4.34 matrices, at 800
    and 1,500 points and 100 realizations, charged 45.7 and 89.3; 96.9 MiB,
    5.63 matrices, at 1,500 points and 3,000 realizations, where F is whole,
    charged 105.3."""
    pairs = (m + 1) * m // 2
    return (2 * 8 * (m + 1) ** 2 + 8 * (m + 1) * min(m, realizations) + 24 * pairs
            + 8 * 8 * min(BLOCK_FLOATS, pairs) + lapack.SCRATCH_BYTES)


def sample_field(fs: FieldSample, realizations: int, rng: RngStream) -> FieldSample:
    """Draw independent realizations; returns a new FieldSample with
    ``values`` of shape (m, realizations), one column per realization.

    The normals are drawn realization-major (each realization's m - 1 normals
    consecutive in the stream), ``_BLOCK`` realizations at a time, into one
    buffer, and each block is coloured by the Cholesky factor straight into
    the value matrix's rows below the base point, which stay zero.  The
    values are L @ Z.T of Z drawn at once as (realizations, m - 1), to
    rounding: each block of columns is its own product.
    """
    if realizations < 1:
        raise ValueError("realizations must be >= 1")
    vals = np.zeros((fs.m, realizations))
    chol = fs.chol[1:, 1:]
    z = np.empty((min(_BLOCK, realizations), len(chol)))
    for a in range(0, realizations, _BLOCK):
        b = min(a + _BLOCK, realizations)
        np.matmul(chol, rng.generator.standard_normal(out=z[:b - a]).T, out=vals[1:, a:b])
    return replace(fs, values=vals)


def _bartlett_factor(fs: FieldSample, realizations: int, gen: np.random.Generator):
    """F = L A, an (m, p) array with p = min(m - 1, r) and a zero first row,
    whose Gram matrix F F^T has the law of V V^T of r realizations V of the
    field: Wishart(r, K).

    A is Bartlett's factor of Z Z^T for an (m - 1) x r matrix Z of normals
    (Bartlett 1933; Odell & Feiveson, JASA 61 (1966) 199-203), lower
    trapezoidal, also when r < m - 1: A_ij ~ N(0, 1) for i > j and
    A_ii = sqrt(chi^2_{r - i}) for i = 0 .. p - 1, counted from 0.  The
    normals are drawn first, in row-major order over the strict lower
    trapezoid, then the p chi-squares in order of i.  The colouring
    overwrites A, a block of rows at a time from the bottom up: rows [lo, hi)
    of L A read A[:hi] alone.
    """
    n = fs.m - 1
    f = np.zeros((fs.m, min(n, realizations)))
    a, chol = f[1:], fs.chol[1:, 1:]
    low = np.tri(*a.shape, -1, dtype=bool)
    a[low] = gen.standard_normal(np.count_nonzero(low))
    np.fill_diagonal(a, np.sqrt(gen.chisquare(realizations - np.arange(f.shape[1]))))
    for rows in reversed(row_blocks(n, f.shape[1])):
        cols = min(rows.stop, f.shape[1])  # A[:hi] is zero right of column hi
        a[rows, :cols] = chol[rows, :rows.stop] @ a[:rows.stop, :cols]
    return f


class VariogramRow(NamedTuple):
    pair_i: int
    pair_j: int
    distance: float
    estimate: float
    stderr: float


def empirical_variogram(fs: FieldSample, realizations: int, rng: RngStream) -> Table:
    """Estimates of E|X_i - X_j|^2 with standard errors over ``realizations``
    draws of the field, one :class:`VariogramRow` per pair i < j in
    row-major order, held as the five columns ``pair_i``, ``pair_j``
    (int32), ``distance``, ``estimate`` and ``stderr``.  Needs >= 100
    realizations.

    The estimates read the realizations V only through their Gram matrix
    S = V V^T, whose law is Wishart(r, K).  S is drawn in that law, as
    F F^T of Bartlett's F (see :func:`_bartlett_factor`), from
    (m - 1) min(m - 1, r) variates, so no realization is drawn and neither
    time nor memory grows with r beyond m - 1.  Every estimate and stderr
    has the law of those of r realizations of :func:`sample_field`, but not
    the values of its draws from the same stream.

    The sum of (V_i - V_j)^2 over the realizations is S_ii + S_jj - 2 S_ij.
    It cancels when V_i is close to V_j; eps times the sum of the absolute
    terms bounds the rounding (Chan, Golub & LeVeque 1983), and a pair whose
    bound exceeds ``_CANCELLATION_TOL`` of the value is recomputed directly
    as |F_i - F_j|^2.

    Each increment V_i - V_j is a linear map of normal draws, so it is
    N(0, d_ij) and Var((V_i - V_j)^2) = 2 d_ij^2: ``stderr`` is the plug-in
    sqrt(2 / r) * ``estimate`` on every row, a recomputed one included.

    The pair terms are formed in one pass over the blocks of upper-triangle
    rows of the points' distances (``group.upper_blocks``), so no per-pair
    vector but the columns is held whole: it writes ``estimate`` from S,
    flags the pairs, and writes ``distance``, the group's distance of the
    pair itself, and the pair indices.  S is freed before the recomputed
    pairs and ``stderr``.
    """
    if realizations < 100:
        raise ValueError("need at least 100 realizations")
    r, m = realizations, fs.m
    f = _bartlett_factor(fs, r, rng.generator)
    s = f @ f.T
    ds = s.diagonal()
    eps = np.finfo(float).eps
    est, dist = np.empty(m * (m - 1) // 2), np.empty(m * (m - 1) // 2)
    pair_i, pair_j = np.empty(len(est), dtype=np.int32), np.empty(len(est), dtype=np.int32)
    flagged = [np.empty(0, dtype=np.intp)]  # one array to concatenate when x0 alone has no pairs
    first = 0
    for lo, d in fs.group.upper_blocks(fs.points):
        i, j = np.nonzero(np.arange(d.shape[1]) > np.arange(len(d))[:, None])
        block = slice(first, first + len(i))
        dist[block] = d[i, j]
        i += lo
        j += lo
        s_ij = s[i, j]
        sq = ds[i] + ds[j] - 2.0 * s_ij
        est[block] = sq / r
        unsafe = eps * (ds[i] + ds[j] + 2.0 * np.abs(s_ij)) > _CANCELLATION_TOL * sq
        flagged.append(first + np.flatnonzero(unsafe))
        pair_i[block], pair_j[block] = i, j
        first += len(i)
    del s, ds
    for p in np.concatenate(flagged):
        est[p] = ((f[pair_i[p]] - f[pair_j[p]]) ** 2).sum() / r
    return Table(VariogramRow, pair_i, pair_j, dist, est, np.sqrt(2.0 / r) * est)
