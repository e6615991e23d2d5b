"""Gaussian field with the Brownian kernel as covariance, on SU(2).

The field is centered, pinned to zero at the base point x0, and has
E|X_x - X_y|^2 = d(x, y).  Its covariance is the Brownian kernel, which
is positive definite on SU(2); the same pipeline fed SO(3) points is a
diagnostic and fails the Cholesky stage for most configurations.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import NamedTuple, Optional

import numpy as np

from . import lapack
from .canonical import Table
from .kernel_lab import brownian_kernel
from .rng import RngStream

DEFAULT_JITTER = 1e-10
_JITTER_DECADES = 3  # escalate x10 this many times before failing
_CANCELLATION_TOL = 1e-10  # largest variogram rounding bound accepted, relative to the value
_BLOCK = 1024  # realizations per column block of the colouring and of the Gram products

# points closer than this to x0 are treated as the base point itself
_COINCIDENCE_TOL = 1e-12


class KernelNotPSDError(RuntimeError):
    """Cholesky failed after jitter escalation: kernel not PSD."""


@dataclass(frozen=True, eq=False)  # array fields: identity equality and hash
class FieldSample:
    """Kernel matrix, factorization and (optionally) sampled values.

    ``points`` stacks the group's point rows, the base point first; its
    kernel row/column and every sampled value there are exactly zero.
    ``values`` holds one column per realization.
    """

    points: np.ndarray
    K: np.ndarray
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
    row/column exactly zero, and the trailing block Cholesky-factored with
    additive jitter escalating by decades; exhausting the ladder raises
    :class:`KernelNotPSDError`.
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

    chol = np.zeros_like(k)
    jit = 0.0
    if len(k) > 1:
        block, diag = chol[1:, 1:], k[1:, 1:].diagonal()
        max_diag = float(diag.max())
        ladder = [jitter * 10.0 ** e for e in range(_JITTER_DECADES + 1)]
        for jit in ladder:
            block[...] = k[1:, 1:]  # each rung factors K's block plus the jitter afresh
            np.fill_diagonal(block, diag + jit * max_diag)
            if not lapack.cholesky(chol):
                break
        else:
            raise KernelNotPSDError(
                f"kernel not PSD: Cholesky failed up to jitter {ladder[-1]:g}"
            )
    return FieldSample(points=pts, K=k, chol=chol, jitter_used=jit)


def variogram_bytes(m: int, realizations: int) -> int:
    """Bytes build_field and empirical_variogram hold at their peak for m
    points besides x0, the returned columns included.  VmHWM growth above
    the interpreter, with one BLAS thread, read 2.45 and 2.14 (m + 1)^2
    matrices after build_field (K and the factor lapack.cholesky forms in
    place) and 10.55 and 10.21 at the variogram's end, the peak (K, the
    factor, S, Q, T and a dozen vectors of one entry per pair, each half a
    matrix) at m = 800 and 1,500: `simulate --points 1500 --realizations
    100` grew 182.3 MiB; charged 12.
    Besides: one colouring block of values at its widest; the one scratch
    of _gram_moments, that block's normals or the _BLOCK columns of powers,
    whichever is larger (`simulate --points 200 --realizations 10000` grew
    15.5 MiB, against 17.2 with the two apart); lapack.SCRATCH_BYTES.  Not
    charged: the value rows of the points of pairs closer than about 0.01,
    which the cancellation guard's replay holds."""
    widest = min(realizations, 2 * _colour_width(m))
    return (12 * 8 * (m + 1) ** 2 + 8 * (m + 1) * widest + 8 * max(m * widest, (m + 1) * _BLOCK)
            + lapack.SCRATCH_BYTES)


def _colour_width(n: int) -> int:
    """Columns per block when an n x n factor colours the normals.

    Each block takes the full product's BLAS kernel, so the values equal one
    full L @ Z bit for bit: a multiple of _BLOCK keeps it on the kernel's tile
    grid, and _BLOCK**2 multiply-adds or more keep it above OpenBLAS's
    small-matrix kernels (10**6).  Narrower blocks, and a narrow last block,
    take other kernels (a one-column one gemv) whose sums differ.
    """
    return _BLOCK * -(-_BLOCK // max(n, 1) ** 2)


def _colour_cuts(n: int, realizations: int) -> list[int]:
    """Column cuts of the colouring blocks of an n x n factor: blocks of
    _colour_width(n) columns, the last up to twice as wide as the others."""
    width = _colour_width(n)
    return [*range(0, max(realizations // width, 1) * width, width), realizations]


def _coloured_blocks(fs: FieldSample, realizations: int, gen: np.random.Generator,
                     out: Optional[np.ndarray] = None, scratch: Optional[np.ndarray] = None):
    """Yield (first column, values block) over the realizations, one colouring
    block of columns at a time.

    The normals are drawn realization-major (each realization's m - 1 normals
    consecutive in the stream), a block of realizations at a time, into the
    head of ``scratch``, a flat float64 array of at least widest x (m - 1)
    entries (a new one when None), and coloured by the Cholesky factor into
    the block's rows below the base point, which stay zero.  The normals are
    spent once a block is yielded, so the caller may use ``scratch`` until
    the next step.  A block is a view of ``out`` (an (m, realizations)
    array, zero in its first row) when given, else of one buffer that the
    next block overwrites.  The values equal one full L @ Z.T of Z drawn at
    once as (realizations, m - 1), bit for bit (see :func:`_colour_width`).
    """
    chol = fs.chol[1:, 1:]
    cuts = _colour_cuts(len(chol), realizations)
    widest = cuts[-1] - cuts[-2]
    z = np.empty(widest * len(chol)) if scratch is None else scratch[:widest * len(chol)]
    z = z.reshape(widest, len(chol))
    vals = np.zeros((fs.m, widest)) if out is None else None
    for a, b in zip(cuts, cuts[1:]):
        block = vals[:, :b - a] if out is None else out[:, a:b]
        np.matmul(chol, gen.standard_normal(out=z[:b - a]).T, out=block[1:])
        yield a, block


def sample_field(fs: FieldSample, realizations: int, rng: RngStream) -> FieldSample:
    """Draw independent realizations; returns a new FieldSample with
    ``values`` of shape (m, realizations), one column per realization.

    The values are coloured straight into the value matrix, one block of
    columns at a time, from the same draws as :func:`empirical_variogram`
    streams.
    """
    if realizations < 1:
        raise ValueError("realizations must be >= 1")
    vals = np.zeros((fs.m, realizations))
    for _ in _coloured_blocks(fs, realizations, rng.generator, out=vals):
        pass
    return replace(fs, values=vals)


def _gram_moments(fs: FieldSample, realizations: int, gen: np.random.Generator):
    """S = V V^T, Q = V^2 (V^2)^T and T = V^3 V^T of the values V of the
    realizations, summed over column blocks of _BLOCK.  One flat scratch
    holds each colouring block's normals, then, once they are spent, its
    _BLOCK columns of powers; each product goes in one reused buffer."""
    cuts = _colour_cuts(fs.m - 1, realizations)
    widest = cuts[-1] - cuts[-2]
    scratch = np.empty(max(widest * (fs.m - 1), fs.m * _BLOCK))
    powers = scratch[:fs.m * _BLOCK].reshape(fs.m, _BLOCK)
    s, q, t = np.zeros((3, fs.m, fs.m))
    prod = np.empty((fs.m, fs.m))
    for _, v in _coloured_blocks(fs, realizations, gen, scratch=scratch):
        for c in range(0, v.shape[1], _BLOCK):  # colouring blocks are whole _BLOCKs
            b = v[:, c:c + _BLOCK]
            b2 = np.multiply(b, b, out=powers[:, :b.shape[1]])
            s += np.matmul(b, b.T, out=prod)
            q += np.matmul(b2, b2.T, out=prod)
            b2 *= b  # now the cubes
            t += np.matmul(b2, b.T, out=prod)
    return s, q, t


class VariogramRow(NamedTuple):
    pair_i: int
    pair_j: int
    distance: float
    estimate: float
    stderr: float


def empirical_variogram(fs: FieldSample, realizations: int, rng: RngStream) -> Table:
    """Estimates of E|X_i - X_j|^2 with standard errors over ``realizations``
    fresh draws of the field, one :class:`VariogramRow` per pair i < j in
    row-major order, held as the five columns ``pair_i``, ``pair_j``,
    ``distance``, ``estimate`` and ``stderr``.  Needs >= 100 realizations.

    The realizations stream through one colouring block at a time, drawn as
    :func:`sample_field` draws them, so no (m, realizations) array is held.
    With S = V V^T, Q = V^2 (V^2)^T and T = V^3 V^T of the values V, summed
    over column blocks of ``_BLOCK``, the sums of (V_i - V_j)^2 and of its
    square over the realizations are S_ii + S_jj - 2 S_ij and
    Q_ii + Q_jj - 4 (T_ij + T_ji) + 6 Q_ij.  Both cancel when V_i is close to
    V_j; eps times the sum of the absolute terms bounds the rounding (Chan,
    Golub & LeVeque 1983), and a pair whose bound exceeds
    ``_CANCELLATION_TOL`` of either value is recomputed directly: the draws
    are replayed once from the generator state before the pass, holding the
    value rows of the flagged pairs' points, and the end state is restored.
    """
    if realizations < 100:
        raise ValueError("need at least 100 realizations")
    r, gen = realizations, rng.generator
    start = gen.bit_generator.state
    i, j = np.triu_indices(fs.m, 1)
    s, q, t = _gram_moments(fs, r, gen)
    sq = s[i, i] + s[j, j] - 2.0 * s[i, j]
    num = q[i, i] + q[j, j] - 4.0 * (t[i, j] + t[j, i]) + 6.0 * q[i, j] - sq * sq / r
    eps = np.finfo(float).eps
    sq_err = eps * (s[i, i] + s[j, j] + 2.0 * np.abs(s[i, j]))
    num_err = eps * (q[i, i] + q[j, j] + 4.0 * (np.abs(t[i, j]) + np.abs(t[j, i]))
                     + 6.0 * q[i, j] + (sq + 2.0 * sq_err) * sq / r)
    unsafe = (sq_err > _CANCELLATION_TOL * sq) | (num_err > _CANCELLATION_TOL * num)
    est, se = sq / r, np.sqrt(np.where(unsafe, 0.0, num) / (r - 1)) / np.sqrt(r)
    unsafe = np.flatnonzero(unsafe)
    if unsafe.size:
        rows, at = np.unique(np.concatenate((i[unsafe], j[unsafe])), return_inverse=True)
        held = np.empty((len(rows), r))
        end, gen.bit_generator.state = gen.bit_generator.state, start
        try:
            for a, v in _coloured_blocks(fs, r, gen):
                held[:, a:a + v.shape[1]] = v[rows]
        finally:
            gen.bit_generator.state = end
        for p, a, b in zip(unsafe, at[:unsafe.size], at[unsafe.size:]):
            d = (held[a] - held[b]) ** 2
            est[p], se[p] = d.mean(), d.std(ddof=1) / np.sqrt(r)
    k = fs.K  # d_ij = K_ii + K_jj - 2 K_ij, exact from the kernel definition
    dist = k[i, i] + k[j, j] - 2.0 * k[i, j]
    return Table(VariogramRow, i, j, dist, est, se)
