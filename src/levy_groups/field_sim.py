"""Gaussian field with the Brownian kernel as covariance, on SU(2).

The field is centered, pinned to zero at the base point x0, and has
E|X_x - X_y|^2 = d(x, y).  Its covariance is the Brownian kernel, which
is positive definite on SU(2); the same pipeline fed SO(3) points is a
diagnostic and fails the Cholesky stage for most configurations.  Every
increment X_x - X_y is Gaussian, so the variogram's standard errors follow
from its estimates, and one Gram product of the sampled values gives both.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import NamedTuple, Optional

import numpy as np

from . import lapack
from .canonical import Table
from .group_core import BLOCK_FLOATS, row_blocks
from .kernel_lab import brownian_kernel
from .rng import RngStream

DEFAULT_JITTER = 1e-10
_JITTER_DECADES = 3  # escalate x10 this many times before failing
_CANCELLATION_TOL = 1e-10  # largest variogram rounding bound accepted, relative to the value
_BLOCK = 1024  # realizations per column block of the colouring and of the Gram product

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
    points besides x0, the returned columns included.  While the
    realizations stream: four (m + 1)^2 matrices (K, the factor, S and the
    Gram product's buffer), one colouring block of values at its widest and
    that block's normals.  The one pair pass holds K, the factor, S, the
    estimate, distance and int32 pair-index columns (one and a half
    matrices) and the terms of one block of pairs, which read 5.9 float64 a
    pair at m = 1,500 and are charged 7; the stderr column comes after S is
    freed.  Besides: lapack.SCRATCH_BYTES.  VmHWM growth above the
    interpreter, with one BLAS thread, as `simulate` runs (numpy.random's
    import and the writer's pass included, as in cli.charge): 13.7 MiB at
    --points 200 --realizations 10000, charged 24.4; 36.6 and 93.1 MiB, 7.47
    and 5.42 matrices, at 800 and 1,500 points and 100 realizations, charged
    49.0 and 104.3.  Not charged: the value rows of the points of pairs
    closer than about 1e-5, which the cancellation guard's replay holds."""
    width = _colour_width(m)
    # the widest block is the first or the last, and r ends as one block and r's remainder do
    widest = _widest(_colour_cuts(m, min(realizations, width + realizations % width)))
    pairs = (m + 1) * m // 2
    stream = 4 * 8 * (m + 1) ** 2 + 8 * (m + 1) * widest + 8 * m * widest
    pair_pass = 3 * 8 * (m + 1) ** 2 + 24 * pairs + 7 * 8 * min(BLOCK_FLOATS, pairs)
    return max(stream, pair_pass) + lapack.SCRATCH_BYTES


def _colour_width(n: int) -> int:
    """Columns per block when an n x n factor colours the normals.

    Each block takes the full product's BLAS kernel, so the values equal one
    full L @ Z bit for bit: a multiple of _BLOCK keeps it on the kernel's tile
    grid, and _BLOCK**2 multiply-adds or more keep it above OpenBLAS's
    small-matrix kernels (10**6).  Narrower blocks take other kernels (a
    one-column one gemv) whose sums differ; :func:`_colour_cuts` says when a
    last block narrower than this may stand on its own.
    """
    return _BLOCK * -(-_BLOCK // max(n, 1) ** 2)


def _colour_cuts(n: int, realizations: int) -> list[int]:
    """Column cuts of the colouring blocks of an n x n factor: blocks of
    _colour_width(n) columns, then the remainder of the realizations.

    The remainder is a block of its own when it is a multiple of 8 columns,
    at least _BLOCK // 4 of them and at least _BLOCK**2 multiply-adds (n^2
    per column); else it joins the last whole block, which is then up to
    twice as wide.  These keep a short block on the full product's kernels.
    With OpenBLAS on SkylakeX and one BLAS thread, remainders of 100-188
    columns changed the sums at n = 100-400, and none of 192 or more did at
    n = 32-700.  On two BLAS threads, remainders of 256-692 columns that are
    not multiples of 8 changed the sums at n = 64-700, and no multiple of 8
    did, on two or four threads.
    """
    width = _colour_width(n)
    whole, rest = divmod(realizations, width)
    own = rest % 8 == 0 and 4 * rest >= _BLOCK and n * n * rest >= _BLOCK ** 2
    return [*range(0, max(whole + own, 1) * width, width), realizations]


def _widest(cuts: list[int]) -> int:
    """Columns of the widest block between the cuts: the first or the last,
    as every other is as wide as the first."""
    return max(cuts[1] - cuts[0], cuts[-1] - cuts[-2])


def _coloured_blocks(fs: FieldSample, realizations: int, gen: np.random.Generator,
                     out: Optional[np.ndarray] = None):
    """Yield (first column, values block) over the realizations, one colouring
    block of columns at a time.

    The normals are drawn realization-major (each realization's m - 1 normals
    consecutive in the stream), a block of realizations at a time, into one
    buffer sized for the widest block, and coloured by the Cholesky factor
    into the block's rows below the base point, which stay zero.  A block is
    a view of ``out`` (an (m, realizations) array, zero in its first row)
    when given, else of one buffer that the next block overwrites.  The
    values equal one full L @ Z.T of Z drawn at once as (realizations,
    m - 1), bit for bit (see :func:`_colour_cuts`), where BLAS runs on one
    thread or two, as the CLI pins it to one; at more threads OpenBLAS may
    split the two products' sums differently.
    """
    chol = fs.chol[1:, 1:]
    cuts = _colour_cuts(len(chol), realizations)
    widest = _widest(cuts)
    z = np.empty((widest, len(chol)))
    vals = np.empty(fs.m * widest) if out is None else None
    for a, b in zip(cuts, cuts[1:]):
        if out is None:  # the buffer's head: a narrower block is contiguous too
            block = vals[:fs.m * (b - a)].reshape(fs.m, b - a)
            block[0] = 0.0
        else:
            block = out[:, a:b]
        np.matmul(chol, gen.standard_normal(out=z[:b - a]).T, out=block[1:])
        yield a, block


def sample_field(fs: FieldSample, realizations: int, rng: RngStream) -> FieldSample:
    """Draw independent realizations; returns a new FieldSample with
    ``values`` of shape (m, realizations), one column per realization.

    The values are coloured straight into the value matrix, one block of
    columns at a time, from the same draws as :func:`empirical_variogram`
    streams.  On one or two BLAS threads they equal one full L @ Z.T bit
    for bit (see :func:`_coloured_blocks`); at more, they may not.
    """
    if realizations < 1:
        raise ValueError("realizations must be >= 1")
    vals = np.zeros((fs.m, realizations))
    for _ in _coloured_blocks(fs, realizations, rng.generator, out=vals):
        pass
    return replace(fs, values=vals)


def _gram_moments(fs: FieldSample, realizations: int, gen: np.random.Generator):
    """S = V V^T of the values V of the realizations, summed over column
    blocks of _BLOCK, one GEMM a block into one reused product buffer.  The
    colouring cuts fall on multiples of _BLOCK, so the column blocks, and the
    sum, do not depend on the colouring."""
    s, prod = np.zeros((fs.m, fs.m)), np.empty((fs.m, fs.m))
    for _, v in _coloured_blocks(fs, realizations, gen):
        for c in range(0, v.shape[1], _BLOCK):
            b = v[:, c:c + _BLOCK]
            s += np.matmul(b, b.T, out=prod)
    return s


def _pair_blocks(m: int):
    """Yield (first pair, i, j) over blocks of upper-triangle rows of an
    (m, m) matrix, about BLOCK_FLOATS entries of the rows each: the rows'
    pairs i < j in row-major order, from the pair's index among all pairs."""
    first = 0
    for rows in row_blocks(m - 1, m):
        i, j = np.nonzero(np.arange(m) > np.arange(rows.start, rows.stop)[:, None])
        i += rows.start
        yield first, i, j
        first += len(i)


class VariogramRow(NamedTuple):
    pair_i: int
    pair_j: int
    distance: float
    estimate: float
    stderr: float


def empirical_variogram(fs: FieldSample, realizations: int, rng: RngStream) -> Table:
    """Estimates of E|X_i - X_j|^2 with standard errors over ``realizations``
    fresh draws of the field, one :class:`VariogramRow` per pair i < j in
    row-major order, held as the five columns ``pair_i``, ``pair_j``
    (int32), ``distance``, ``estimate`` and ``stderr``.  Needs >= 100
    realizations.

    The realizations stream through one colouring block at a time, drawn as
    :func:`sample_field` draws them, so no (m, realizations) array is held.
    With S = V V^T of the values V, summed over column blocks of ``_BLOCK``,
    the sum of (V_i - V_j)^2 over the realizations is S_ii + S_jj - 2 S_ij.
    It cancels when V_i is close to V_j; eps times the sum of the absolute
    terms bounds the rounding (Chan, Golub & LeVeque 1983), and a pair whose
    bound exceeds ``_CANCELLATION_TOL`` of the value is recomputed directly:
    the draws are replayed once from the generator state before the pass,
    holding the value rows of the flagged pairs' points, and the end state
    is restored.

    Each increment V_i - V_j is a linear map of normal draws, so it is
    N(0, d_ij) and Var((V_i - V_j)^2) = 2 d_ij^2: ``stderr`` is the plug-in
    sqrt(2 / r) * ``estimate`` on every row, a replayed one included.

    The pair terms are formed in one pass, a block of upper-triangle rows at
    a time, so no per-pair vector but the columns is held whole: it writes
    ``estimate`` from S, flags the pairs, and writes ``distance`` and the
    pair indices from K.  S is freed before the replay and ``stderr``.
    """
    if realizations < 100:
        raise ValueError("need at least 100 realizations")
    r, gen, m = realizations, rng.generator, fs.m
    start = gen.bit_generator.state
    s = _gram_moments(fs, r, gen)
    ds = s.diagonal()
    eps = np.finfo(float).eps
    est, dist = np.empty(m * (m - 1) // 2), np.empty(m * (m - 1) // 2)
    pair_i, pair_j = np.empty(len(est), dtype=np.int32), np.empty(len(est), dtype=np.int32)
    k, dk = fs.K, fs.K.diagonal()  # d_ij = K_ii + K_jj - 2 K_ij, exact from the kernel definition
    flagged = [np.empty(0, dtype=np.intp)]  # one array to concatenate when x0 alone has no pairs
    for first, i, j in _pair_blocks(m):
        block = slice(first, first + len(i))
        s_ij = s[i, j]
        sq = ds[i] + ds[j] - 2.0 * s_ij
        est[block] = sq / r
        unsafe = eps * (ds[i] + ds[j] + 2.0 * np.abs(s_ij)) > _CANCELLATION_TOL * sq
        flagged.append(first + np.flatnonzero(unsafe))
        dist[block] = dk[i] + dk[j] - 2.0 * k[i, j]
        pair_i[block], pair_j[block] = i, j
    del s, ds
    unsafe = np.concatenate(flagged)
    if unsafe.size:
        rows, at = np.unique(np.concatenate((pair_i[unsafe], pair_j[unsafe])), return_inverse=True)
        held = np.empty((len(rows), r))
        end, gen.bit_generator.state = gen.bit_generator.state, start
        try:
            for a, v in _coloured_blocks(fs, r, gen):
                held[:, a:a + v.shape[1]] = v[rows]
        finally:
            gen.bit_generator.state = end
        for p, a, b in zip(unsafe, at[:unsafe.size], at[unsafe.size:]):
            est[p] = ((held[a] - held[b]) ** 2).mean()
    return Table(VariogramRow, pair_i, pair_j, dist, est, np.sqrt(2.0 / r) * est)
