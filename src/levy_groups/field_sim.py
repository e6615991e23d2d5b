"""Gaussian field with the Brownian kernel as covariance, on SU(2).

The field is centered, pinned to zero at the base point x0, and has
E|X_x - X_y|^2 = d(x, y).  Its covariance is the Brownian kernel, which
is positive definite on SU(2); the same pipeline fed SO(3) points is a
diagnostic and fails the Cholesky stage for most configurations.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .group_core import pairwise_distance_matrix
from .rng import RngStream

DEFAULT_JITTER = 1e-10
_JITTER_DECADES = 3  # escalate x10 this many times before failing
_CANCELLATION_TOL = 1e-10  # largest variogram rounding bound accepted, relative to the value
_GRAM_BLOCK = 1024  # realizations per block of the variogram's Gram products

# points closer than this to x0 are treated as the base point itself
_COINCIDENCE_TOL = 1e-12


class KernelNotPSDError(RuntimeError):
    """Cholesky failed after jitter escalation: kernel not PSD."""


@dataclass(frozen=True)
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
    prepended.  The x0 row/column is pinned to exactly zero and the trailing
    block Cholesky-factored with additive jitter escalating by decades;
    exhausting the ladder raises :class:`KernelNotPSDError`.
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
    d = pairwise_distance_matrix(group, pts)
    m = len(pts)
    k = 0.5 * (d[0][:, None] + d[0][None, :] - d)
    k = 0.5 * (k + k.T)
    k[0, :] = 0.0
    k[:, 0] = 0.0

    chol = np.zeros((m, m))
    jit = 0.0
    if m > 1:
        block = k[1:, 1:]
        max_diag = float(block.diagonal().max())
        ladder = [jitter * 10.0 ** e for e in range(_JITTER_DECADES + 1)]
        for jit in ladder:
            try:
                chol[1:, 1:] = np.linalg.cholesky(block + jit * max_diag * np.eye(m - 1))
                break
            except np.linalg.LinAlgError:
                continue
        else:
            raise KernelNotPSDError(
                f"kernel not PSD: Cholesky failed up to jitter {ladder[-1]:g}"
            )
    return FieldSample(points=pts, K=k, chol=chol, jitter_used=jit)


def sample_field(fs: FieldSample, realizations: int, rng: RngStream) -> FieldSample:
    """Draw independent realizations; returns a new FieldSample with
    ``values`` of shape (m, realizations), one column per realization."""
    if realizations < 1:
        raise ValueError("realizations must be >= 1")
    vals = np.zeros((fs.m, realizations))
    z = rng.generator.standard_normal((fs.m - 1, realizations))
    np.matmul(fs.chol[1:, 1:], z, out=vals[1:])
    return replace(fs, values=vals)


class VariogramRow(NamedTuple):
    pair_i: int
    pair_j: int
    distance: float
    estimate: float
    stderr: float


def empirical_variogram(
    fs: FieldSample,
    pairs: Sequence[tuple[int, int]] | None = None,
) -> list[VariogramRow]:
    """Per-pair estimates of E|X_i - X_j|^2 with standard errors.

    Defaults to all unordered pairs i < j.  Needs >= 100 realizations.
    With S = V V^T, Q = V^2 (V^2)^T and T = V^3 V^T of the values V, the
    sums of (V_i - V_j)^2 and of its square over the realizations are
    S_ii + S_jj - 2 S_ij and Q_ii + Q_jj - 4 (T_ij + T_ji) + 6 Q_ij.  Both
    cancel when V_i is close to V_j; eps times the sum of the absolute terms
    bounds the rounding (Chan, Golub & LeVeque 1983), and a pair whose bound
    exceeds ``_CANCELLATION_TOL`` of either value is recomputed directly.
    """
    if fs.values is None:
        raise ValueError("sample the field first")
    v = fs.values
    r = v.shape[1]
    if r < 100:
        raise ValueError("need at least 100 realizations")
    if pairs is None:
        i, j = np.triu_indices(fs.m, 1)
    else:
        i, j = np.asarray(pairs, dtype=np.intp).reshape(-1, 2).T
    s, q, t = np.zeros((3, fs.m, fs.m))
    for c in range(0, r, _GRAM_BLOCK):  # scratch memory O(m * block)
        b = v[:, c:c + _GRAM_BLOCK]
        b2 = b * b
        s += b @ b.T
        q += b2 @ b2.T
        t += (b2 * b) @ b.T
    sq = s[i, i] + s[j, j] - 2.0 * s[i, j]
    num = q[i, i] + q[j, j] - 4.0 * (t[i, j] + t[j, i]) + 6.0 * q[i, j] - sq * sq / r
    eps = np.finfo(float).eps
    sq_err = eps * (s[i, i] + s[j, j] + 2.0 * np.abs(s[i, j]))
    num_err = eps * (q[i, i] + q[j, j] + 4.0 * (np.abs(t[i, j]) + np.abs(t[j, i]))
                     + 6.0 * q[i, j] + (sq + 2.0 * sq_err) * sq / r)
    unsafe = (sq_err > _CANCELLATION_TOL * sq) | (num_err > _CANCELLATION_TOL * num)
    est, se = sq / r, np.sqrt(np.where(unsafe, 0.0, num) / (r - 1)) / np.sqrt(r)
    for p in np.flatnonzero(unsafe):
        d = (v[i[p]] - v[j[p]]) ** 2
        est[p], se[p] = d.mean(), d.std(ddof=1) / np.sqrt(r)
    k = fs.K  # d_ij = K_ii + K_jj - 2 K_ij, exact from the kernel definition
    dist = k[i, i] + k[j, j] - 2.0 * k[i, j]
    return list(map(VariogramRow, i.tolist(), j.tolist(), dist.tolist(),
                    est.tolist(), se.tolist()))
