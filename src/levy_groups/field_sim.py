"""Gaussian field with the Brownian kernel as covariance, on SU(2).

The field is centered, pinned to zero at the base point x0, and has
E|X_x - X_y|^2 = d(x, y).  Its covariance is the Brownian kernel, which
is positive definite on SU(2); the same pipeline fed SO(3) points is a
diagnostic and fails the Cholesky stage for most configurations.
"""

from __future__ import annotations

import csv
import struct
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .canonical import format_float
from .group_core import distances_to, pairwise_distance_matrix
from .rng import RngStream

VALUES_MAGIC = b"LVYFLD01"
DEFAULT_JITTER = 1e-10
_JITTER_DECADES = 3  # escalate x10 this many times before failing

# points closer than this to x0 are treated as the base point itself
_COINCIDENCE_TOL = 1e-12


class KernelNotPSDError(RuntimeError):
    """Cholesky failed after jitter escalation: kernel not PSD."""


@dataclass(frozen=True)
class FieldSample:
    """Kernel matrix, factorization and (optionally) sampled values.

    The base point is points[0]; its kernel row/column and every sampled
    value there are exactly zero.  ``values`` holds one column per
    realization.
    """

    points: tuple
    K: np.ndarray
    chol: np.ndarray
    jitter_used: float
    values: Optional[np.ndarray] = None

    @property
    def m(self) -> int:
        return len(self.points)

    def distance(self, i: int, j: int) -> float:
        # d_ij = K_ii + K_jj - 2 K_ij, exact from the kernel definition
        return float(self.K[i, i] + self.K[j, j] - 2.0 * self.K[i, j])


def build_field(
    points: Sequence,
    x0=None,
    jitter: float = DEFAULT_JITTER,
    metric: Callable | None = None,
) -> FieldSample:
    """Assemble and factor the Brownian-kernel matrix of a point set.

    x0 defaults to the group identity and is moved or prepended to the
    front.  The x0 row/column is pinned to exactly zero and the trailing
    block Cholesky-factored with additive jitter escalating by decades;
    exhausting the ladder raises :class:`KernelNotPSDError`.
    """
    if jitter <= 0.0:
        raise ValueError("jitter must be positive")
    pts = list(points)
    if not pts:
        raise ValueError("need at least one point")
    d_to_x0, x0 = distances_to(pts, x0, metric)
    hit = np.flatnonzero(d_to_x0 <= _COINCIDENCE_TOL)
    if hit.size:
        pts.insert(0, pts.pop(hit[0]))
    else:
        pts.insert(0, x0)
    d = pairwise_distance_matrix(pts, metric)
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
    return FieldSample(points=tuple(pts), K=k, chol=chol, jitter_used=jit)


def sample_field(fs: FieldSample, realizations: int, rng: RngStream) -> FieldSample:
    """Draw independent realizations; returns a new FieldSample with
    ``values`` of shape (m, realizations), one column per realization."""
    if realizations < 1:
        raise ValueError("realizations must be >= 1")
    m = fs.m
    vals = np.zeros((m, realizations))
    if m > 1:
        z = rng.generator.standard_normal((m - 1, realizations))
        vals[1:, :] = fs.chol[1:, 1:] @ z
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
    """
    if fs.values is None:
        raise ValueError("sample the field first")
    r = fs.values.shape[1]
    if r < 100:
        raise ValueError("need at least 100 realizations")
    if pairs is None:
        m = fs.m
        pairs = [(i, j) for i in range(m) for j in range(i + 1, m)]
    rows = []
    for i, j in pairs:
        sq = (fs.values[i] - fs.values[j]) ** 2
        est = float(sq.mean())
        se = float(sq.std(ddof=1) / np.sqrt(r))
        rows.append(VariogramRow(i, j, fs.distance(i, j), est, se))
    return rows


# ---------------------------------------------------------------------------
# Emitters
# ---------------------------------------------------------------------------

def write_values_csv(fs: FieldSample, fh, max_columns: int = 100) -> None:
    """Field values, one column per realization, capped at ``max_columns``."""
    if fs.values is None:
        raise ValueError("sample the field first")
    r = min(fs.values.shape[1], max_columns)
    w = csv.writer(fh, lineterminator="\n")
    w.writerow(["point"] + [f"r{k}" for k in range(r)])
    for i in range(fs.m):
        w.writerow([i] + [format_float(v) for v in fs.values[i, :r]])


def write_values_binary(fs: FieldSample, fh) -> None:
    """Binary matrix: magic 'LVYFLD01', little-endian uint64 (m, R), then
    m*R float64 in column-major (realization-major) order."""
    if fs.values is None:
        raise ValueError("sample the field first")
    m, r = fs.values.shape
    fh.write(VALUES_MAGIC)
    fh.write(struct.pack("<QQ", m, r))
    fh.write(fs.values.astype("<f8").tobytes(order="F"))


def read_values_binary(fh) -> np.ndarray:
    magic = fh.read(8)
    if magic != VALUES_MAGIC:
        raise ValueError(f"bad magic {magic!r}")
    m, r = struct.unpack("<QQ", fh.read(16))
    data = np.frombuffer(fh.read(8 * m * r), dtype="<f8")
    if data.size != m * r:
        raise ValueError("truncated value matrix")
    return data.reshape((m, r), order="F").copy()
