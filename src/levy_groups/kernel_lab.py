"""Brownian kernels, definiteness audits and counterexample certificates.

The Brownian kernel of a metric d with base point x0 is

    K(x, y) = (d(x, x0) + d(y, x0) - d(x, y)) / 2.

K is positive definite exactly when d is a restricted negative definite
kernel (quadratic form <= 0 over weights summing to zero).  On finite
point sets both sides reduce to eigenvalue tests: the smallest eigenvalue
of K, and the largest eigenvalue of the distance matrix compressed onto
the sum-zero subspace.  A witness certificate is a point set and sum-zero
weight vector whose quadratic form is strictly positive, certifying that
the distance is not restricted negative definite.
"""

from __future__ import annotations

import json
import os
import threading
from dataclasses import dataclass, field, replace

import numpy as np

from . import canonical
from .group_core import (SO3, SU2, SOnGroup, check_rotations, embed_so3, group_named,
                         pairwise_distance_matrix)
from .rng import KEY_LIMIT, RngStream

RELATIVE_EIG_TOL = 1e-8
DEFAULT_MARGIN = 1e-6
CERTIFICATE_SCHEMA_VERSION = "1"
_CENTER_ROWS = 128  # rows per block of _centered and _pack_kernel_and_centered


class WitnessNotFoundError(RuntimeError):
    """No positive quadratic form found; the metric may be positive
    definite on this group, or the point count too small."""


def sum_zero_basis(m: int) -> np.ndarray:
    """Orthonormal (m, m-1) basis of the sum-zero subspace (Helmert)."""
    b = np.zeros((m, m - 1))
    for k in range(1, m):
        c = 1.0 / np.sqrt(k * (k + 1.0))
        b[:k, k - 1] = c
        b[k, k - 1] = -k * c
    return b


def _centering(d: np.ndarray) -> tuple[np.ndarray, float]:
    """The column means r of d and the shift r.mean() - s/m, for
    s = 1 + m max|d| > ||D||_2, that _center_rows adds to every entry."""
    m, r = len(d), d.mean(axis=0)
    s = 1.0 + m * max(float(d.max()), -float(d.min()))
    return r, r.mean() - s / m


def _center_rows(rows: np.ndarray, i: int, r: np.ndarray, shift: float) -> np.ndarray:
    """Overwrite rows i, i+1, ... of d with d - (r_i + r_j) + shift; return them."""
    rows -= np.add.outer(r[i:i + len(rows)], r)
    rows += shift
    return rows


def _centered(d: np.ndarray) -> np.ndarray:
    """Overwrite d with J D J - (s/m) 1 1^T, for J = I - 1 1^T/m and
    s = 1 + m max|d| > ||D||_2, and return it: its lowest eigenvalue is -s, on
    the constants; the rest are D's on sum-zero weights.

    Works in blocks of rows, each entry rounding as d - (r_i + r_j) + shift."""
    r, shift = _centering(d)
    for i in range(0, len(d), _CENTER_ROWS):
        _center_rows(d[i:i + _CENTER_ROWS], i, r, shift)
    return d


def _pack_kernel_and_centered(buf: np.ndarray, d: np.ndarray, d0: np.ndarray) -> None:
    """Fill the (m, m + 1) buf with K's lower triangle in buf[:, :m] and the
    centered D's upper triangle in buf[:, 1:], diagonals included.

    The two triangles do not overlap, and eigvalsh(buf[:, :m]) and
    eigvalsh(buf[:, 1:].T) read only lower triangles, so each solve sees the
    numbers it would read from K and from _centered(d).  d is overwritten."""
    m = len(d)
    r, shift = _centering(d)
    for i in range(0, m, _CENTER_ROWS):
        block = slice(i, i + _CENTER_ROWS)
        rows = d[block]
        above = np.arange(m) - np.arange(m)[block, None]  # j - i of each entry
        np.copyto(buf[block, :m], 0.5 * (d0[block, None] + d0 - rows), where=above <= 0)
        np.copyto(buf[block, 1:], _center_rows(rows, i, r, shift), where=above >= 0)


def _solve_workers() -> int:
    """2 when gram_audit may solve its two spectra at once, else 1.

    Two concurrent solves pay only when each keeps one core to itself: the
    process may run on at least two CPUs, and the environment pins numpy's
    OpenBLAS to one thread (OPENBLAS_NUM_THREADS, else OMP_NUM_THREADS, is
    1).  With BLAS threads free, the solves already share the cores, and
    running two at once was slower than in turn.
    """
    env = os.environ
    pinned = (env.get("OPENBLAS_NUM_THREADS") or env.get("OMP_NUM_THREADS")) == "1"
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    return 2 if pinned and cpus >= 2 else 1


def _eigvalsh_pair(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """eigvalsh of a and of b: a on a worker thread while this thread solves b
    when _solve_workers() allows two (LAPACK runs without the GIL), else in turn.

    An exception from the worker is raised here, after the worker has ended."""
    if _solve_workers() < 2:
        return np.linalg.eigvalsh(a), np.linalg.eigvalsh(b)
    out = []

    def solve_a():
        try:
            out.append(np.linalg.eigvalsh(a))
        except BaseException as exc:  # handed to the calling thread
            out.append(exc)

    worker = threading.Thread(target=solve_a, name="gram_audit-eigvalsh")
    worker.start()
    try:
        b_eigs = np.linalg.eigvalsh(b)
    finally:
        worker.join()
    if isinstance(out[0], BaseException):
        raise out[0]
    return out[0], b_eigs


@dataclass(frozen=True, eq=False)  # array fields: identity equality and hash
class GramAudit:
    """Eigenvalue evidence for one point configuration.

    ``max_centered_eig`` is the largest eigenvalue of the distance matrix
    restricted to the sum-zero subspace; positive means the distance is
    not restricted negative definite there.  ``min_K_eig`` is the smallest
    eigenvalue of the Brownian-kernel matrix ``K`` for base point x0.
    """

    packed: np.ndarray = field(repr=False)  # see _pack_kernel_and_centered
    max_centered_eig: float
    min_K_eig: float
    centered_eig_scale: float
    K_eig_scale: float

    @property
    def K(self) -> np.ndarray:
        """The kernel matrix, rebuilt symmetric from ``packed`` on each read."""
        k = self.packed[:, :-1]
        return np.where(np.tri(len(k), dtype=bool), k, k.T)

    def is_positive_semidefinite(self, tol_rel: float = RELATIVE_EIG_TOL) -> bool:
        return self.min_K_eig >= -tol_rel * max(self.K_eig_scale, 1.0)

    def is_restricted_negative(self, tol_rel: float = RELATIVE_EIG_TOL) -> bool:
        return self.max_centered_eig <= tol_rel * max(self.centered_eig_scale, 1.0)


def gram_audit(group, x: np.ndarray, x0=None) -> GramAudit:
    """Kernel matrix of the rows of x with the decisive eigenvalues of it and
    of the distance matrix on sum-zero weights.

    x0 defaults to the group identity.  Raises on non-finite distances.
    """
    if len(x) < 2:
        raise ValueError("need at least 2 points")
    m = len(x)
    # allocated before D: allocated after it, a second m = 2,000 call in one
    # process peaked about 25 MB higher, placed among the holes D's temporaries left
    buf = np.empty((m, m + 1))
    d = pairwise_distance_matrix(group, x)
    d0 = group.distances(x, group.identity if x0 is None else x0)
    if not (np.isfinite(d).all() and np.isfinite(d0).all()):
        raise ValueError("non-finite distance encountered")
    _pack_kernel_and_centered(buf, d, d0)
    del d  # at the solves: buf and the solvers' copies of K and the centered D
    k_eigs, c_eigs = _eigvalsh_pair(buf[:, :m], buf[:, 1:].T)
    c_eigs = c_eigs[1:]
    return GramAudit(
        packed=buf,
        max_centered_eig=float(c_eigs[-1]),
        min_K_eig=float(k_eigs[0]),
        centered_eig_scale=float(np.abs(c_eigs).max()),
        K_eig_scale=float(np.abs(k_eigs).max()),
    )


# ---------------------------------------------------------------------------
# Witness certificates
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)  # array fields: identity equality and hash
class WitnessCertificate:
    """Self-verifying evidence that a distance is not restricted negative
    definite: sum-zero weights with a strictly positive quadratic form."""

    group: SOnGroup  # SO3, or SO(n) with n > 3
    points: np.ndarray  # (m, n, n)
    weights: np.ndarray
    value: float
    seed: int
    stream: int
    method: str = "eigenvector"
    scale: float = 1.0
    tool_version: str = "0.1.0"

    def quadratic_form(self, scale: float | None = None) -> float:
        """Recompute sum_ij w_i w_j d(g_i, g_j) from the stored data."""
        s = self.scale if scale is None else scale
        d = pairwise_distance_matrix(self.group, self.points, scale=s)
        return float(self.weights @ d @ self.weights)

    def verify(self, tol: float = 1e-10, weight_tol: float = 1e-12) -> bool:
        if abs(float(np.sum(self.weights))) > weight_tol:
            return False
        return abs(self.quadratic_form() - self.value) <= tol

    def to_doc(self) -> dict:
        """The certificate as a canonical-JSON-ready document."""
        return {
            "schema_version": CERTIFICATE_SCHEMA_VERSION,
            "kind": "witness",
            "group": self.group.name,
            "n": getattr(self.group, "n", None),
            "m": len(self.points),
            "points": self.points.reshape(len(self.points), -1).tolist(),
            "weights": [float(w) for w in self.weights],
            "value": float(self.value),
            "seed": {"seed": self.seed, "stream": self.stream},
            "method": self.method,
            "scale": float(self.scale),
            "tool_version": self.tool_version,
        }

    def to_json(self) -> str:
        return canonical.dumps(self.to_doc())

    @classmethod
    def from_json(cls, text: str) -> "WitnessCertificate":
        """Parse a certificate; raises ValueError naming the first bad field."""
        doc = json.loads(text)
        missing = [k for k in ("schema_version", "kind", "group", "n", "m", "points", "weights",
                               "value", "seed", "method", "scale", "tool_version")
                   if not isinstance(doc, dict) or k not in doc]
        if missing:
            raise ValueError(f"certificate is missing {', '.join(missing)}")
        for key, allowed in (("schema_version", (CERTIFICATE_SCHEMA_VERSION,)),
                             ("kind", ("witness",)), ("method", ("eigenvector", "transfer"))):
            if doc[key] not in allowed:
                raise ValueError(f"certificate {key} must be {' or '.join(map(repr, allowed))}, "
                                 f"got {doc[key]!r}")
        if not isinstance(doc["tool_version"], str):
            raise ValueError("certificate tool_version must be a string")
        n, m, group, seed = doc["n"], doc["m"], doc["group"], doc["seed"]
        if not (_json_isinstance(n, int) and _json_isinstance(m, int)):
            raise ValueError("certificate n and m must be integers")
        if not (group == "so3" and n == 3 or group == "son" and n > 3):
            raise ValueError(f"certificate group {group!r} does not match n = {n} "
                             "(so3 needs n = 3, son needs n > 3)")
        if not (isinstance(seed, dict) and all(
                _json_isinstance(seed.get(k), int) and 0 <= seed[k] < KEY_LIMIT
                for k in ("seed", "stream"))):
            raise ValueError('certificate seed must be {"seed": integer, "stream": integer}, '
                             'each in [0, 2^64)')
        points = _finite(doc, "points", (m, n * n), f"m = {m} rows of n^2 = {n * n} numbers")
        weights = _finite(doc, "weights", (m,), f"m = {m} numbers")
        value = float(_finite(doc, "value", (), "a number"))
        scale = float(_finite(doc, "scale", (), "a number"))
        if not scale > 0.0:
            raise ValueError(f"certificate scale must be positive, got {scale!r}")
        try:
            points = check_rotations(points.reshape(m, n, n))
        except ValueError as exc:  # not orthogonal, or det -1
            raise ValueError(f"certificate points: {exc}") from None
        return cls(group=group_named(group, n), points=points, weights=weights, value=value,
                   seed=seed["seed"], stream=seed["stream"], method=doc["method"],
                   scale=scale, tool_version=doc["tool_version"])


def _json_isinstance(x, types) -> bool:
    """isinstance for parsed JSON, where true and false are not numbers."""
    return isinstance(x, types) and not isinstance(x, bool)


def _numbers(x, depth: int) -> bool:
    """x is a JSON number, or a list nesting numbers ``depth`` deep."""
    if depth == 0:
        return _json_isinstance(x, (int, float))
    return isinstance(x, list) and all(_numbers(v, depth - 1) for v in x)


def _finite(doc: dict, key: str, shape: tuple, kind: str) -> np.ndarray:
    """doc[key] as a finite float array of ``shape``, else ValueError naming key."""
    a = None
    if _numbers(doc[key], len(shape)):  # strings and booleans are not numbers
        try:
            a = np.asarray(doc[key], dtype=float)
        except (ValueError, OverflowError):  # rows of unequal length, or huge integers
            pass
    if a is None or a.shape != shape:
        raise ValueError(f"certificate {key} must be {kind}")
    if not np.isfinite(a).all():
        raise ValueError(f"certificate {key} has non-finite entries")
    return a


def _centered_unit(w: np.ndarray) -> np.ndarray:
    w = w - w.mean()
    return w / np.linalg.norm(w)


def find_witness(
    group,
    m: int,
    trials: int,
    rng: RngStream,
    margin: float = DEFAULT_MARGIN,
) -> WitnessCertificate:
    """Randomized search for a positive quadratic form over sum-zero weights.

    Per trial: m Haar points, top eigenpair of the distance matrix on the
    sum-zero subspace; accepted when the eigenvalue clears ``margin``.
    ``group`` is the descriptor ``SO3``, ``group_named("son", n)`` with
    n > 3, or ``SU2``.  For SO(n) the points are Haar draws of the embedded
    SO(3) subgroup, which is where the defect provably lives; the
    certificate is stated in SO(n).

    First trial to succeed wins; raises WitnessNotFoundError otherwise.
    On SU2 the same search is expected to fail: the SU(2) distance is
    restricted negative definite.
    """
    if m < 4:
        raise ValueError("m must be >= 4")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    sampled = SU2 if group is SU2 else SO3
    if group is not sampled and not (isinstance(group, SOnGroup) and group.n > 3):
        raise ValueError(f"no witness search on {group!r}: use SU2, SO3 or SO(n) with n > 3")

    for trial in range(trials):
        x = sampled.sample(rng, m)
        d = sampled.pairwise(x)
        eigvals, eigvecs = np.linalg.eigh(_centered(d.copy()))
        weights = _centered_unit(eigvecs[:, -1])
        del eigvecs
        value = float(weights @ d @ weights)
        if not (eigvals[-1] > margin and value > margin):
            # drop the failed trial's arrays before the next one samples, so
            # a search of many trials peaks no higher than a search of one
            del x, d, eigvals, weights
            continue
        cert = WitnessCertificate(
            group=sampled, points=x,
            weights=weights, value=value, seed=rng.seed, stream=rng.stream_id,
        )
        return cert if group is sampled else transfer_witness(cert, group.n)
    raise WitnessNotFoundError(
        f"no witness in {trials} trial(s) with m={m}: the metric may be "
        "positive definite on this group, or m too small"
    )


def transfer_witness(cert: WitnessCertificate, n: int, scale: float = 1.0) -> WitnessCertificate:
    """Carry an SO(3) certificate into SO(n), n > 3.

    Points are embedded block-diagonally, weights kept.  The embedding is an
    isometry (``embed_so3``), so the quadratic form is stated from the SO(3)
    distances (times ``scale``), without factorizing a single SO(n) pair; at
    scale 1 it is the certificate's value bit for bit.  ``verify`` on the
    result recomputes it in SO(n), from the principal angles.
    """
    if cert.group is not SO3:
        raise ValueError("transfer requires an SO(3) certificate")
    if n <= 3:
        raise ValueError("target size must exceed 3")
    d = pairwise_distance_matrix(SO3, cert.points, scale=scale)
    value = float(cert.weights @ d @ cert.weights)
    return replace(cert, group=SOnGroup(n), points=embed_so3(cert.points, n), value=value,
                   method="transfer", scale=scale)
