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

import ctypes
import functools
import glob
import json
import os
import threading
from dataclasses import dataclass, field, replace

import numpy as np

from . import canonical, group_core
from .group_core import (SO3, SU2, SOnGroup, check_rotations, embed_so3, group_named,
                         pairwise_distance_matrix)
from .rng import KEY_LIMIT, RngStream

RELATIVE_EIG_TOL = 1e-8
DEFAULT_MARGIN = 1e-6
CERTIFICATE_SCHEMA_VERSION = "1"


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
    s = 1 + m max|d| > ||D||_2, that _center adds to every entry.

    The shift is finite exactly when d is: s is inf or nan otherwise."""
    m, r = len(d), d.mean(axis=0)
    s = 1.0 + m * max(float(d.max()), -float(d.min()))
    return r, r.mean() - s / m


def _center(block: np.ndarray, ri: np.ndarray, rj: np.ndarray, shift: float) -> np.ndarray:
    """Overwrite the block of d at rows i and columns j with d - (r_i + r_j) + shift."""
    block -= np.add.outer(ri, rj)
    block += shift
    return block


def _block_rows(m: int) -> int:
    """Rows per block of the centering: about group_core._BLOCK_FLOATS floats, or one row."""
    return max(1, group_core._BLOCK_FLOATS // m)


def _centered(d: np.ndarray) -> np.ndarray:
    """Overwrite d with J D J - (s/m) 1 1^T, for J = I - 1 1^T/m and
    s = 1 + m max|d| > ||D||_2, and return it: its lowest eigenvalue is -s, on
    the constants; the rest are D's on sum-zero weights.

    Works in blocks of rows, each entry rounding as d - (r_i + r_j) + shift."""
    r, shift = _centering(d)
    step = _block_rows(len(d))
    for i in range(0, len(d), step):
        _center(d[i:i + step], r[i:i + step], r, shift)
    return d


def _pack_kernel_and_centered(buf: np.ndarray, d0: np.ndarray) -> None:
    """Overwrite the (m, m + 1) buf, whose buf[:, 1:] holds D, with K's lower
    triangle in buf[:, :m] and the centered D's upper triangle in buf[:, 1:],
    diagonals included; raise ValueError if D or d0 is not finite.

    Blocks of rows run from the last to the first.  K left of a block's
    diagonal square is read from D's upper triangle in the rows above, which
    no block has overwritten yet (D is bitwise symmetric); K on the square is
    formed before the block's D is centered where it lies.  Each entry rounds
    as 0.5 * (d0_i + d0_j - d_ij) and as _centered's."""
    m = len(buf)
    d = buf[:, 1:]
    r, shift = _centering(d)
    if not (np.isfinite(shift) and np.isfinite(d0).all()):
        raise ValueError("non-finite distance encountered")
    step = _block_rows(m)
    for i in reversed(range(0, m, step)):
        j = min(i + step, m)
        k = np.add.outer(d0[i:j], d0[:i], out=buf[i:j, :i])
        k -= d[:i, i:j].T
        k *= 0.5
        k = np.add.outer(d0[i:j], d0[i:j])
        k -= d[i:j, i:j]
        k *= 0.5
        _center(d[i:j, i:], r[i:j], r[i:], shift)
        np.copyto(buf[i:j, i:j], k, where=np.tri(j - i, dtype=bool))


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


@functools.cache
def _lapacke_dsyevd():
    """LAPACKE_dsyevd of the OpenBLAS bundled with numpy (64-bit integers), or
    None where numpy ships no such library."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "libscipy_openblas64_*.so")):
        try:
            dsyevd = ctypes.CDLL(path).scipy_LAPACKE_dsyevd64_
        except (OSError, AttributeError):
            continue
        dsyevd.restype = ctypes.c_int64
        dsyevd.argtypes = (ctypes.c_int, ctypes.c_char, ctypes.c_char, ctypes.c_int64,
                           ctypes.c_void_p, ctypes.c_int64, ctypes.c_void_p)
        return dsyevd
    return None


def _packed_eigvalsh(buf: np.ndarray, part: str) -> np.ndarray:
    """Ascending eigenvalues of K (part "K") or of the centered D ("centered D")
    from their triangles in the packed, C-contiguous (m, m + 1) buf (see
    _pack_kernel_and_centered).

    LAPACK's dsyevd reads buf column-major with leading dimension m + 1: K is
    the upper triangle of the matrix at buf[0, 0], the centered D the lower
    one of the matrix at buf[0, 1].  It overwrites that triangle and nothing
    else, so the two solves may run at once.  Without LAPACKE, eigvalsh reads
    the same numbers, in the same order, from copies."""
    m, kernel = len(buf), part == "K"
    if buf.dtype != np.float64 or buf.shape != (m, m + 1) or not buf.flags.c_contiguous:
        raise ValueError(f"need a C-contiguous float64 (m, m + 1) buffer, got {buf.dtype} "
                         f"{buf.shape}")
    dsyevd = _lapacke_dsyevd()
    if dsyevd is None:
        return (np.linalg.eigvalsh(buf[:, :m].T, UPLO="U") if kernel
                else np.linalg.eigvalsh(buf[:, 1:].T))
    eigs = np.empty(m)  # held until LAPACK has written it
    info = dsyevd(102, b"N", b"U" if kernel else b"L", m,  # 102: column-major
                  buf.ctypes.data + (0 if kernel else buf.itemsize), m + 1, eigs.ctypes.data)
    if info:
        raise np.linalg.LinAlgError(f"eigenvalue solve of {part} failed: LAPACKE dsyevd info {info}")
    return eigs


def _solve_pair(buf: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The spectra of K and of the centered D in buf, each solved in place:
    K on a worker thread while this thread solves the centered D when
    _solve_workers() allows two (LAPACK runs without the GIL), else in turn.

    An exception from the worker is raised here, after the worker has ended."""
    if _solve_workers() < 2:
        return _packed_eigvalsh(buf, "K"), _packed_eigvalsh(buf, "centered D")
    out = []

    def solve_kernel():
        try:
            out.append(_packed_eigvalsh(buf, "K"))
        except BaseException as exc:  # handed to the calling thread
            out.append(exc)

    worker = threading.Thread(target=solve_kernel, name="gram_audit-eigvalsh")
    worker.start()
    try:
        c_eigs = _packed_eigvalsh(buf, "centered D")
    finally:
        worker.join()
    if isinstance(out[0], BaseException):
        raise out[0]
    return out[0], c_eigs


@dataclass(frozen=True, eq=False)  # array fields: identity equality and hash
class GramAudit:
    """Eigenvalue evidence for one point configuration.

    ``max_centered_eig`` is the largest eigenvalue of the distance matrix
    restricted to the sum-zero subspace; positive means the distance is
    not restricted negative definite there.  ``min_K_eig`` is the smallest
    eigenvalue of the Brownian-kernel matrix ``K`` of the points for base
    point x0.
    """

    group: object
    points: np.ndarray = field(repr=False)
    x0: np.ndarray = field(repr=False)
    max_centered_eig: float
    min_K_eig: float
    centered_eig_scale: float
    K_eig_scale: float

    @property
    def K(self) -> np.ndarray:
        """The kernel matrix 0.5 (d0_i + d0_j - d_ij), recomputed from the points on each read."""
        d0 = self.group.distances(self.points, self.x0)
        return 0.5 * (d0[:, None] + d0 - pairwise_distance_matrix(self.group, self.points))

    def is_positive_semidefinite(self, tol_rel: float = RELATIVE_EIG_TOL) -> bool:
        return self.min_K_eig >= -tol_rel * max(self.K_eig_scale, 1.0)

    def is_restricted_negative(self, tol_rel: float = RELATIVE_EIG_TOL) -> bool:
        return self.max_centered_eig <= tol_rel * max(self.centered_eig_scale, 1.0)


def gram_audit(group, x: np.ndarray, x0=None) -> GramAudit:
    """Eigenvalues of the kernel matrix of the rows of x and of their distance
    matrix on sum-zero weights, the decisive ones kept.

    x0 defaults to the group identity.  Both matrices live in one (m, m + 1)
    buffer: the distances are written into it, packed and solved in place.
    Raises on non-finite distances.
    """
    if len(x) < 2:
        raise ValueError("need at least 2 points")
    m = len(x)
    x0 = group.identity if x0 is None else x0
    buf = np.empty((m, m + 1))
    pairwise_distance_matrix(group, x, out=buf[:, 1:])
    _pack_kernel_and_centered(buf, group.distances(x, x0))
    k_eigs, c_eigs = _solve_pair(buf)
    c_eigs = c_eigs[1:]
    return GramAudit(
        group=group, points=x, x0=x0,
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
