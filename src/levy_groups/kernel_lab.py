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
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from . import canonical
from .group_core import (
    SO3,
    SU2,
    SOnElement,
    distances_to,
    embed_so3,
    group_of,
    pairwise_distance_matrix,
)
from .rng import RngStream

RELATIVE_EIG_TOL = 1e-8
DEFAULT_MARGIN = 1e-6
CERTIFICATE_SCHEMA_VERSION = "1"


class WitnessNotFoundError(RuntimeError):
    """No positive quadratic form found; the metric may be positive
    definite on this group, or the point count too small."""


def brownian_kernel(metric: Callable, x, y, x0) -> float:
    """K(x, y) = (d(x,x0) + d(y,x0) - d(x,y)) / 2."""
    return 0.5 * (metric(x, x0) + metric(y, x0) - metric(x, y))


def sum_zero_basis(m: int) -> np.ndarray:
    """Orthonormal (m, m-1) basis of the sum-zero subspace (Helmert)."""
    b = np.zeros((m, m - 1))
    for k in range(1, m):
        c = 1.0 / np.sqrt(k * (k + 1.0))
        b[:k, k - 1] = c
        b[k, k - 1] = -k * c
    return b


@dataclass(frozen=True)
class GramAudit:
    """Eigenvalue evidence for one point configuration.

    ``max_centered_eig`` is the largest eigenvalue of the distance matrix
    restricted to the sum-zero subspace; positive means the distance is
    not restricted negative definite there.  ``min_K_eig`` is the smallest
    eigenvalue of the Brownian-kernel matrix for base point x0.
    """

    points: tuple
    x0: object
    D: np.ndarray
    K: np.ndarray
    max_centered_eig: float
    min_K_eig: float
    centered_eig_scale: float
    K_eig_scale: float

    def is_positive_semidefinite(self, tol_rel: float = RELATIVE_EIG_TOL) -> bool:
        return self.min_K_eig >= -tol_rel * max(self.K_eig_scale, 1.0)

    def is_restricted_negative(self, tol_rel: float = RELATIVE_EIG_TOL) -> bool:
        return self.max_centered_eig <= tol_rel * max(self.centered_eig_scale, 1.0)


def gram_audit(points: Sequence, metric: Callable | None = None, x0=None) -> GramAudit:
    """Distance and kernel matrices with their decisive eigenvalues.

    x0 defaults to the group identity.  Raises on non-finite distances.
    """
    if len(points) < 2:
        raise ValueError("need at least 2 points")
    d = pairwise_distance_matrix(points, metric)
    d0, x0 = distances_to(points, x0, metric)
    if not (np.isfinite(d).all() and np.isfinite(d0).all()):
        raise ValueError("non-finite distance encountered")
    k = 0.5 * (d0[:, None] + d0[None, :] - d)
    k = 0.5 * (k + k.T)
    b = sum_zero_basis(len(points))
    c = b.T @ d @ b
    c = 0.5 * (c + c.T)
    c_eigs = np.linalg.eigvalsh(c)
    k_eigs = np.linalg.eigvalsh(k)
    return GramAudit(
        points=tuple(points),
        x0=x0,
        D=d,
        K=k,
        max_centered_eig=float(c_eigs[-1]),
        min_K_eig=float(k_eigs[0]),
        centered_eig_scale=float(np.abs(c_eigs).max()),
        K_eig_scale=float(np.abs(k_eigs).max()),
    )


def lemma_equivalence_check(
    points: Sequence,
    metric: Callable | None = None,
    x0=None,
    tol_rel: float = RELATIVE_EIG_TOL,
) -> bool:
    """True when the kernel-PSD test and the restricted-negativity test
    agree on this configuration (they must, by the kernel identity)."""
    audit = gram_audit(points, metric, x0)
    return audit.is_positive_semidefinite(tol_rel) == audit.is_restricted_negative(tol_rel)


# ---------------------------------------------------------------------------
# Witness certificates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WitnessCertificate:
    """Self-verifying evidence that a distance is not restricted negative
    definite: sum-zero weights with a strictly positive quadratic form."""

    group: str  # "so3" or "son"
    n: int
    points: tuple
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
        d = pairwise_distance_matrix(self.points, scale=s)
        return float(self.weights @ d @ self.weights)

    def verify(self, tol: float = 1e-10, weight_tol: float = 1e-12) -> bool:
        if abs(float(np.sum(self.weights))) > weight_tol:
            return False
        return abs(self.quadratic_form() - self.value) <= tol

    def to_doc(self) -> dict:
        """The certificate as a canonical-JSON-ready document."""
        points = group_of(self.points)[1]
        return {
            "schema_version": CERTIFICATE_SCHEMA_VERSION,
            "kind": "witness",
            "group": self.group,
            "n": self.n,
            "m": len(self.points),
            "points": [list(map(float, row)) for row in points.reshape(len(points), -1)],
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
        missing = [k for k in ("group", "n", "m", "points", "weights", "value", "seed",
                               "method", "scale", "tool_version")
                   if not isinstance(doc, dict) or k not in doc]
        if missing:
            raise ValueError(f"certificate is missing {', '.join(missing)}")
        n, m, group, seed = doc["n"], doc["m"], doc["group"], doc["seed"]
        if not (isinstance(n, int) and isinstance(m, int)):
            raise ValueError("certificate n and m must be integers")
        if not (group == "so3" and n == 3 or group == "son" and n > 3):
            raise ValueError(f"certificate group {group!r} does not match n = {n} "
                             "(so3 needs n = 3, son needs n > 3)")
        if not (isinstance(seed, dict) and isinstance(seed.get("seed"), int)
                and isinstance(seed.get("stream"), int)):
            raise ValueError('certificate seed must be {"seed": integer, "stream": integer}')
        points = _finite(doc, "points", (m, n * n), f"m = {m} rows of n^2 = {n * n} numbers")
        weights = _finite(doc, "weights", (m,), f"m = {m} numbers")
        value = float(_finite(doc, "value", (), "a number"))
        scale = float(_finite(doc, "scale", (), "a number"))
        if not scale > 0.0:
            raise ValueError(f"certificate scale must be positive, got {scale!r}")
        try:
            elements = tuple(SOnElement(row.reshape(n, n)) for row in points)
        except ValueError as exc:  # not orthogonal, or det -1
            raise ValueError(f"certificate points: {exc}") from None
        return cls(group=group, n=n, points=elements, weights=weights, value=value,
                   seed=seed["seed"], stream=seed["stream"], method=doc["method"],
                   scale=scale, tool_version=doc["tool_version"])


def _finite(doc: dict, key: str, shape: tuple, kind: str) -> np.ndarray:
    """doc[key] as a finite float array of ``shape``, else ValueError naming key."""
    try:
        a = np.asarray(doc[key], dtype=float)
    except (TypeError, ValueError):  # non-numbers, or rows of unequal length
        a = None
    if a is None or a.shape != shape:
        raise ValueError(f"certificate {key} must be {kind}")
    if not np.isfinite(a).all():
        raise ValueError(f"certificate {key} has non-finite entries")
    return a


def _centered_unit(w: np.ndarray) -> np.ndarray:
    w = w - w.mean()
    return w / np.linalg.norm(w)


def find_witness(
    group: str,
    m: int,
    trials: int,
    rng: RngStream,
    n: int | None = None,
    margin: float = DEFAULT_MARGIN,
) -> WitnessCertificate:
    """Randomized search for a positive quadratic form over sum-zero weights.

    Per trial: m Haar points, top eigenpair of the distance matrix on the
    sum-zero subspace; accepted when the eigenvalue clears ``margin``.
    For SO(n), n > 3, the points are Haar draws of the embedded SO(3)
    subgroup, which is where the defect provably lives; the certificate
    is stated in SO(n).

    First trial to succeed wins; raises WitnessNotFoundError otherwise.
    Passing "su2" runs the same search (and is expected to fail: the
    SU(2) distance is restricted negative definite).
    """
    if m < 4:
        raise ValueError("m must be >= 4")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    group = group.lower()
    if group == "son":
        if n is None or n <= 3:
            raise ValueError("group 'son' requires n > 3")
    elif group not in ("su2", "so3"):
        raise ValueError(f"unknown group {group!r}")
    sampled = SU2 if group == "su2" else SO3

    basis = sum_zero_basis(m)
    for trial in range(trials):
        x = sampled.sample(rng, m)
        d = sampled.pairwise(x)
        c = basis.T @ d @ basis
        eigvals, eigvecs = np.linalg.eigh(0.5 * (c + c.T))
        weights = _centered_unit(basis @ eigvecs[:, -1])
        value = float(weights @ d @ weights)
        if not (eigvals[-1] > margin and value > margin):
            continue
        cert = WitnessCertificate(
            group=sampled.name, n=sampled.n, points=tuple(map(sampled.element, x)),
            weights=weights, value=value, seed=rng.seed, stream=rng.stream_id,
        )
        return transfer_witness(cert, n) if group == "son" else cert
    raise WitnessNotFoundError(
        f"no witness in {trials} trial(s) with m={m}: the metric may be "
        "positive definite on this group, or m too small"
    )


def transfer_witness(cert: WitnessCertificate, n: int, scale: float = 1.0) -> WitnessCertificate:
    """Carry an SO(3) certificate into SO(n), n > 3.

    Points are embedded block-diagonally, weights kept; the quadratic
    form is recomputed with the SO(n) principal-angle metric (times
    ``scale``), which restricts exactly to the SO(3) distance.
    """
    if cert.group != "so3" or cert.n != 3:
        raise ValueError("transfer requires an SO(3) certificate")
    if n <= 3:
        raise ValueError("target size must exceed 3")
    points = tuple(embed_so3(p, n) for p in cert.points)
    d = pairwise_distance_matrix(points, scale=scale)
    value = float(cert.weights @ d @ cert.weights)
    return replace(cert, group="son", n=n, points=points, value=value,
                   method="transfer", scale=scale)
