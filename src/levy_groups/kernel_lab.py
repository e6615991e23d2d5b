"""Brownian kernels, definiteness audits and counterexample certificates.

The Brownian kernel of a metric d with base point x0 is

    K(x, y) = (d(x, x0) + d(y, x0) - d(x, y)) / 2.

K is positive definite exactly when d is a restricted negative definite
kernel (quadratic form <= 0 over weights summing to zero).  On finite
point sets both sides reduce to eigenvalue tests: the smallest eigenvalue
of K, and the largest eigenvalue of the distance matrix compressed onto
the sum-zero subspace.  For sum-zero v, v^T K v = -v^T D v / 2, so one
matrix holds both: a Householder reflector H sends the constants to e1,
and H K H has K's spectrum while its block [1:, 1:] is K, and so -D/2, on
sum-zero weights; it is built as -1/2 H D H plus a border in its first row
and column, with no K formed.  One factorization decides both: where
H K H is positive definite, one Cholesky factor of the block, bordered with
the first column, gives both spectra's bottoms by Lanczos; elsewhere a
tridiagonalization that fixes e1 turns H K H into T, whose ends are K's
and whose block T[1:, 1:] is similar to H K H's.  Each reads one triangle,
so one builder writes H K H's upper triangle a row at a time, straight
from the distances, into whichever storage lapack hands it: for the factor,
the block in rectangular full packed storage (lapack's RFP array), half the
matrix, with the first column beside it; for the reduction, one (m, m)
buffer whose first row is that column.  K's leading minor on a few points
is factored first: where it fails, as on SO(n), nothing is packed, and the
buffer is built once; where the packed factor fails, it is built after the
packed array is freed, the same floats again.  A witness certificate
is a point set and sum-zero weight vector whose quadratic form is
strictly positive, certifying that the distance is not restricted
negative definite.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from . import __version__, canonical, group_core, lapack
from .group_core import (SO3, SU2, SOnGroup, check_rotations, embed_so3, group_named,
                         pairwise_distance_matrix, row_blocks)
from .rng import KEY_LIMIT, RngStream

RELATIVE_EIG_TOL = 1e-8
_PROBE_POINTS = 64  # points of K's leading minor that gram_audit factors before it packs
DEFAULT_MARGIN = 1e-6
CERTIFICATE_SCHEMA_VERSION = "2"
# the document's keys in order (schemas/witness.schema.json's "required"); "meta" may follow
_CERTIFICATE_KEYS = ("schema_version", "kind", "group", "n", "m", "points", "weights", "value",
                     "seed", "method", "tool_version")


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


def brownian_kernel(group, x: np.ndarray) -> np.ndarray:
    """The kernel matrix 0.5 (d0_i + d0_j - d_ij) of the rows of x for the
    base point x[0], formed in their distance matrix as -d_ij/2 + (d0_i/2 +
    d0_j/2) by _outer_sum (halving is exact), for build_field and
    gram_audit's probe, which each pass their x0 as x's first row.  The row
    and column of x[0] come out exactly 0.0."""
    d = pairwise_distance_matrix(group, x)
    return _outer_sum(d, -0.5, 0.5 * d[0])


def _householder(m: int) -> tuple[np.ndarray, float]:
    """u = 1/sqrt(m) + e1 and tau = 2 / u^T u = 1 / u_1 of the reflector
    H = I - tau u u^T, which sends the constants to -sqrt(m) e1.  H is
    symmetric and orthogonal and its first column is constant, so its last
    m - 1 columns are an orthonormal basis of the sum-zero subspace."""
    u = np.full(m, 1.0 / np.sqrt(m))
    u[0] += 1.0
    return u, 1.0 / u[0]


def _outer_sum(a: np.ndarray, scale: float, g: np.ndarray) -> np.ndarray:
    """Overwrite the (m, m) a with scale * a_ij + (g_i + g_j), a block of
    rows at a time, and return it.  Entry (i, j) gets the same floats as
    entry (j, i), so a bitwise-symmetric a stays bitwise symmetric."""
    for s in row_blocks(len(a), 2 * len(a)):  # the rows and their outer sum: two blocks
        rows = a[s]
        rows *= scale
        rows += np.add.outer(g[s], g)
    return a


@dataclass(frozen=True)
class GramAudit:
    """Eigenvalue evidence for one point configuration.

    ``max_centered_eig`` is the largest eigenvalue of the distance matrix
    restricted to the sum-zero subspace; positive means the distance is
    not restricted negative definite there.  ``min_K_eig`` is the smallest
    eigenvalue of the Brownian-kernel matrix ``K`` of the points for base
    point x0.  ``method`` names the factorization that gave them:
    ``"cholesky"`` where H K H is positive definite, else ``"reduction"``.
    The two scales, the spectra's largest magnitudes, set the decisions'
    tolerances; the factor gives none, None read as 1, as there
    ``min_K_eig`` > 0 > ``max_centered_eig`` for every ``tol_rel`` >= 0.
    """

    max_centered_eig: float
    min_K_eig: float
    centered_eig_scale: Optional[float]
    K_eig_scale: Optional[float]
    method: str

    def is_positive_semidefinite(self, tol_rel: float = RELATIVE_EIG_TOL) -> bool:
        return self.min_K_eig >= -tol_rel * max(self.K_eig_scale or 1.0, 1.0)

    def is_restricted_negative(self, tol_rel: float = RELATIVE_EIG_TOL) -> bool:
        return self.max_centered_eig <= tol_rel * max(self.centered_eig_scale or 1.0, 1.0)


def gram_audit(group, x: np.ndarray, x0=None) -> GramAudit:
    """Eigenvalues of the kernel matrix of the rows of x and of their distance
    matrix on sum-zero weights, the decisive ones kept.

    x0 defaults to the group identity.  One factorization of H K H gives
    both spectra's ends: K's are those of H K H, and since v^T K v =
    -v^T D v / 2 for sum-zero v, D's on sum-zero weights are -2 times those
    of its [1:, 1:] block.  _centered_kernel builds H K H's upper triangle
    into the storage lapack.factored_extremes gives it: where H K H is
    positive definite, the block in packed storage, half the matrix, whose
    Cholesky factor gives the bottoms, with no tops and so no scales.  Before
    it packs, K's leading minor on the first _PROBE_POINTS points is factored
    (_minor_is_definite): where that fails, as on SO(n) at all but a few
    points, neither K nor H K H is positive definite, and nothing is packed.
    There, where the packed factor fails, and without the library, all four
    ends come from one tridiagonal reduction of an (m, m) buffer that the
    same build fills.  Raises ValueError on non-finite distances.
    """
    if len(x) < 2:
        raise ValueError("need at least 2 points")
    x0 = group.identity if x0 is None else x0
    (k_min, k_max, c_min, c_max), method = lapack.factored_extremes(
        len(x), lambda row: _centered_kernel(group, x, x0, row),
        lambda: _minor_is_definite(group, x, x0))
    return GramAudit(
        max_centered_eig=-2.0 * c_min,
        min_K_eig=k_min,
        centered_eig_scale=None if c_max is None else 2.0 * max(abs(c_min), abs(c_max)),
        K_eig_scale=None if k_max is None else max(abs(k_min), abs(k_max)),
        method=method,
    )


def _minor_is_definite(group, x: np.ndarray, x0) -> bool:
    """Whether K's leading minor on the first _PROBE_POINTS rows of x, all of
    them if fewer, is positive definite: lapack.cholesky of brownian_kernel
    of x0 followed by those rows, whose block [1:, 1:] is that minor.  Where
    it is not, neither is K, nor H K H, whose spectrum is K's.  On SU(2) at
    64 points it took 0.2 ms; at seeds 1-5 it failed at pivots 10-15 on
    SO(3), 18-22 on SO(4) and 36-45 on SO(6).  Raises ValueError on a
    non-finite distance."""
    k = brownian_kernel(group, np.concatenate(([x0], x[:_PROBE_POINTS])))
    if not np.isfinite(k).all():
        raise ValueError("non-finite distance encountered")
    return lapack.cholesky(k) == 0


def _centered_kernel(group, x: np.ndarray, x0, row) -> np.ndarray:
    """Write H K H for the kernel K of the rows of x and base point x0 into
    the views row(t), t >= 1, of its upper triangle's rows (H K H)[t, t:],
    and return its first column; K is never formed.  H 1 = -sqrt(m) e1, so
    K's d0 terms reach only row 0 and column 0:
    H K H = -1/2 H D H - (sqrt(m) / 2) (h e1^T + e1 h^T) for h = H d0.  And
    H D H = D - (u w^T + w u^T) for p = tau D u and w = p - (tau / 2) (u^T p) u
    (_householder), where p comes from D's row sums and first row, so
    -1/2 H D H is -d_ij / 2 + (g_i + g_j) for g = w / (2 sqrt(m)), with the
    e1 terms w / 2 in row 0 and column 0.  One walk over D's upper row blocks
    (group.upper_blocks) places each point's row, from point 1 on, keeps
    point 0's for the first column and adds each pair once to both row sums;
    then one pass of -d/2 + (g_i + g_j) over the rows.  Raises ValueError on
    non-finite distances."""
    m = len(x)
    u, tau = _householder(m)
    d0 = group.distances(x, x0)
    border = 0.5 * np.sqrt(m) * (d0 - (tau * (u @ d0)) * u)  # (sqrt(m) / 2) h
    if not np.isfinite(border).all():
        raise ValueError("non-finite distance encountered")
    sums = np.zeros(m)
    for i, block in group.upper_blocks(x):
        if i == 0:
            first = block[0].copy()
        for k in range(max(i, 1), i + len(block)):  # point k's row, from point 1 on
            row(k)[...] = block[k - i, k - i:]
        sums[i:i + len(block)] += block.sum(axis=1)
        sums[i:] += block.sum(axis=0)
    if not np.isfinite(sums).all():
        raise ValueError("non-finite distance encountered")
    p = tau * (sums / np.sqrt(m) + first)
    w = -0.5 * (p - (0.5 * tau * (u @ p)) * u)  # -w / 2
    g = w / -np.sqrt(m)
    for t in range(1, m):
        run = row(t)
        run *= -0.5
        run += g[t] + g[t:]
    column = first * -0.5 + (g + g[0])
    column[0] -= w[0]
    column -= w
    column -= border
    column[0] -= border[0]
    return column


def audit_bytes(group, m: int) -> int:
    """Bytes gram_audit holds at its peak on m points, their sample aside:
    the (m, m) buffer of the reduction, which the factor's packed half never
    exceeds, and without LAPACK the copy eigvalsh makes of it, then of its
    [1:, 1:] block; two blocks of row_blocks, or two rows: the build's walk
    and the distance kernel's scratch; the workspace, lapack.KRYLOV_BYTES
    (1 kB) per point, which holds the factor's Lanczos basis or the
    reduction's workspace (about 830 B); a row of the distance kernel's
    scratch; lapack.SCRATCH_BYTES.  VmHWM of `check` above the imports, their
    bytecode cached (numpy 2.4, 2 cores, BLAS on the one thread `check`
    pins), at m = 1,000, 2,000 and 3,000: on SU(2), where the packed factor
    runs, 12.4, 24.5 and 43.8 MiB; on SO(3), where K's leading minor fails
    and the build fills the buffer once, 17.2, 41.8 and 81.1 in place; 23.8,
    70.3 and 146.9 with the copies."""
    return (8 * m * m * (1 if lapack.available() else 2) + 16 * max(group_core.BLOCK_FLOATS, m)
            + lapack.KRYLOV_BYTES * m + group.pairwise_bytes(m) + lapack.SCRATCH_BYTES)


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
    tool_version: str = __version__

    def quadratic_form(self) -> float:
        """Recompute sum_ij w_i w_j d(g_i, g_j) from the stored data."""
        d = pairwise_distance_matrix(self.group, self.points)
        return float(self.weights @ d @ self.weights)

    def verify(self, tol: float = 1e-10) -> bool:
        """Sum-zero weights (to 1e-12), value > tol and the recomputed form within tol of it."""
        if abs(float(np.sum(self.weights))) > 1e-12 or not self.value > tol:
            return False
        return abs(self.quadratic_form() - self.value) <= tol

    def to_doc(self) -> dict:
        """The certificate as a canonical-JSON-ready document; the points
        (one row of floats each) and weights stay arrays, which canonical
        writes as lists."""
        return {
            "schema_version": CERTIFICATE_SCHEMA_VERSION,
            "kind": "witness",
            "group": self.group.name,
            "n": getattr(self.group, "n", None),
            "m": len(self.points),
            "points": self.points.reshape(len(self.points), -1),
            "weights": self.weights,
            "value": float(self.value),
            "seed": {"seed": self.seed, "stream": self.stream},
            "method": self.method,
            "tool_version": self.tool_version,
        }

    def to_json(self) -> str:
        return canonical.dumps(self.to_doc())

    @classmethod
    def from_json(cls, text: str) -> "WitnessCertificate":
        """Parse a certificate; raises ValueError naming the first bad field."""
        doc = json.loads(text)
        missing = [k for k in _CERTIFICATE_KEYS if not isinstance(doc, dict) or k not in doc]
        if missing:
            raise ValueError(f"certificate is missing {', '.join(missing)}")
        for key, allowed in (("schema_version", (CERTIFICATE_SCHEMA_VERSION,)),
                             ("kind", ("witness",)), ("method", ("eigenvector", "transfer"))):
            if doc[key] not in allowed:
                raise ValueError(f"certificate {key} must be {' or '.join(map(repr, allowed))}, "
                                 f"got {doc[key]!r}")
        unknown = [k for k in doc if k not in _CERTIFICATE_KEYS and k != "meta"]
        if unknown:
            raise ValueError(f"certificate has unknown key {', '.join(unknown)}")
        if not isinstance(doc["tool_version"], str):
            raise ValueError("certificate tool_version must be a string")
        n, m, group, seed = doc["n"], doc["m"], doc["group"], doc["seed"]
        if not (_json_isinstance(n, int) and _json_isinstance(m, int)):
            raise ValueError("certificate n and m must be integers")
        if m < 5:  # every metric on 4 or fewer points is of negative type
            raise ValueError(f"certificate m must be >= 5, got {m}")
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
        try:
            points = check_rotations(points.reshape(m, n, n))
        except ValueError as exc:  # not orthogonal, or det -1
            raise ValueError(f"certificate points: {exc}") from None
        return cls(group=group_named(group, n), points=points, weights=weights, value=value,
                   seed=seed["seed"], stream=seed["stream"], method=doc["method"],
                   tool_version=doc["tool_version"])


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


def find_witness(
    group,
    m: int,
    trials: int,
    rng: RngStream,
    margin: float = DEFAULT_MARGIN,
) -> WitnessCertificate:
    """Randomized search for a positive quadratic form over sum-zero weights.

    Per trial: m Haar points and their distance matrix D; the weights are
    the top eigenvector of D compressed onto the centred degree-2 span
    (_degree_two_span), one Rayleigh-Ritz step, mapped back to the points.
    A trial is accepted when the weights' quadratic form w^T D w, the value
    the certificate states, clears ``margin``.  Why that span: SO(3) fails
    because its coefficient alpha_2 is positive (Gangolli 1967), so on Haar
    points the top sum-zero eigenvectors of D lie near the l = 2 block of
    L^2(SO(3)) (Koltchinskii and Gine 2000), whose functions are
    polynomials of degree <= 2 in a rotation's entries.  The 45 products of
    the 9 entries span, once centred, at most 34 dimensions, so for m <= 35
    the span is the whole sum-zero space and the weights are D's top
    sum-zero eigenvector.

    ``group`` is the descriptor ``SO3``, ``group_named("son", n)`` with
    n > 3, or ``SU2``.  For SO(n) the points are Haar draws of the embedded
    SO(3) subgroup, which is where the defect provably lives; the
    certificate is stated in SO(n).  The weights' entry of largest
    magnitude is positive, whichever sign the eigen-solver gave the vector.

    First trial to succeed wins; raises WitnessNotFoundError otherwise.
    On SU2 the same search is expected to fail: the SU(2) distance is
    restricted negative definite, and its span (10 products of the 4
    coordinates) has rank 9.
    """
    if m < 5:  # every metric on 4 or fewer points is of negative type
        raise ValueError("m must be >= 5")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    sampled = SU2 if group is SU2 else SO3
    if group is not sampled and not (isinstance(group, SOnGroup) and group.n > 3):
        raise ValueError(f"no witness search on {group!r}: use SU2, SO3 or SO(n) with n > 3")

    pairs = np.triu_indices(sampled.point_size)
    for trial in range(trials):
        x = sampled.sample(rng, m)
        d = pairwise_distance_matrix(sampled, x)
        span = _degree_two_span(x, pairs)
        weights = span @ np.linalg.eigh(span.T @ d @ span)[1][:, -1]
        weights -= weights.mean()
        weights /= np.linalg.norm(weights)
        weights *= np.sign(weights[np.argmax(np.abs(weights))])  # largest entry positive
        value = float(weights @ d @ weights)
        if not value > margin:
            # drop the failed trial's arrays before the next one samples, so
            # a search of many trials peaks no higher than a search of one
            del x, d, span, weights
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


def _degree_two_span(x: np.ndarray, pairs: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """An orthonormal basis, as columns, of the centred products x_a x_b,
    (a, b) over ``pairs``, of the flat coordinates of the points x: the
    eigenvectors of their Gram matrix above 1e-12 of its largest
    eigenvalue, each divided by its root, mapped through the products."""
    flat = x.reshape(len(x), -1)
    products = flat[:, pairs[0]] * flat[:, pairs[1]]
    products -= products.mean(axis=0)
    values, vectors = np.linalg.eigh(products.T @ products)
    keep = values > 1e-12 * values[-1]
    return products @ (vectors[:, keep] / np.sqrt(values[keep]))


def witness_bytes(group, m: int) -> int:
    """Bytes find_witness and its certificate's JSON hold at their peak on m
    points of group: the distance matrix; the degree-2 span's arrays (the
    products, their basis and D times it), charged 4 m x 45 floats, 45 the
    products on SO(3); 112 B per float of the points (the sample, on SO(n)
    its embedding, and their JSON); lapack.SCRATCH_BYTES.  No eigen-solver
    copies D, so one formula holds on either lapack backend.  VmHWM of
    `witness` above the imports, BLAS on one thread (numpy 2.4, 2 cores):
    8.2 MiB for SO(6) at m = 100, and for SO(3), one trial or ten, 17.5,
    41.6 and 79.9 MiB at m = 1,000, 2,000 and 3,000 (1.16 matrices at
    3,000)."""
    return 8 * m * m + 32 * m * 45 + 112 * m * group.point_size + lapack.SCRATCH_BYTES


def transfer_witness(cert: WitnessCertificate, n: int) -> WitnessCertificate:
    """Carry an SO(3) certificate into SO(n), n > 3.

    Points are embedded block-diagonally, weights and value kept: the
    embedding is an isometry (``embed_so3``), so the quadratic form is the
    certificate's, and nothing is computed.  ``verify`` on the result
    recomputes it in SO(n), from the principal angles.
    """
    if cert.group is not SO3:
        raise ValueError("transfer requires an SO(3) certificate")
    return replace(cert, group=SOnGroup(n), points=embed_so3(cert.points, n), method="transfer")
