"""Group elements, Haar sampling and bi-invariant geodesic distances.

SU(2) elements are stored as unit 4-vectors (a1, a2, b1, b2), i.e. the
coordinates of the 2x2 matrix [[a, b], [-conj(b), conj(a)]] with
a = a1 + i*a2 and b = b1 + i*b2.  This identifies SU(2) with the unit
sphere of R^4; the geodesic distance induced by the inner product
<X, Y> = -tr(XY)/2 on the Lie algebra is the great-circle angle

    dist_su2(g, h) = arccos(<g, h>).

SO(n) elements carry their n x n matrix.  The matching bi-invariant
distance is sqrt(sum of squared principal rotation angles) of g h^T,
taken from the arguments of its eigenvalues; for n = 3 it is the
rotation angle arccos((tr - 1)/2).

Points move as arrays: one descriptor per group (``SU2``, ``SO3``,
``group_named("son", n)``) samples and measures stacked (m, 4) quadruples or
(m, n, n) rotations.  ``SU2Element`` and ``SOnElement`` are validated views
of a single point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .rng import RngStream

UNIT_NORM_TOL = 1e-12
ORTHOGONALITY_TOL = 1e-10
_QR_BLOCK_FLOATS = 1 << 19  # 4 MiB of float64 per block of haar_son_batch
_NEAR_ZERO_ANGLE = 1e-8  # SOnGroup.distances compares entries below this

# Rotation generators, orthonormal for <X,Y> = -tr(XY)/2.  Index 1 generates
# the rotation block [[cos t, sin t, 0], [-sin t, cos t, 0], [0, 0, 1]].
SO3_GENERATORS = {
    1: np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]),
    2: np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 0.0], [-1.0, 0.0, 0.0]]),
    3: np.array([[0.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0]]),
}


@dataclass(frozen=True)
class SU2Element:
    """Point of SU(2) as the unit quadruple (a1, a2, b1, b2)."""

    a1: float
    a2: float
    b1: float
    b2: float

    def __post_init__(self):
        object.__setattr__(self, "a1", float(self.a1))
        object.__setattr__(self, "a2", float(self.a2))
        object.__setattr__(self, "b1", float(self.b1))
        object.__setattr__(self, "b2", float(self.b2))
        n = self.a1 ** 2 + self.a2 ** 2 + self.b1 ** 2 + self.b2 ** 2
        if not abs(n - 1.0) <= UNIT_NORM_TOL:  # also rejects nan and inf
            raise ValueError(f"not a unit quadruple: |a|^2+|b|^2 = {n!r}")

    @classmethod
    def identity(cls) -> "SU2Element":
        return cls(1.0, 0.0, 0.0, 0.0)

    @classmethod
    def from_vector(cls, v) -> "SU2Element":
        v = np.asarray(v, dtype=float).reshape(4)
        return cls(v[0], v[1], v[2], v[3])

    @property
    def a(self) -> complex:
        return complex(self.a1, self.a2)

    @property
    def b(self) -> complex:
        return complex(self.b1, self.b2)

    @property
    def vector(self) -> np.ndarray:
        return np.array([self.a1, self.a2, self.b1, self.b2])

    @property
    def matrix(self) -> np.ndarray:
        """The 2x2 complex unitary [[a, b], [-conj(b), conj(a)]]."""
        a, b = self.a, self.b
        return np.array([[a, b], [-b.conjugate(), a.conjugate()]])

    def __mul__(self, other: "SU2Element") -> "SU2Element":
        a = self.a * other.a - self.b * other.b.conjugate()
        b = self.a * other.b + self.b * other.a.conjugate()
        return SU2Element(a.real, a.imag, b.real, b.imag)

    def inverse(self) -> "SU2Element":
        return SU2Element(self.a1, -self.a2, -self.b1, -self.b2)

    def __neg__(self) -> "SU2Element":
        return SU2Element(-self.a1, -self.a2, -self.b1, -self.b2)


@dataclass(frozen=True, eq=False)
class SOnElement:
    """Rotation in SO(n): an n x n real orthogonal matrix with det = 1."""

    entries: np.ndarray

    def __post_init__(self):
        m = check_rotations(self.entries)
        if m.ndim != 2:
            raise ValueError(f"expected one matrix, got shape {m.shape}")
        m.flags.writeable = False
        object.__setattr__(self, "entries", m)

    @classmethod
    def identity(cls, n: int) -> "SOnElement":
        return cls(np.eye(n))

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    def __mul__(self, other: "SOnElement") -> "SOnElement":
        if self.n != other.n:
            raise ValueError(f"size mismatch: {self.n} vs {other.n}")
        return SOnElement(self.entries @ other.entries)

    def inverse(self) -> "SOnElement":
        return SOnElement(self.entries.T)


def check_rotations(x) -> np.ndarray:
    """x as a new float array of (..., n, n) rotations, n >= 2.

    Raises ValueError unless every matrix is finite, orthogonal and of
    determinant 1, each within ``ORTHOGONALITY_TOL``.
    """
    x = np.array(x, dtype=float)
    if x.ndim < 2 or x.shape[-1] != x.shape[-2] or x.shape[-1] < 2:
        raise ValueError(f"expected square matrices with n >= 2, got shape {x.shape}")
    if not np.isfinite(x).all():
        raise ValueError("matrix has non-finite entries")
    resid = np.abs(np.swapaxes(x, -1, -2) @ x - np.eye(x.shape[-1])).max(initial=0.0)
    if resid > ORTHOGONALITY_TOL:
        raise ValueError(f"matrix is not orthogonal: max |g^T g - I| = {resid:g}")
    det = np.linalg.det(x).ravel()
    off = np.abs(det - 1.0)
    if off.max(initial=0.0) > ORTHOGONALITY_TOL:
        raise ValueError(f"det(g) = {float(det[off.argmax()])!r}, expected 1")
    return x


# ---------------------------------------------------------------------------
# Haar sampling
# ---------------------------------------------------------------------------

def haar_su2_batch(rng: RngStream, size: int) -> np.ndarray:
    """(size, 4) array of independent Haar draws as unit quadruples.

    Four iid standard normals normalized to unit length; under the
    sphere identification this is exactly Haar measure on SU(2).
    """
    v = rng.generator.standard_normal((size, 4))
    norm = np.linalg.norm(v, axis=1)
    while (bad := norm < 1e-150).any():  # degenerate draw, probability ~0
        v[bad] = rng.generator.standard_normal((int(bad.sum()), 4))
        norm = np.linalg.norm(v, axis=1)
    return v / norm[:, None]


def haar_su2(rng: RngStream) -> SU2Element:
    """One Haar-distributed element of SU(2)."""
    return SU2Element.from_vector(haar_su2_batch(rng, 1)[0])


def haar_son_batch(n: int, size: int, rng: RngStream) -> np.ndarray:
    """(size, n, n) array of Haar draws on SO(n).

    QR of an iid Gaussian matrix with the R diagonal sign-corrected gives
    Haar on O(n); negating the last column when det = -1 maps the
    reflection coset onto SO(n) without disturbing the distribution.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    # QR holds about four copies of its input, so it runs on blocks of the
    # output; the generator fills them with the same normals as one draw
    out = np.empty((size, n, n))
    step = max(1, _QR_BLOCK_FLOATS // (n * n))
    for i in range(0, size, step):
        q, r = np.linalg.qr(rng.generator.standard_normal((min(step, size - i), n, n)))
        d = np.sign(np.diagonal(r, axis1=-2, axis2=-1))
        d[d == 0] = 1.0
        q *= d[:, None, :]
        q[np.linalg.det(q) < 0, :, -1] *= -1.0
        out[i:i + step] = q
    return out


def haar_son(n: int, rng: RngStream) -> SOnElement:
    """One Haar-distributed rotation in SO(n)."""
    return SOnElement(haar_son_batch(n, 1, rng)[0])


def ad_matrix(quaternions: np.ndarray) -> np.ndarray:
    """Covering map SU(2) -> SO(3) on (..., 4) arrays of unit quadruples."""
    q = np.asarray(quaternions, dtype=float)
    a1, a2, b1, b2 = q[..., 0], q[..., 1], q[..., 2], q[..., 3]
    out = np.empty(q.shape[:-1] + (3, 3))
    out[..., 0, 0] = a1 * a1 - a2 * a2 - (b1 * b1 - b2 * b2)
    out[..., 0, 1] = -2 * a1 * a2 - 2 * b1 * b2
    out[..., 0, 2] = -2 * (a1 * b1 - a2 * b2)
    out[..., 1, 0] = 2 * a1 * a2 - 2 * b1 * b2
    out[..., 1, 1] = (a1 * a1 - a2 * a2) + (b1 * b1 - b2 * b2)
    out[..., 1, 2] = -2 * (a1 * b2 + a2 * b1)
    out[..., 2, 0] = 2 * (a1 * b1 + a2 * b2)
    out[..., 2, 1] = -2 * (-a1 * b2 + a2 * b1)
    out[..., 2, 2] = (a1 * a1 + a2 * a2) - (b1 * b1 + b2 * b2)
    return out


def ad_morphism(g: SU2Element) -> SOnElement:
    """Image of ``g`` under the 2-to-1 morphism SU(2) -> SO(3).

    Kernel {+e, -e}: g and -g map to the same rotation.
    """
    return SOnElement(ad_matrix(g.vector))


# ---------------------------------------------------------------------------
# Distances
# ---------------------------------------------------------------------------

def dist_su2(g: SU2Element, h: SU2Element) -> float:
    """Geodesic distance on SU(2), in [0, pi]."""
    dot = g.a1 * h.a1 + g.a2 * h.a2 + g.b1 * h.b1 + g.b2 * h.b2
    return math.acos(max(-1.0, min(1.0, dot)))


def rotation_angle_so3(g: SOnElement) -> float:
    """Rotation angle t in [0, pi] of g, from tr(g) = 2 cos(t) + 1.

    Equals the bi-invariant geodesic distance from g to the identity.
    """
    if g.n != 3:
        raise ValueError("rotation_angle_so3 requires n = 3")
    c = (np.trace(g.entries) - 1.0) / 2.0
    return math.acos(max(-1.0, min(1.0, c)))


def principal_angle_distances(r: np.ndarray) -> np.ndarray:
    """sqrt(sum of squared principal angles) of each stacked rotation in r.

    Each rotation plane contributes the eigenvalue pair e^{+-i theta}, and
    each pair of -1 eigenvalues a flat rotation by pi, so half the sum of
    the squared eigenvalue arguments is the sum of squared angles.
    """
    lam = np.linalg.eigvals(r)
    return np.sqrt(0.5 * np.sum(np.angle(lam) ** 2, axis=-1))


def dist_son(g: SOnElement, h: SOnElement, scale: float = 1.0) -> float:
    """Bi-invariant distance on SO(n): sqrt(sum of squared principal
    angles of g h^T), times an optional positive metric scale."""
    if g.n != h.n:
        raise ValueError(f"size mismatch: {g.n} vs {h.n}")
    if scale <= 0.0:
        raise ValueError("scale must be positive")
    if np.array_equal(g.entries, h.entries):
        # eigvals of the exactly symmetric g g^T can carry a rounding-level
        # imaginary part, which would read as an angle of about 1e-16
        return 0.0
    return scale * float(principal_angle_distances(g.entries @ h.entries.T))


def embed_so3(x: np.ndarray, n: int) -> np.ndarray:
    """Block-diagonal embedding of SO(3) into SO(n), n > 3, on (..., 3, 3) arrays.

    The embedding is distance-preserving for the principal-angle metric
    at every scale: the extra block contributes only zero angles.
    """
    x = np.asarray(x, dtype=float)
    if x.shape[-2:] != (3, 3):
        raise ValueError(f"embed_so3 expects SO(3) rotations, got shape {x.shape}")
    if n <= 3:
        raise ValueError("target size must exceed 3")
    out = np.zeros(x.shape[:-2] + (n, n))
    out[..., 3:, 3:] = np.eye(n - 3)
    out[..., :3, :3] = x
    return out


def exp_so3(t: float, k: int = 1) -> SOnElement:
    """Rodrigues closed form of exp(t * A_k) for the generator basis."""
    if k not in SO3_GENERATORS:
        raise ValueError("generator index must be 1, 2 or 3")
    a = SO3_GENERATORS[k]
    return SOnElement(np.eye(3) + math.sin(t) * a + (1.0 - math.cos(t)) * (a @ a))


# ---------------------------------------------------------------------------
# Group descriptors: sampling and distances on stacked arrays
# ---------------------------------------------------------------------------

class SU2Group:
    """SU(2) on (m, 4) arrays of unit quadruples."""

    name = "su2"
    point_size = 4  # floats per point
    identity = np.array([1.0, 0.0, 0.0, 0.0])
    columns = ("a1", "a2", "b1", "b2")

    def __repr__(self) -> str:
        return "SU(2)"

    def sample(self, rng: RngStream, m: int) -> np.ndarray:
        return haar_su2_batch(rng, m)

    def pairwise(self, x: np.ndarray) -> np.ndarray:
        """(m, m) geodesic distances between the rows of x."""
        d = x @ x.T  # one m x m buffer throughout
        np.arccos(np.clip(d, -1.0, 1.0, out=d), out=d)
        np.fill_diagonal(d, 0.0)
        return d

    def distances(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Distance from each row of x to the point y."""
        return np.arccos(np.clip(x @ y, -1.0, 1.0))


class SOnGroup:
    """SO(n) on (m, n, n) arrays of rotations, principal-angle distances."""

    name = "son"

    def __init__(self, n: int):
        self.n = n
        self.point_size = n * n

    # built on first use, so a descriptor for a huge n costs nothing until
    # a size check has passed
    @cached_property
    def identity(self) -> np.ndarray:
        return np.eye(self.n)

    @cached_property
    def columns(self) -> tuple[str, ...]:
        return tuple(f"r{i}c{j}" for i in range(self.n) for j in range(self.n))

    def __repr__(self) -> str:
        return f"SO({self.n})"

    def sample(self, rng: RngStream, m: int) -> np.ndarray:
        return haar_son_batch(self.n, m, rng)

    def pairwise(self, x: np.ndarray) -> np.ndarray:
        # one row of pairs at a time: O(m n^2) scratch besides the result
        m = len(x)
        d = np.zeros((m, m))
        for i in range(m - 1):
            d[i, i + 1:] = d[i + 1:, i] = self.distances(x[i + 1:], x[i])
        return d

    def distances(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Distance from each rotation in x to the rotation y; exactly 0.0 for
        a rotation bitwise equal to y, as in dist_son."""
        d = principal_angle_distances(x @ y.T)
        # an equal rotation reads about 1e-16, so only near-zero distances
        # need the entrywise comparison
        near = (d < _NEAR_ZERO_ANGLE).nonzero()[0]
        if near.size:
            d[near[(x[near] == y).all(axis=(-2, -1))]] = 0.0
        return d


class SO3Group(SOnGroup):
    """SO(3), where the rotation angle follows from the trace alone."""

    name = "so3"

    def pairwise(self, x: np.ndarray) -> np.ndarray:
        """(m, m) rotation angles from the trace identity: agrees with the
        eigenvalue route of dist_son, without per-pair factorizations."""
        d = np.einsum("iab,jab->ij", x, x)  # the traces, then the angles in place
        d -= 1.0
        d /= 2.0
        np.arccos(np.clip(d, -1.0, 1.0, out=d), out=d)
        np.fill_diagonal(d, 0.0)
        return d

    def distances(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        tr = np.einsum("iab,ab->i", x, y)
        return np.arccos(np.clip((tr - 1.0) / 2.0, -1.0, 1.0))


SU2 = SU2Group()
SO3 = SO3Group(3)


def group_named(name: str, n: int | None = None):
    """Descriptor of "su2", "so3" or "son" (SO(n), which needs ``n`` >= 2).

    The descriptor is the one group value the rest of the package takes;
    names are read only at the edges (CLI flags, certificate JSON).
    """
    if name == "su2":
        return SU2
    if name == "so3" or (name == "son" and n == 3):
        return SO3
    if name == "son":
        if n is None or n < 2:
            raise ValueError(f"group 'son' needs n >= 2, got {n!r}")
        return SOnGroup(n)
    raise ValueError(f"unknown group {name!r}")


def pairwise_distance_matrix(group, x: np.ndarray, scale: float = 1.0) -> np.ndarray:
    """Symmetric zero-diagonal distance matrix of the rows of x, times ``scale``."""
    if scale <= 0.0:
        raise ValueError("scale must be positive")
    d = group.pairwise(x)
    return scale * d if scale != 1.0 else d
