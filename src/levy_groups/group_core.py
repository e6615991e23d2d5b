"""Haar sampling and bi-invariant geodesic distances on stacked point arrays.

SU(2) points are unit 4-vectors (a1, a2, b1, b2), i.e. the coordinates of
the 2x2 matrix [[a, b], [-conj(b), conj(a)]] with a = a1 + i*a2 and
b = b1 + i*b2.  This identifies SU(2) with the unit sphere of R^4; the
geodesic distance induced by the inner product <X, Y> = -tr(XY)/2 on the
Lie algebra is the great-circle angle atan2(|Im(conj(h) g)|, <g, h>).

SO(n) points are n x n rotation matrices.  The matching bi-invariant
distance is sqrt(sum of squared principal rotation angles) of g h^T,
taken from the arguments of its eigenvalues; for n = 3 it is the rotation
angle atan2(|vee(P - P^T)|, tr P - 1) of P = g h^T.  The two atan2 forms
are one kernel, which unlike an inverse cosine stays accurate near 0 and pi.

Points move as arrays: one descriptor per group (``SU2``, ``SO3``,
``group_named("son", n)``) samples stacked (m, 4) quadruples or (m, n, n)
rotations and states its distance once, as a kernel ``_angles`` or as the
data of the shared one.  The shared ``pairwise`` and ``distances`` run it on
blocks and read exactly 0.0 between bitwise-equal points; ``pairwise`` and
the audit's build of H K H share one walk over the upper row blocks,
``upper_blocks``.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .rng import RngStream

ORTHOGONALITY_TOL = 1e-10
# float64 per block of the samplers' draws, of the distance kernels' scratch and of
# kernel_lab's passes over an (m, m) matrix: 1 MiB
BLOCK_FLOATS = 1 << 17
# distances below this are checked for bitwise-equal points, between which every
# kernel's products can leave a rounding residue
_NEAR_ZERO_ANGLE = 1e-6


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


def row_blocks(rows: int, floats_per_row: int) -> list[slice]:
    """The blocks of rows 0..rows of a pass that holds ``floats_per_row``
    float64 per row: about BLOCK_FLOATS floats each, or one row."""
    step = max(1, BLOCK_FLOATS // max(floats_per_row, 1))
    return [slice(i, min(i + step, rows)) for i in range(0, rows, step)]


def mirror_upper(a: np.ndarray, rows: slice) -> None:
    """Copy the rows ``rows`` of the square a's upper triangle into the
    matching columns of its strict lower triangle, which leaves a bitwise
    symmetric once every row has been copied."""
    i, j = rows.start, rows.stop
    a[j:, i:j] = a[i:j, j:].T
    top = a[i:j, i:j]  # square; its lower triangle comes from its upper
    np.copyto(top, top.T, where=np.tri(len(top), k=-1, dtype=bool))


# ---------------------------------------------------------------------------
# Haar sampling
# ---------------------------------------------------------------------------

def haar_su2_batch(rng: RngStream, size: int) -> np.ndarray:
    """(size, 4) array of independent Haar draws as unit quadruples.

    Four iid standard normals normalized to unit length; under the
    sphere identification this is exactly Haar measure on SU(2).
    """
    v = rng.generator.standard_normal((size, 4))
    # in place, a block of rows at a time: a row's norm does not depend on the blocking.
    # Its squares are added a column at a time in np.linalg.norm's order, bit for bit
    for s in row_blocks(size, 4):
        block = v[s]
        norm = np.sqrt(sum(block[:, k] ** 2 for k in range(4)))
        while (bad := norm < 1e-150).any():  # degenerate draw, probability ~0
            block[bad] = rng.generator.standard_normal((int(bad.sum()), 4))
            norm = np.sqrt(sum(block[:, k] ** 2 for k in range(4)))
        block /= norm[:, None]
    return v


def haar_son_batch(n: int, size: int, rng: RngStream) -> np.ndarray:
    """(size, n, n) array of Haar draws on SO(n).

    QR of an iid Gaussian matrix with the R diagonal sign-corrected gives
    Haar on O(n); negating the last column when det = -1 maps the
    reflection coset onto SO(n) without disturbing the distribution.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    # QR holds several copies of its input (SOnGroup.sample_bytes), so it runs
    # on blocks of the output; the generator fills them with the same normals
    # as one draw
    out = np.empty((size, n, n))
    for s in row_blocks(size, n * n):
        q, r = np.linalg.qr(rng.generator.standard_normal((s.stop - s.start, n, n)))
        d = np.sign(np.diagonal(r, axis1=-2, axis2=-1))
        d[d == 0] = 1.0
        q *= d[:, None, :]
        q[np.linalg.det(q) < 0, :, -1] *= -1.0
        out[s] = q
        del q, r, d  # before the next block's QR
    return out


# ---------------------------------------------------------------------------
# Distances
# ---------------------------------------------------------------------------

def _zero_equal_points(d: np.ndarray, x: np.ndarray, y: np.ndarray) -> None:
    """Set to 0.0 each entry of the (len(x), len(y)) distances d that pairs
    bitwise-equal points; only entries below ``_NEAR_ZERO_ANGLE`` can."""
    near = np.flatnonzero(d < _NEAR_ZERO_ANGLE)  # a quarter the time of 2-d nonzero
    if near.size:
        at = np.unravel_index(near, d.shape)
        same = (x[at[0]] == y[at[1]]).reshape(near.size, -1).all(axis=1)
        d.flat[near[same]] = 0.0


def dist_son(g: np.ndarray, h: np.ndarray) -> float:
    """Bi-invariant distance between the (n, n) rotations g and h on SO(n),
    as ``SOnGroup(n).distances`` measures it."""
    if g.shape != h.shape:
        raise ValueError(f"size mismatch: {g.shape} vs {h.shape}")
    return float(SOnGroup(len(g)).distances(g[None], h)[0])


def embed_so3(x: np.ndarray, n: int) -> np.ndarray:
    """Block-diagonal embedding of SO(3) into SO(n), n > 3, on (..., 3, 3) arrays.

    The embedding is distance-preserving for the principal-angle metric:
    the extra block contributes only zero angles.
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


# ---------------------------------------------------------------------------
# Group descriptors: sampling and distances on stacked arrays
# ---------------------------------------------------------------------------

class _Group:
    """The blocked distance loops every descriptor shares.  A descriptor supplies
    ``_angles(x, y, out)``, writing the (len(x), len(y)) distances between
    the points of x and of y into out, and ``_pair_floats``, that kernel's
    float64 scratch per pair; blocks hold ``BLOCK_FLOATS`` of it, or one row.
    """

    _pair_floats = 1

    def pairwise(self, x: np.ndarray) -> np.ndarray:
        """(m, m) distances between the points of x: upper_blocks into d,
        each mirrored into the lower triangle, so d is bitwise symmetric,
        with a zero diagonal."""
        m = len(x)
        d = np.empty((m, m))
        for i, block in self.upper_blocks(x, d):
            mirror_upper(d, slice(i, i + len(block)))
        return d

    def upper_blocks(self, x: np.ndarray, d=None):
        """(i, block) for blocks of rows i..j of the distances between the
        points of x: block holds those of x[i:j] to x[i:], the diagonal and
        lower triangle of its leading square 0.0, so each pair appears once.
        Blocks are written into d[i:j, i:] of an (m, m) d where one is given,
        else into one scratch buffer, which the next block reuses."""
        m = len(x)
        blocks = row_blocks(m, m * self._pair_floats)
        scratch = np.empty(blocks[0].stop * m) if d is None else None  # the first is the largest
        for s in blocks:
            i, j = s.start, s.stop
            block = d[i:j, i:] if d is not None else scratch[:(j - i) * (m - i)].reshape(j - i, -1)
            self._angles(x[i:j], x[i:], block)
            _zero_equal_points(block, x[i:j], x[i:])
            np.copyto(block[:, :j - i], 0.0, where=np.tri(j - i, dtype=bool))
            yield i, block

    def distances(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Distance from each point of x to the point y."""
        d = np.empty(len(x))
        for s in row_blocks(len(x), self._pair_floats):
            block = d[s, None]
            self._angles(x[s], y[None], block)
            _zero_equal_points(block, x[s], y[None])
        return d

    def sample_bytes(self, m: int) -> int:
        """Bytes to sample m points and take their distances to one point: the
        sample, the QR copies of one sampler block, the angles, one float a
        point (VmHWM of `haar` at 10^6 points on SU(2) and SO(3), and at
        (n, m) = (10, 100,000) and (40, 5,000) on SO(n), in JSON and CSV:
        9.1-9.9 B per float of the sample)."""
        return 40 * m * self.point_size

    def pairwise_bytes(self, m: int) -> int:
        """Bytes of ``pairwise``'s kernel scratch beyond its blocks: one row of
        point_size floats per pair (the products on SO(n); with the sample,
        VmHWM of `check` on SO(n) at (n, m) = (300, 20), (200, 40), (150, 60)
        and (500, 8): 22-24 B per float of the sample)."""
        return 8 * m * self.point_size


class _ClosedForm(_Group):
    """atan2(sine, cosine) of inner products of the points: unlike an inverse cosine,
    accurate near 0 and pi (Kahan, "How Futile are Mindless Assessments of Roundoff",
    2006).  The GEMMs [x_a, -x_b] . [y_b, y_a] of the ``_planes`` (a, b) square to
    (c sin t)^2 in sum, in out; <x, y> - ``_cos_shift`` = c cos t, in one scratch block."""

    _pair_floats = 1

    def _angles(self, x: np.ndarray, y: np.ndarray, out: np.ndarray) -> None:
        scratch = np.empty_like(out)
        for k, (a, b) in enumerate(self._planes):
            axial = scratch if k else out
            np.matmul(np.hstack((x[:, a], -x[:, b])), np.hstack((y[:, b], y[:, a])).T, out=axial)
            axial *= axial
            if k:
                out += axial
        np.sqrt(out, out=out)
        c = np.matmul(x.reshape(len(x), -1), y.reshape(len(y), -1).T, out=scratch)
        if self._cos_shift:  # x - 0.0 is x, -0.0 included: SU(2) skips the pass
            c -= self._cos_shift
        np.arctan2(out, c, out=out)


class SU2Group(_ClosedForm):
    """SU(2) on (m, 4) arrays of unit quadruples."""

    name = "su2"
    point_size = 4  # floats per point
    identity = np.array([1.0, 0.0, 0.0, 0.0])
    columns = ("a1", "a2", "b1", "b2")
    # Im(conj(q) p): its three components on (a1, a2, b1, b2) square to 1 - <p, q>^2
    _planes = (([1, 2], [0, 3]), ([2, 3], [0, 1]), ([3, 1], [0, 2]))
    _cos_shift = 0.0

    def __repr__(self) -> str:
        return "SU(2)"

    def sample(self, rng: RngStream, m: int) -> np.ndarray:
        return haar_su2_batch(rng, m)


class SOnGroup(_Group):
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

    _pair_floats = property(lambda self: self.point_size)  # one product x_i y_j^T per pair

    def sample_bytes(self, m: int) -> int:
        """_Group's charge, and the QR copies of one block of haar_son_batch,
        which holds BLOCK_FLOATS floats or one n x n draw: the sampler alone
        grew VmHWM by 4.7-10.7 blocks beside its output at (n, m) = (100, 20),
        (300, 3), (400, 1), (400, 2) and (800, 1); charged 10."""
        block = min(m * self.point_size, max(BLOCK_FLOATS, self.point_size))
        return super().sample_bytes(m) + 80 * block

    def __repr__(self) -> str:
        return f"SO({self.n})"

    def sample(self, rng: RngStream, m: int) -> np.ndarray:
        return haar_son_batch(self.n, m, rng)

    def _angles(self, x: np.ndarray, y: np.ndarray, out: np.ndarray) -> None:
        """sqrt(sum of squared principal angles) of each P = x_i y_j^T.

        Each rotation plane contributes the eigenvalue pair e^{+-i theta}, and
        each pair of -1 eigenvalues a flat rotation by pi, so half the sum of
        the squared eigenvalue arguments is the sum of squared angles.
        """
        a = np.angle(np.linalg.eigvals(x[:, None] @ np.swapaxes(y, -1, -2)[None]))
        a *= a
        np.sum(a, axis=-1, out=out)
        out *= 0.5
        np.sqrt(out, out=out)


class SO3Group(_ClosedForm, SOnGroup):
    """SO(3): rows (a, b) give P[a, b] - P[b, a] of P = x y^T, the axial vector of
    P - P^T, of norm 2 sin t, and tr P - 1 = 2 cos t."""

    name = "so3"
    _planes = ((2, 1), (0, 2), (1, 0))
    _cos_shift = 1.0


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


def pairwise_distance_matrix(group, x: np.ndarray) -> np.ndarray:
    """``group.pairwise(x)``: the symmetric zero-diagonal distance matrix
    of the rows of x."""
    return group.pairwise(x)
