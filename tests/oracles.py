"""Closed-form characters, densities and distribution functions of SU(2)
and SO(3), which the tests use as oracles for ``levy_groups.harmonic`` and
the Haar samplers, the covering map SU(2) -> SO(3), the binary icosahedral
group, a singular positive semidefinite set of SU(2), the recursive
adaptive Simpson rule that ``levy_groups.quadrature`` walks a level at a time,
the matrix H K H that ``kernel_lab.gram_audit`` hands to its solver, whole
or with the row sums of its packed build, the places of the rectangular
full packed (RFP) array that holds its block, the
four spectrum ends of that solver's tridiagonal reduction, the bordered
sum-zero top of a distance matrix, the field's values that
``field_sim.sample_field`` colours, and Bartlett's factor of the field's
Gram matrix that ``field_sim.empirical_variogram`` draws.
Each character, and each density and distribution function of the angle,
takes the descriptor ``SU2`` or ``SO3``, as ``harmonic`` does.
"""

import itertools
import math

import numpy as np

from levy_groups import field_sim, group_core, lapack
from levy_groups.harmonic import _is_so3
from levy_groups.kernel_lab import _householder, _outer_sum, _reflect, _shift
from levy_groups.quadrature import MAX_DEPTH, QuadratureError

# below this, sin(t) is treated as singular and the character limit is used
_SIN_TOL = 1e-8
# chi reflects t to pi - t within this distance of pi, where sin((l+1)t)/sin(t)
# cancels; reflecting all of (pi/2, pi] costs up to 1e-14 mid-range instead
_REFLECT = 0.1


def chi(group, l: int, t):
    """Character of the l-th irreducible representation at angle t.

    SU(2): sin((l+1)t)/sin(t) with the limit branches l+1 at t=0 and
    (-1)^l (l+1) at t=pi; within 0.1 of pi it is evaluated as
    (-1)^l chi_l(pi - t), where the ratio does not cancel.
    SO(3) = SU(2)/{+-e}: its l-th character is the SU(2) character of
    index 2l at half the angle, sin((2l+1)t/2)/sin(t/2).

    Accepts scalars or arrays; returns the same shape.
    """
    if l < 0:
        raise ValueError("l must be >= 0")
    t_arr = np.asarray(t, dtype=float)
    if _is_so3(group):
        l, t_arr = 2 * l, 0.5 * t_arr
    # near pi the rounding of (l+1)t is amplified by 1/sin(t); there
    # chi_l(t) = (-1)^l chi_l(pi - t) is evaluated at the small angle
    near_pi = np.abs(math.pi - t_arr) < _REFLECT
    a = np.where(near_pi, math.pi - t_arr, t_arr)
    s = np.sin(a)
    singular = np.abs(s) < _SIN_TOL
    safe = np.where(singular, 1.0, s)
    ratio = np.sin((l + 1) * a) / safe
    limit = np.where(np.cos(a) > 0.0, float(l + 1), (-1.0) ** l * (l + 1))
    out = np.where(singular, limit, ratio) * np.where(near_pi, (-1.0) ** l, 1.0)
    return float(out) if np.isscalar(t) or t_arr.ndim == 0 else out


def angle_density(group, t):
    """Haar density of the distance-to-identity angle on [0, pi].

    SO(3): (1 - cos t)/pi.  SU(2): (2/pi) sin^2(t).  Zero outside [0, pi].
    """
    t_arr = np.asarray(t, dtype=float)
    inside = (t_arr >= 0.0) & (t_arr <= math.pi)
    if _is_so3(group):
        vals = (1.0 - np.cos(t_arr)) / math.pi
    else:
        vals = (2.0 / math.pi) * np.sin(t_arr) ** 2
    out = np.where(inside, vals, 0.0)
    return float(out) if np.isscalar(t) or t_arr.ndim == 0 else out


def angle_cdf(group, t):
    """Distribution function of the angle law, for goodness-of-fit tests."""
    t_arr = np.clip(np.asarray(t, dtype=float), 0.0, math.pi)
    if _is_so3(group):
        out = (t_arr - np.sin(t_arr)) / math.pi
    else:
        out = (t_arr - np.sin(t_arr) * np.cos(t_arr)) / math.pi
    return float(out) if np.isscalar(t) or t_arr.ndim == 0 else out


def trace_density_so3(y):
    """Haar density of the trace of an SO(3) rotation on [-1, 3].

    (1/2pi) (3-y)^{1/2} (y+1)^{-1/2}; the y = -1 endpoint is an
    integrable singularity and evaluates to inf.
    """
    y_arr = np.asarray(y, dtype=float)
    inside = (y_arr >= -1.0) & (y_arr <= 3.0)
    num = np.sqrt(np.clip(3.0 - y_arr, 0.0, None))
    den = np.sqrt(np.clip(y_arr + 1.0, 0.0, None))
    with np.errstate(divide="ignore"):
        vals = num / den / (2.0 * math.pi)
    out = np.where(inside, vals, 0.0)
    return float(out) if np.isscalar(y) or y_arr.ndim == 0 else out


def trace_cdf_so3(y):
    """Distribution function of the SO(3) trace law on [-1, 3]."""
    y_arr = np.clip(np.asarray(y, dtype=float), -1.0, 3.0)
    w = np.arccos(np.clip((y_arr - 1.0) / 2.0, -1.0, 1.0))
    out = 1.0 - (w - np.sin(w)) / math.pi
    return float(out) if np.isscalar(y) or y_arr.ndim == 0 else out


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


def _simpson(a, fa, b, fb, c, fc):
    return (b - a) / 6.0 * (fa + 4.0 * fc + fb)


def _adaptive(f, a, fa, b, fb, c, fc, whole, tol, depth):
    left_mid = 0.5 * (a + c)
    right_mid = 0.5 * (c + b)
    f_lm = f(left_mid)
    f_rm = f(right_mid)
    left = _simpson(a, fa, c, fc, left_mid, f_lm)
    right = _simpson(c, fc, b, fb, right_mid, f_rm)
    err = left + right - whole
    if abs(err) <= 15.0 * tol:
        return left + right + err / 15.0
    if depth >= MAX_DEPTH:
        raise QuadratureError(
            f"adaptive Simpson did not converge on [{a}, {b}] "
            f"(residual {abs(err):g} at depth {depth})"
        )
    half = 0.5 * tol
    return _adaptive(f, a, fa, c, fc, left_mid, f_lm, left, half, depth + 1) + _adaptive(
        f, c, fc, b, fb, right_mid, f_rm, right, half, depth + 1
    )


def simpson_recursive(f, a, b, tol=1e-10, panels=1):
    """``quadrature.simpson_adaptive`` by recursion, depth first: each
    panel's tree is walked left half before right, and its value summed on
    the way back up."""
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    if panels < 1:
        raise ValueError("panels must be >= 1")
    if a == b:
        return 0.0
    total = 0.0
    edges = [a + (b - a) * (i / panels) for i in range(panels)] + [b]
    for lo, hi in zip(edges[:-1], edges[1:]):
        flo, fhi = f(lo), f(hi)
        c = 0.5 * (lo + hi)
        fc = f(c)
        whole = _simpson(lo, flo, hi, fhi, c, fc)
        total += _adaptive(f, lo, flo, hi, fhi, c, fc, whole, tol / panels, 0)
    return total


def binary_icosahedral():
    """The 120 unit quaternions of the binary icosahedral group: the 24 Hurwitz
    units and the even permutations of (0, +-1, +-phi, +-1/phi) / 2."""
    phi = (1.0 + math.sqrt(5.0)) / 2.0
    units = {tuple(s * (k == i) for k in range(4)) for i in range(4) for s in (1.0, -1.0)}
    units |= set(itertools.product((0.5, -0.5), repeat=4))
    for p in itertools.permutations(range(4)):
        if sum(p[i] > p[j] for i in range(4) for j in range(i + 1, 4)) % 2 == 0:
            for s in itertools.product((1.0, -1.0), repeat=3):
                v = [0.0, s[0] * 0.5, s[1] * phi / 2.0, s[2] / (2.0 * phi)]
                units.add(tuple(v[k] for k in p))
    return np.array(sorted(units))


def audit_matrix(group, x, pair_sums=False):
    """H K H of the rows of x for the base point e, by gram_audit's formulas on
    fresh arrays: -1/2 H D H, then (sqrt(m)/2) H d0 subtracted from row 0 and
    from column 0, since H 1 = -sqrt(m) e1 carries K's d0 terms there.  The
    row sums of D are D's product with the ones, the whole matrix's; with
    ``pair_sums``, they are added as the packed build adds them, each pair
    once to both sums, a block of ``group.upper_blocks`` at a time, so the
    lower triangle is that build's bit for bit."""
    m = len(x)
    u, tau = _householder(m)
    d0 = group.distances(x, group.identity)
    border = 0.5 * np.sqrt(m) * (d0 - (tau * (u @ d0)) * u)
    a = group.pairwise(x)
    if pair_sums:
        sums = np.zeros(m)
        for i, block in group.upper_blocks(x):
            sums[i:i + len(block)] += block.sum(axis=1)
            sums[i:] += block.sum(axis=0)
        w = _shift(sums, a[:, 0])
        _outer_sum(a, -0.5, w / -np.sqrt(m))
        a[0] -= w
        a[:, 0] -= w
    else:
        _reflect(a)
    a[0] -= border
    a[:, 0] -= border
    return a


def rfp_places(n):
    """(i, j), i >= j, of the entry of the symmetric B of order n at each
    place of its RFP array R (TRANSR 'N', UPLO 'L'), two int arrays of R's
    shape (ceil(n/2), n + s), s = 1 for even n, else 0.  R[x, y] is
    Fortran's (y, x): at y >= x + s, column x of the factor's first half,
    L11 over L21, from Fortran's row s; above it, the transpose of the
    trailing block of order n - ceil(n/2), upper, from Fortran's column
    1 - s."""
    n2, s = (n + 1) // 2, 1 - n % 2
    x, y = np.indices((n2, n + s))
    first = y >= x + s
    return np.where(first, y - s, n2 + x - 1 + s), np.where(first, x, n2 + y)


def unpacked(r, n):
    """The lower triangle of the symmetric B of order n that the RFP array r
    holds, zeros above it."""
    b = np.zeros((n, n))
    b[rfp_places(n)] = r
    return b


def packed_from(a):
    """The pack function of ``lapack.factored_extremes`` for the symmetric
    (m, m) a: it writes a[1:, 1:] into the RFP array r, from a's lower
    triangle, and returns a copy of a[:, 0]."""
    def pack(r):
        r[...] = a[1:, 1:][rfp_places(len(a) - 1)]
        return a[:, 0].copy()
    return pack


def reduced_ends(a):
    """The smallest and largest eigenvalues of the symmetric C-contiguous
    float64 (m, m) a, m >= 2, then those of a[1:, 1:], by
    ``lapack.factored_extremes``' tridiagonal reduction, the path it takes
    where the factor fails; it reads a's upper triangle and overwrites a."""
    return lapack._reduce(a, len(a))


def bordered_top(group, x):
    """The largest eigenvalue of D' on the sum-zero weights of the m + 1
    points {e} and the rows of x, with D' their distance matrix, and D''s
    largest |eigenvalue|: numpy's eigvalsh of Q^T D' Q, Q an orthonormal
    basis of the sum-zero subspace from numpy's QR."""
    pts = np.concatenate((group.identity[None], x))
    d = group.pairwise(pts)
    n = len(d)
    q = np.linalg.qr(np.eye(n, n - 1) - np.eye(n, n - 1, -1))[0]  # from the e_i - e_{i+1}
    return np.linalg.eigvalsh(q.T @ d @ q)[-1], np.abs(np.linalg.eigvalsh(d)).max()


def coloured_values(fs, r, gen):
    """The (m, r) values of r realizations of the field fs: Z =
    gen.standard_normal((r, m - 1)) drawn at once, realization-major, and
    the rows below the base point formed a block of field_sim._BLOCK
    realizations at a time, columns [a, b) as L @ Z[a:b].T, which OpenBLAS
    sums bit for bit as sample_field does; one full L @ Z.T agrees to
    rounding."""
    z = gen.standard_normal((r, fs.m - 1))
    vals = np.zeros((fs.m, r))
    for a in range(0, r, field_sim._BLOCK):
        b = min(a + field_sim._BLOCK, r)
        vals[1:, a:b] = fs.chol[1:, 1:] @ z[a:b].T
    return vals


def bartlett_draw(n, r, gen):
    """Bartlett's factor A of the Gram matrix of r draws of n normals, from
    gen: an (n, p) lower-trapezoidal array, p = min(n, r), its strict lower
    trapezoid's normals drawn first, in row-major order, then
    sqrt(chi^2_{r - i}) on its diagonal, i = 0 .. p - 1."""
    p = min(n, r)
    a = np.zeros((n, p))
    i, j = np.tril_indices(n, -1, p)
    a[i, j] = gen.standard_normal(len(i))
    a[np.arange(p), np.arange(p)] = np.sqrt(gen.chisquare(r - np.arange(p)))
    return a


def bartlett_factor(fs, r, gen):
    """F = L A of the field fs for r realizations, A = bartlett_draw(m - 1,
    r, gen): an (m, p) array, p = min(m - 1, r), with a zero first row.
    L A is formed a block of group_core.row_blocks(m - 1, p) rows at a time,
    rows [lo, hi) as L[lo:hi, :hi] @ A[:hi, :min(hi, p)], which OpenBLAS sums
    bit for bit as the variogram does; one full L @ A agrees to rounding."""
    n = fs.m - 1
    a = bartlett_draw(n, r, gen)
    chol = fs.chol[1:, 1:]
    f = np.zeros((fs.m, a.shape[1]))
    for rows in group_core.row_blocks(n, a.shape[1]):
        cols = min(rows.stop, a.shape[1])
        f[1:][rows, :cols] = chol[rows, :rows.stop] @ a[:rows.stop, :cols]
    return f
