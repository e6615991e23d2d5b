"""LAPACK routines and BLAS thread control from the OpenBLAS bundled with numpy.

numpy's wheels ship OpenBLAS as ``libscipy_openblas64_`` (64-bit integers,
every symbol prefixed ``scipy_`` and suffixed ``64_``).  This module loads
it once and declares each symbol it calls in one table, ``_SYMBOLS``.  It
exports what the package calls: ``factored_extremes`` for the audit, which
hands its caller's one builder a row view of either storage, the audit's
block in rectangular full packed (RFP) storage, the format stated once
here, or the upper triangle of the whole matrix; ``cholesky`` for the
field; and the thread helpers ``set_threads``, ``threads`` and
``core_name``.  The witness search needs none of it.  Where numpy ships no
such library, ``available()`` is false, the operations take numpy's
``eigvalsh`` and ``cholesky``, and the thread helpers change nothing.
``cholesky`` checks the dtype, shape, contiguity and finiteness of its
array before any pointer reaches LAPACK; ``factored_extremes`` takes
entries its caller has checked.  Each raises ``LinAlgError`` naming the
routine when LAPACK reports an error.  One panel loop, ``_factor``, serves
both factors: ``cholesky``'s block in place, and the second half of the
audit's packed block once ``_factor_packed`` has walked its first half in
panels of the same width.  Neither asks LAPACK for a workspace, and each
agrees with numpy's factor to rounding, not bit for bit.  The audit solves
with the packed factor's pieces by dtrsv and dgemv; where that factor
fails, its caller's builder writes the whole matrix's upper triangle for
the tridiagonal reduction.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import os
from typing import Optional

import numpy as np

from . import group_core
from .rng import RngStream

_INT, _DOUBLE, _PTR, _CHAR = ctypes.c_int64, ctypes.c_double, ctypes.c_void_p, ctypes.c_char
_ABSTOL = 2.0 * np.finfo(float).tiny  # bisection to full accuracy
# BLAS and LAPACK scratch, which every memory charge adds: 8.6 MiB of VmHWM for `check`
# at m = 2,000 and 3,000 (numpy 2.4, BLAS threads free) on the whole matrix, 2.8 and 4.5
# for the first cholesky; over the built RFP array (one BLAS thread, as `check` runs), the
# packed factor grew it by nothing and the solves by 0.6 MiB at both, their Lanczos basis
# (2.0 and 2.9 MiB) mostly inside the build's transient peak; LAPACK's dpftrf grew it by
# 2.8 and 4.3 MiB
SCRATCH_BYTES = 9 * 2 ** 20
# Workspace bytes a point of the audit: _reduce takes about 830, and
# factored_extremes' Lanczos basis, up to KRYLOV_BYTES / 8 vectors, stays within it
KRYLOV_BYTES = 1024
_RITZ_TOL = 1e-10  # Lanczos stops on a top Ritz pair whose residual is within this of its value
_PANEL = 32  # rows of the factor a step of _factor
# _reduce's four floats, the bottom and top of a, then of a[1:, 1:]; the tops None on the factor
_Ends = tuple[float, Optional[float], float, Optional[float]]

# symbol -> (restype, argtypes)
_SYMBOLS = {
    # Fortran: every argument by reference, INFO among them (BLAS has none), then each
    # CHARACTER's length.  _reduce:
    "scipy_dsytrd_2stage_64_": (None, (ctypes.c_char_p,) * 2 + (_PTR,) * 11
                                + (ctypes.c_size_t,) * 2),
    # the panels of _factor and _factor_packed, column-major in place, so no copy is made
    "scipy_dpotrf_64_": (None, (ctypes.c_char_p,) + (_PTR,) * 4 + (ctypes.c_size_t,)),
    "scipy_dtrsm_64_": (None, (ctypes.c_char_p,) * 4 + (_PTR,) * 7 + (ctypes.c_size_t,) * 4),
    "scipy_dsyrk_64_": (None, (ctypes.c_char_p,) * 2 + (_PTR,) * 8 + (ctypes.c_size_t,) * 2),
    "scipy_dgemm_64_": (None, (ctypes.c_char_p,) * 2 + (_PTR,) * 11 + (ctypes.c_size_t,) * 2),
    # _solve's steps on the RFP factor's pieces
    "scipy_dtrsv_64_": (None, (ctypes.c_char_p,) * 3 + (_PTR,) * 5 + (ctypes.c_size_t,) * 3),
    "scipy_dgemv_64_": (None, (ctypes.c_char_p,) + (_PTR,) * 10 + (ctypes.c_size_t,)),
    "scipy_LAPACKE_dstebz64_": (_INT, (_CHAR, _CHAR, _INT, _DOUBLE, _DOUBLE, _INT, _INT,
                                       _DOUBLE) + (_PTR,) * 7),
    "scipy_openblas_set_num_threads64_": (None, (ctypes.c_int,)),
    "scipy_openblas_get_num_threads64_": (ctypes.c_int, ()),
    "scipy_openblas_get_corename64_": (ctypes.c_char_p, ()),
}


@functools.cache
def _library() -> Optional[dict]:
    """symbol -> declared function of numpy's bundled OpenBLAS, or None
    where numpy ships no library that exports every symbol of _SYMBOLS."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "libscipy_openblas64_*.so")):
        try:
            lib = ctypes.CDLL(path)
            routines = {name: getattr(lib, name) for name in _SYMBOLS}
        except (OSError, AttributeError):
            continue
        for name, (restype, argtypes) in _SYMBOLS.items():
            routines[name].restype, routines[name].argtypes = restype, argtypes
        return routines
    return None


def available() -> bool:
    """Whether numpy bundles the library; without it, the operations take numpy's."""
    return _library() is not None


def _square(a: np.ndarray) -> int:
    """The order of the C-contiguous float64 square a with finite entries,
    else ValueError."""
    m = len(a)
    if a.dtype != np.float64 or a.shape != (m, m) or not a.flags.c_contiguous:
        raise ValueError(f"need a C-contiguous float64 (m, m) matrix, got {a.dtype} {a.shape}")
    if not all(np.isfinite(a[s]).all() for s in group_core.row_blocks(m, m)):
        raise ValueError("non-finite entry in the matrix")
    return m


def _dsytrd_2stage(m: int, a, d, e, tau, hous2, work, query: bool = False) -> None:
    """dsytrd_2stage('N', 'L') on the order-m matrix a (None for a query),
    with LHOUS2 and LWORK the lengths of hous2 and work, or -1 for a
    workspace query, which writes the sizes to hous2[0] and work[0].
    Raises LinAlgError when INFO is not 0."""
    n, info = ctypes.c_int64(m), ctypes.c_int64(0)
    lhous2, lwork = (ctypes.c_int64(-1 if query else len(x)) for x in (hous2, work))
    _library()["scipy_dsytrd_2stage_64_"](
        b"N", b"L", ctypes.byref(n), None if a is None else a.ctypes.data, ctypes.byref(n),
        d.ctypes.data, e.ctypes.data, tau.ctypes.data, hous2.ctypes.data, ctypes.byref(lhous2),
        work.ctypes.data, ctypes.byref(lwork), ctypes.byref(info), 1, 1)
    if info.value:
        raise np.linalg.LinAlgError(
            f"tridiagonal reduction failed: dsytrd_2stage info {info.value}")


def _tridiagonal_workspace(m: int) -> tuple[int, int]:
    """Floats of WORK and of HOUS2 that dsytrd_2stage asks for at order m."""
    unused, hous2, work = np.zeros(1), np.zeros(1), np.zeros(1)
    _dsytrd_2stage(m, None, unused, unused, unused, hous2, work, query=True)
    return int(work[0]), int(hous2[0])


def _eigenvalue(d: np.ndarray, e: np.ndarray, k: int) -> float:
    """The k-th smallest (from 1) eigenvalue of the symmetric tridiagonal
    matrix with diagonal d and off-diagonal e, by bisection: LAPACKE dstebz
    with range 'I' and abstol 2 * tiny, which resolves it to full accuracy.

    Raises ValueError on a non-finite entry, before LAPACK runs."""
    d, e = np.ascontiguousarray(d, dtype=float), np.ascontiguousarray(e, dtype=float)
    n = len(d)
    if not (d.ndim == 1 and n >= 1 and e.shape == (n - 1,)):
        raise ValueError(f"need n >= 1 diagonal and n - 1 off-diagonal entries, got {d.shape} "
                         f"and {e.shape}")
    if not (np.isfinite(d).all() and np.isfinite(e).all()):
        raise ValueError("non-finite entry in the tridiagonal matrix")
    w, found, blocks = np.empty(n), np.zeros(2, np.int64), np.empty((2, n), np.int64)
    info = _library()["scipy_LAPACKE_dstebz64_"](
        b"I", b"B", n, 0.0, 0.0, k, k, _ABSTOL, d.ctypes.data, e.ctypes.data, found.ctypes.data,
        found[1:].ctypes.data, w.ctypes.data, blocks.ctypes.data, blocks[1].ctypes.data)
    if info:
        raise np.linalg.LinAlgError(f"bisection failed: dstebz info {info}")
    return float(w[0])


def _reduce(a: np.ndarray, m: int) -> tuple[float, float, float, float]:
    """The smallest and largest eigenvalues of the symmetric order-m a,
    m >= 2, then those of a[1:, 1:], read from a's upper triangle; a is
    overwritten.  One reduction gives both: LAPACK's two-stage dsytrd_2stage
    reduces a (Fortran's lower triangle, 'L') to a tridiagonal T = Q^T a Q
    whose Q fixes e1, so T[1:, 1:] is similar to a[1:, 1:], and bisection
    reads the ends of T and of T[1:, 1:].  Without the library, eigvalsh of
    a copy of a, then of a[1:, 1:].  Checks nothing: its caller has."""
    if not available():
        whole, part = (np.linalg.eigvalsh(b, UPLO="U") for b in (a, a[1:, 1:]))
        return float(whole[0]), float(whole[-1]), float(part[0]), float(part[-1])
    lwork, lhous2 = _tridiagonal_workspace(m)
    d, e = np.empty(m), np.empty(m)
    _dsytrd_2stage(m, a, d, e, np.empty(m), np.empty(lhous2), np.empty(lwork))
    ends, e = _eigenvalue, e[:m - 1]
    return ends(d, e, 1), ends(d, e, m), ends(d[1:], e[1:], 1), ends(d[1:], e[1:], m - 1)


def _int(value: int):
    """A Fortran INTEGER argument: a 64-bit integer by reference."""
    return ctypes.byref(ctypes.c_int64(value))


def _double(value: float):
    """A Fortran DOUBLE PRECISION argument, by reference."""
    return ctypes.byref(ctypes.c_double(value))


def _fortran(base: int, ld: int):
    """at(i, j), the pointer of Fortran's (i, j) of the column-major doubles
    from the pointer base with leading dimension ld."""
    return lambda i, j: base + 8 * (i + j * ld)


# The RFP format, TRANSR 'N' and UPLO 'L' (Gustavson, Wasniewski, Dongarra and Langou,
# "Rectangular Full Packed Format for Cholesky's Algorithm", ACM TOMS 37(2), 2010), of a
# symmetric B of order n >= 1: with n2 = ceil(n / 2), n1 = n - n2, s = 1 for even n and
# 0 for odd, and ld = n + s, the Fortran (ld, n2) array, read in C order as R of shape
# (n2, ld), holds n (n + 1) / 2 floats:
#   - for t < n2, row t of B's upper triangle is one run: R[t, t + s:] = B[t, t:];
#   - for t = n2 + p, it runs down column p: R[p + 1 - s:n1 + 1 - s, p] = B[t, t:];
# so row x of R is B[n2 + x + s - 1, n2:n2 + x + s], then B[x, x:].  In Fortran's terms
# B11 over B21, lower, is the trapezoid at (s, 0) and B22, upper, is at (0, 1 - s), each
# with leading dimension ld; the factor L = [[L11, 0], [L21, L22]] (_factor_packed, as
# LAPACK's dpftrf leaves it) keeps L11 over L21 and L22^T in their places.

def _packed(n: int) -> np.ndarray:
    """An uninitialized RFP array R of order n."""
    return np.empty(((n + 1) // 2, n + 1 - n % 2))


def _rfp(r: np.ndarray) -> tuple[int, int, int]:
    """n, n2 and s of the RFP array r."""
    n2, ld = r.shape
    s = int(ld > 2 * n2 - 1)
    return ld - s, n2, s


def _packed_row(r: np.ndarray, t: int) -> np.ndarray:
    """Row t of the upper triangle of the symmetric B in the RFP array r,
    B[t, t:], as a view of r: a run of a row of r, or for t >= n2 a column."""
    n, n2, s = _rfp(r)
    if t < n2:
        return r[t, t + s:]
    return r[t - n2 + 1 - s:n - n2 + 1 - s, t - n2]


def factored_extremes(m: int, build, definite) -> tuple[_Ends, str]:
    """_reduce's four floats for a symmetric order-m a, m >= 2, and the
    factorization that gave them: "cholesky" where a is positive definite,
    its two tops then None, else "reduction".  The caller's build(row)
    writes a[t, t:] into the view row(t) for t >= 1 and returns a[:, 0],
    its entries checked finite (gram_audit's row sums do); nothing here
    scans them again.  definite() is false where the caller has found a not
    positive definite.

    With the library, and where definite() holds, build fills an RFP array
    of (m - 1) m / 2 floats with the block B = a[1:, 1:], a's row t as B's
    row t - 1 (_packed_row), and _factor_packed factors B in it as
    B = L L^T.  Bordering L with a's first column, w = L^-1 a[1:, 0] and
    delta^2 = a[0, 0] - w^T w, gives a = M M^T for
    M = [[delta, w^T], [0, L]].  Lanczos (_lanczos) then reads the bottoms
    from the inverses of M M^T and L L^T, two _solve a step, each problem
    alone with one right-hand side: the first from a fixed start, the second
    from the tail of the first's Ritz vector, as B's bottom eigenvector is
    nearly a's with its first entry dropped.  The tops would only set
    tolerance scales, and with a positive definite a both decisions hold
    whatever the scale, so none is computed.

    Elsewhere build fills the upper triangle of an (m, m) square, its row 0
    the returned column, all _reduce reads: where definite() is false, where
    the factor fails, where delta^2 <= 0, where Lanczos would need more than
    KRYLOV_BYTES a point of Krylov basis, the packed array dropped first; and
    without the library, where definite is never called."""
    if available() and definite():
        r = _packed(m - 1)
        ends = _bordered_ends(r, build(lambda t: _packed_row(r, t - 1)))
        del r  # before the square is built
        if ends is not None:
            return ends, "cholesky"
    a = np.zeros((m, m))
    a[0] = build(lambda t: a[t, t:])
    return _reduce(a, m), "reduction"


def _bordered_ends(r: np.ndarray, column: np.ndarray) -> Optional[_Ends]:
    """factored_extremes' floats from the factor of the block in the RFP
    array r, which it overwrites, and the first column of a; or None."""
    m = len(column)
    if _factor_packed(r):
        return None
    w = column[1:].copy()
    _solve(r, w, False)
    square = column[0] - w @ w
    if not square > 0.0:
        return None

    def inverse(x):  # x <- (M M^T)^-1 x: y = M^-1 x, then M^-T y
        _solve(r, x[1:], False)
        x[0] = (x[0] - w @ x[1:]) / square
        x[1:] -= x[0] * w
        _solve(r, x[1:], True)

    def block_inverse(x):  # x <- (L L^T)^-1 x
        _solve(r, x, False)
        _solve(r, x, True)

    start = RngStream(0, 0).generator.standard_normal(m)  # the first problem's, fixed
    steps = KRYLOV_BYTES // 8
    whole = _lanczos(inverse, start, steps)
    if whole is None:
        return None
    tail = whole[1][1:]
    if not (np.isfinite(tail).all() and tail.any()):
        tail = start[1:]
    block = _lanczos(block_inverse, tail, steps)
    return None if block is None else (1.0 / whole[0], None, 1.0 / block[0], None)


def _solve(r: np.ndarray, x: np.ndarray, transpose: bool) -> None:
    """Overwrite the contiguous vector x of n floats with L^-1 x, or with
    ``transpose`` L^-T x, for L the factor _factor_packed leaves in the RFP
    array r: dtrsv on L11, dgemv with L21, dtrsv on L22 through its stored
    transpose, in that order for L and in reverse for L^T.  At n = 1 there is no L21
    or L22, and only L11's solve runs."""
    n, n2, s = _rfp(r)
    n1, ld, one, at = n - n2, _int(n + s), _int(1), _fortran(r.ctypes.data, n + s)
    head, tail = x[:n2].ctypes.data, x[n2:].ctypes.data

    def trsv(uplo, trans, order, a, v):
        _library()["scipy_dtrsv_64_"](uplo, trans, b"N", _int(order), a, ld, v, one, 1, 1, 1)

    def gemv(trans, v, y):  # y -= L21 v, or L21^T v
        _library()["scipy_dgemv_64_"](trans, _int(n1), _int(n2), _double(-1.0), at(s + n2, 0),
                                      ld, v, one, _double(1.0), y, one, 1)

    if not transpose:
        trsv(b"L", b"N", n2, at(s, 0), head)
        if n1:
            gemv(b"N", head, tail)
            trsv(b"U", b"T", n1, at(0, 1 - s), tail)
    else:
        if n1:
            trsv(b"U", b"N", n1, at(0, 1 - s), tail)
            gemv(b"T", tail, head)
        trsv(b"L", b"T", n2, at(s, 0), head)


def _potrf(uplo: bytes, order: int, a: int, ld) -> int:
    """INFO of dpotrf(uplo) on the block of the given order at the pointer
    a: 0, or the order of the block's first leading minor that is not
    positive definite.  Raises LinAlgError where INFO < 0."""
    info = ctypes.c_int64(0)
    _library()["scipy_dpotrf_64_"](uplo, _int(order), a, ld, ctypes.byref(info), 1)
    if info.value < 0:
        raise np.linalg.LinAlgError(f"Cholesky factorization failed: dpotrf info {info.value}")
    return info.value


def _factor(base: int, n: int, ld: int) -> int:
    """Factor in place the symmetric matrix of order n whose upper triangle
    is Fortran's from the pointer base with leading dimension ld as U^T U,
    U upper, and return 0; or return the order of its first leading minor
    that is not positive definite.  _PANEL rows of U at a time:
    dpotrf('U') of the panel's diagonal block, dtrsm of the rest of the
    panel, a dsyrk update of the trailing block.  OpenBLAS's own dpotrf
    packs an (m, 384) panel: at m = 2,000 it took 6.0 MiB of VmHWM against
    0.6 for these panels, and no less time (numpy 2.4, SkylakeX, one
    thread: 69 against 60 ms)."""
    at, lda, one, minus_one = _fortran(base, ld), _int(ld), _double(1.0), _double(-1.0)
    for k in range(0, n, _PANEL):
        width, rest = min(_PANEL, n - k), _int(max(n - k - _PANEL, 0))
        info = _potrf(b"U", width, at(k, k), lda)
        if info:
            return k + info
        if k + width < n:
            _library()["scipy_dtrsm_64_"](b"L", b"U", b"T", b"N", _int(width), rest, one,
                                          at(k, k), lda, at(k, k + width), lda, 1, 1, 1, 1)
            _library()["scipy_dsyrk_64_"](b"U", b"T", rest, _int(width), minus_one,
                                          at(k, k + width), lda, one, at(k + width, k + width),
                                          lda, 1, 1)
    return 0


def _factor_packed(r: np.ndarray) -> int:
    """Factor in place the symmetric B of order n that the RFP array r holds
    as L L^T, L as the format states, and return 0; or return the order of
    B's first leading minor that is not positive definite.  First _PANEL
    columns at a time down the trapezoid B11 over B21: dpotrf('L') of the
    panel's diagonal block, one dtrsm of every row below it, dsyrk and dgemm
    updates of the trapezoid's trailing columns, and a dsyrk update of B22
    by the panel's rows of B21; then _factor on B22.  LAPACK's dpftrf, which
    makes each step once on the whole halves, grew VmHWM over the RFP array
    by 2.8 MiB at n = 1,999, and these panels by nothing (numpy 2.4,
    SkylakeX, one thread); they took 72 against its 81 ms there, and 15
    against 17 at n = 999 (medians of 5 processes)."""
    n, n2, s = _rfp(r)
    n1, ld = n - n2, n + s
    at, lda, one, minus_one = _fortran(r.ctypes.data, ld), _int(ld), _double(1.0), _double(-1.0)
    for k in range(0, n2, _PANEL):
        width = min(_PANEL, n2 - k)
        trailing, row = n2 - k - width, s + k + width  # columns after the panel, its next row
        info = _potrf(b"L", width, at(s + k, k), lda)
        if info:
            return k + info
        if not n1:  # n = 1: no row below, no B22
            break
        _library()["scipy_dtrsm_64_"](b"R", b"L", b"T", b"N", _int(n - k - width), _int(width),
                                      one, at(s + k, k), lda, at(row, k), lda, 1, 1, 1, 1)
        if trailing:
            _library()["scipy_dsyrk_64_"](b"L", b"N", _int(trailing), _int(width), minus_one,
                                          at(row, k), lda, one, at(row, k + width), lda, 1, 1)
            _library()["scipy_dgemm_64_"](b"N", b"T", _int(n1), _int(trailing), _int(width),
                                          minus_one, at(s + n2, k), lda, at(row, k), lda, one,
                                          at(s + n2, k + width), lda, 1, 1)
        _library()["scipy_dsyrk_64_"](b"U", b"N", _int(n1), _int(width), minus_one,
                                      at(s + n2, k), lda, one, at(0, 1 - s), lda, 1, 1)
    info = _factor(at(0, 1 - s), n1, ld)
    return n2 + info if info else 0


def _lanczos(apply, start: np.ndarray, steps: int) -> Optional[tuple[float, np.ndarray]]:
    """The largest eigenvalue of the symmetric operator that apply(x)
    applies in place to a vector x of len(start) floats, and its unit Ritz
    vector, by Lanczos from start with full reorthogonalization (classical
    Gram-Schmidt, twice); None if no Ritz pair is within _RITZ_TOL of its
    value after ``steps`` steps.  At len(start) steps the basis spans the
    space, and the Ritz values are the eigenvalues."""
    basis = np.empty((min(steps, len(start)), len(start)))
    alpha, beta = np.zeros(len(basis)), np.zeros(len(basis))
    x = start / np.linalg.norm(start)
    for k in range(len(basis)):
        basis[k] = x
        apply(x)
        v = basis[:k + 1]
        h = v @ x
        x -= h @ v
        x -= (v @ x) @ v
        alpha[k], norm = h[k], np.linalg.norm(x)
        t = np.diag(alpha[:k + 1])
        t.flat[k + 1::k + 2] = beta[:k]  # the subdiagonal: eigh reads the lower triangle
        values, vectors = np.linalg.eigh(t)
        if norm * abs(vectors[-1, -1]) <= _RITZ_TOL * abs(values[-1]) or k + 1 == len(start):
            return float(values[-1]), vectors[:, -1] @ v
        beta[k] = norm
        x /= norm
    return None


def cholesky(a: np.ndarray) -> int:
    """Overwrite the block a[1:, 1:] of the C-contiguous float64 (m, m) a
    with the Cholesky factor of its lower triangle, its strict upper
    triangle zeroed, and return 0; or return the order (from 1) of the first
    leading minor that is not positive definite.  On failure the block's
    lower triangle, its diagonal included, is unspecified, and its strict
    upper triangle and a's row 0 and column 0 are left as given, on both
    paths: build_field's jitter ladder restores the block from them.
    _factor factors the triangle in place, in panels: column-major from
    a[1, 1] with leading dimension m, it is Fortran's upper, and no routine
    it calls writes Fortran's strict lower triangle.  Without the library,
    np.linalg.cholesky of a copy, written back only where it succeeds, and
    on failure a bisection over the leading minors.  Raises ValueError on a
    non-finite entry, before LAPACK runs."""
    m, block = _square(a), a[1:, 1:]
    if not available():
        try:
            block[...] = np.linalg.cholesky(block)
        except np.linalg.LinAlgError:
            return _first_failed_minor(block)
        return 0
    pivot = _factor(block.ctypes.data, m - 1, m)
    if not pivot:
        for i in range(m - 2):  # a row at a time: no (m, m) mask or index arrays
            block[i, i + 1:] = 0.0
    return pivot


def _first_failed_minor(block: np.ndarray) -> int:
    """The order of the first leading minor of block (whose whole is one) on
    which np.linalg.cholesky fails, by bisection."""
    low, high = 1, len(block)
    while low < high:
        mid = (low + high) // 2
        try:
            np.linalg.cholesky(block[:mid, :mid])
            low = mid + 1
        except np.linalg.LinAlgError:
            high = mid
    return high


def set_threads(n: int) -> Optional[int]:
    """Set the BLAS thread count to n and return the count it had, or None,
    changing nothing, without the library."""
    if not available():
        return None
    before = threads()
    _library()["scipy_openblas_set_num_threads64_"](n)
    return before


def threads() -> Optional[int]:
    """The BLAS thread count, or None without the library."""
    return _library()["scipy_openblas_get_num_threads64_"]() if available() else None


def core_name() -> Optional[str]:
    """The CPU kernel set OpenBLAS picked at load (``DYNAMIC_ARCH``), or None
    without the library."""
    return _library()["scipy_openblas_get_corename64_"]().decode() if available() else None
