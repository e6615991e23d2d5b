"""Adaptive Simpson quadrature with an explicit subdivision cap.

The rule is the recursive one of Lyness (J. ACM 16, 1969): an interval
whose two half-interval Simpson estimates differ from its own by at most
15 tol is accepted with the Richardson correction, and any other is
bisected, each half at half the tolerance, at most ``MAX_DEPTH`` times.
``simpson_adaptive`` walks that bisection tree a level at a time, across
all panels at once:

* the integrand stays scalar: the two midpoints of every interval of a
  level go to ``f`` one float at a time;
* the Simpson estimates, the error test and the split are array
  operations; the halves of a split interval are stored (left, right), so
  an interval's position in its level is its place in the recursion's
  order;
* the accepted values are summed bottom up, each split interval taking
  the sum of its left and right halves, and the panels left to right, so
  every floating-point operation and every sum is the recursive rule's
  and the result is the same bit for bit.

A level wider than ``FRONTIER`` intervals is walked a block at a time,
each block's subtree before the next block, so the first interval that
fails at ``MAX_DEPTH`` is the one the recursion fails on, and the arrays
stay within ``quadrature_bytes``.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

# Depth 20 allows up to 2**20 leaf intervals per panel before giving up.
MAX_DEPTH = 20
# intervals the walk tests at once; a wider level is walked a block at a time
FRONTIER = 1 << 12


class QuadratureError(RuntimeError):
    """Raised when the adaptive rule cannot reach the requested tolerance."""


def quadrature_bytes() -> int:
    """Bytes simpson_adaptive holds at most: at each of the MAX_DEPTH + 1
    depths a block of FRONTIER intervals, with their values, the indices of
    those that fail and the rows of their halves, 16 floats an interval;
    and the deepest block's working arrays and the Python floats ``f`` is
    called on, charged as 5 blocks more.  When every interval of 4,096
    panels fails, VmHWM grew 12.1 MiB (traced 10.7); `coeffs --mc-n 0`
    grew it by 10.5 MiB at most over --tol 1e-14 to 1e-300 on both groups,
    6.1 MiB of it before the first rule (--lmax 2 grew that much)."""
    return 8 * FRONTIER * 16 * (MAX_DEPTH + 6)


def _values(f: Callable[[float], float], x: np.ndarray) -> np.ndarray:
    """f at each point of x, called on one float at a time."""
    return np.fromiter(map(f, x.tolist()), float, len(x))


def _halve(ends: np.ndarray, mids: np.ndarray) -> np.ndarray:
    """Rows lo, mid and hi of the left and right halves, in turn, of the
    intervals with rows ``ends`` (lo, mid, hi) and ``mids`` (the left and
    right midpoints)."""
    out = np.empty((3, ends.shape[1], 2))
    out[0] = ends[:2].T
    out[1] = mids.T
    out[2] = ends[1:].T
    return out.reshape(3, -1)


def _level(f, x, fx, whole, tol, depth):
    """The error test on intervals of one depth, with rows x (lo, mid, hi),
    f there fx, and Simpson estimates whole: the value of each interval that
    passes it, the indices of those that fail, and the rows, f values and
    estimates of their halves, or None when all pass."""
    mid = 0.5 * (x[:2] + x[1:])  # rows: the left halves' midpoints, the right's
    f_mid = _values(f, mid.ravel()).reshape(mid.shape)
    halves = (x[1:] - x[:2]) / 6.0 * (fx[:2] + 4.0 * f_mid + fx[1:])
    both = halves[0] + halves[1]
    err = both - whole
    split = np.flatnonzero(~(np.abs(err) <= 15.0 * tol))
    value = both + err / 15.0
    if not len(split):
        return value, split, None
    if depth >= MAX_DEPTH:
        i = split[0]
        raise QuadratureError(
            f"adaptive Simpson did not converge on [{float(x[0, i])}, {float(x[2, i])}] "
            f"(residual {abs(float(err[i])):g} at depth {depth})"
        )
    return value, split, (_halve(x.take(split, 1), mid.take(split, 1)),
                          _halve(fx.take(split, 1), f_mid.take(split, 1)),
                          halves.take(split, 1).T.ravel())


def _walk(f, x, fx, whole, tol, depth):
    """Values of the intervals of one depth (arguments as ``_level``'s),
    FRONTIER of them at a time, left to right; a block's split intervals
    take the sum of their halves' values, walked before the next block."""
    values = []
    for i in range(0, len(whole), FRONTIER):
        block = slice(i, i + FRONTIER)
        value, split, children = _level(f, x[:, block], fx[:, block], whole[block], tol, depth)
        if children is not None:
            below = _walk(f, *children, 0.5 * tol, depth + 1)
            value[split] = below[0::2] + below[1::2]
        values.append(value)
    return np.concatenate(values)


def simpson_adaptive(
    f: Callable[[float], float],
    a: float,
    b: float,
    tol: float = 1e-10,
    panels: int = 1,
) -> float:
    """Integrate ``f`` over [a, b] to absolute tolerance ``tol``.

    Deterministic: the subdivision tree depends only on f, the interval,
    the tolerance and the panel count, and ``f`` is called on floats only.
    Raises :class:`QuadratureError` if an interval still fails the local
    error test after ``MAX_DEPTH`` bisections, naming the first such
    interval in the order of [a, b].

    ``panels`` splits [a, b] into that many equal pieces before adapting.
    Oscillatory integrands whose zeros land on the dyadic bisection grid
    (e.g. sin(k t) on [0, pi] with k a power of two) can fool the error
    estimate into instant convergence; choosing panels finer than a
    half-period defeats the aliasing.
    """
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    if panels < 1:
        raise ValueError("panels must be >= 1")
    if a == b:
        return 0.0
    # last edge must be exactly b: rounding one ulp past it would sample
    # integrands outside their support
    edges = np.array([a + (b - a) * (i / panels) for i in range(panels)] + [b])
    x = np.stack((edges[:-1], 0.5 * (edges[:-1] + edges[1:]), edges[1:]))
    f_edges = _values(f, edges)
    fx = np.stack((f_edges[:-1], _values(f, x[1]), f_edges[1:]))
    whole = (x[2] - x[0]) / 6.0 * (fx[0] + 4.0 * fx[1] + fx[2])
    total = 0.0
    for value in _walk(f, x, fx, whole, tol / panels, 0).tolist():
        total += value
    return total
