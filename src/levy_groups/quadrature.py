"""Adaptive Simpson quadrature with an explicit subdivision cap."""

from __future__ import annotations

from typing import Callable

# Depth 20 allows up to 2**20 leaf intervals before giving up.
MAX_DEPTH = 20


class QuadratureError(RuntimeError):
    """Raised when the adaptive rule cannot reach the requested tolerance."""


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


def simpson_adaptive(
    f: Callable[[float], float],
    a: float,
    b: float,
    tol: float = 1e-10,
    panels: int = 1,
) -> float:
    """Integrate ``f`` over [a, b] to absolute tolerance ``tol``.

    Deterministic: the subdivision tree depends only on f, the interval,
    the tolerance and the panel count.  Raises :class:`QuadratureError`
    if the cap of 2**20 subdivisions per panel is reached before the
    local error test passes.

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
    total = 0.0
    # last edge must be exactly b: rounding one ulp past it would sample
    # integrands outside their support
    edges = [a + (b - a) * (i / panels) for i in range(panels)] + [b]
    for lo, hi in zip(edges[:-1], edges[1:]):
        flo, fhi = f(lo), f(hi)
        c = 0.5 * (lo + hi)
        fc = f(c)
        whole = _simpson(lo, flo, hi, fhi, c, fc)
        total += _adaptive(f, lo, flo, hi, fhi, c, fc, whole, tol / panels, 0)
    return total
