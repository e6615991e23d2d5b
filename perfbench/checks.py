"""Output checks for the benchmark's CLI invocations.

Every check recomputes a quantity with formulas of its own, or tests a
property the method must have.  None of them imports levy_groups, and
none compares against a stored copy of earlier output.  Each check
returns a list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import math

import numpy as np

# Monte Carlo coefficients must lie within this many of their own
# standard errors of the Gauss-Legendre value.
MC_SIGMAS = 5.0
# Closed-form and quadrature coefficients against Gauss-Legendre.
COEFF_ABS_TOL = 1e-9
# Recomputed eigenvalues and quadratic forms, relative to their scale.
REL_TOL = 1e-9
# Variogram z-scores (estimate - distance) / stderr over all rows.  The
# rows share one set of realizations, so their z-scores move together:
# over 60 seeds of the simulate-su2 input the mean z ranged over
# [-0.99, 0.68], the 3-sigma coverage down to 0.977 and max |z| up to 4.7.
Z_MAX = 7.0
Z_COVERAGE_3SIGMA = 0.95
Z_MEAN_MAX = 2.0
# Orthogonality, determinant and weight sums of witness certificates.
EXACT_TOL = 1e-12


# ---------------------------------------------------------------------------
# Formulas of the benchmark's own
# ---------------------------------------------------------------------------

def so3_character(l: int, t: np.ndarray) -> np.ndarray:
    """chi_l(t) = 1 + 2 sum_{k<=l} cos(k t), the SO(3) character."""
    k = np.arange(1, l + 1)
    return 1.0 + 2.0 * np.cos(np.multiply.outer(t, k)).sum(axis=-1)


def so3_coefficient(l: int) -> float:
    """int_0^pi t chi_l(t) (1 - cos t)/pi dt by Gauss-Legendre.

    The integrand is t times a trigonometric polynomial of degree l+1,
    so 4l+64 nodes resolve it to rounding level.
    """
    x, w = np.polynomial.legendre.leggauss(4 * l + 64)
    t = 0.5 * math.pi * (x + 1.0)
    f = t * so3_character(l, t) * (1.0 - np.cos(t)) / math.pi
    return float(0.5 * math.pi * np.dot(w, f))


def su2_distances(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Great-circle angles 2 atan2(|p-q|, |p+q|) between unit 4-vector rows,
    as a (len(p), len(q)) matrix; accurate at every separation."""
    out = np.empty((len(p), len(q)))
    for lo in range(0, len(p), 256):
        a = p[lo:lo + 256, None, :]
        out[lo:lo + 256] = 2.0 * np.arctan2(
            np.linalg.norm(a - q[None], axis=-1), np.linalg.norm(a + q[None], axis=-1))
    return out


def son_distances(mats: np.ndarray) -> np.ndarray:
    """Bi-invariant SO(n) distances sqrt(sum theta^2) between all pairs of
    stacked rotations, with the angles taken from np.linalg.eigvals of
    g_i g_j^T: each rotation plane contributes e^{+-i theta}."""
    m = len(mats)
    i, j = np.triu_indices(m, 1)
    lam = np.linalg.eigvals(np.einsum("pab,pcb->pac", mats[i], mats[j]))
    d = np.zeros((m, m))
    d[i, j] = d[j, i] = np.sqrt(0.5 * (np.angle(lam) ** 2).sum(axis=-1))
    return d


def su2_audit(quats: np.ndarray) -> tuple[float, float, float, float]:
    """(min K eigenvalue, its scale, max sum-zero eigenvalue of D, its scale)
    for base point e = (1, 0, 0, 0)."""
    d = su2_distances(quats, quats)
    np.fill_diagonal(d, 0.0)
    d0 = su2_distances(quats, np.array([[1.0, 0.0, 0.0, 0.0]]))[:, 0]
    k_eigs = np.linalg.eigvalsh(0.5 * (d0[:, None] + d0[None, :] - d))
    # J D J has the sum-zero spectrum of D plus a 0 on the constants;
    # pushing the constant direction far down leaves only the former on top
    m = len(quats)
    jdj = d - d.mean(axis=0)[None, :] - d.mean(axis=1)[:, None] + d.mean()
    push = 10.0 * (m * math.pi + 1.0)  # beyond the spectral radius of D
    c_eigs = np.linalg.eigvalsh(jdj - (push / m) * np.ones((m, m)))[1:]
    return (float(k_eigs[0]), float(np.abs(k_eigs).max()),
            float(c_eigs[-1]), float(np.abs(c_eigs).max()))


# ---------------------------------------------------------------------------
# Checks, one per workload
# ---------------------------------------------------------------------------

def _expect(doc: dict, **fields) -> list[str]:
    return [f"{k} is {doc.get(k)!r}, expected {v!r}" for k, v in fields.items()
            if doc.get(k) != v]


def quaternions(doc: dict) -> np.ndarray:
    return np.asarray(doc["samples"], dtype=float)


def check_haar(doc: dict, points: int, seed: int) -> list[str]:
    problems = _expect(doc, kind="haar", group="su2", count=points, seed=seed)
    q = quaternions(doc)
    if q.shape != (points, 4) or np.abs(np.linalg.norm(q, axis=1) - 1.0).max() > EXACT_TOL:
        problems.append(f"samples are not {points} unit quadruples")
    return problems


def check_identical(first: bytes, repeat: bytes) -> list[str]:
    """A repeated seed must reproduce the --no-meta output byte for byte."""
    return [] if first == repeat else ["repeated seed gave different bytes"]


def check_coeffs(doc: dict, lmax: int, mc_samples: int, seed: int) -> list[str]:
    problems = _expect(doc, kind="coeffs", group="so3", lmax=lmax,
                       mc_samples=mc_samples, seed=seed)
    rows = doc.get("rows", [])
    if [r.get("l") for r in rows] != list(range(lmax + 1)):
        return problems + ["rows do not run over l = 0..lmax"]
    for r in rows:
        l, ref = r["l"], so3_coefficient(r["l"])
        for col in ("closed", "quadrature"):
            if not abs(r[col] - ref) <= COEFF_ABS_TOL:
                problems.append(f"l={l}: {col} {r[col]!r} differs from {ref!r}")
            if l >= 2 and l % 2 == 0 and not r[col] > 0.0:
                problems.append(f"l={l}: {col} {r[col]!r} is not > 0")
        if not (r["stderr"] > 0.0 and abs(r["monte_carlo"] - ref) <= MC_SIGMAS * r["stderr"]):
            problems.append(f"l={l}: monte_carlo {r['monte_carlo']!r} +- {r['stderr']!r} "
                            f"misses {ref!r} at {MC_SIGMAS} sigma")
    return problems


def check_audit(doc: dict, points: int, seed: int) -> list[str]:
    """The per-invocation property check: SU(2) must pass both eigen tests."""
    return _expect(doc, kind="check", group="su2", points=points, seed=seed,
                   kernel_psd=True, restricted_negative=True, equivalence_ok=True)


def check_audit_values(doc: dict, haar: dict) -> list[str]:
    """Recompute the decisive eigenvalues from the same points, given as
    the output of ``haar`` with the same seed and stream."""
    min_k, k_scale, max_c, c_scale = su2_audit(quaternions(haar))
    problems = []
    if not abs(doc["min_K_eig"] - min_k) <= REL_TOL * max(k_scale, 1.0):
        problems.append(f"min_K_eig {doc['min_K_eig']!r}, recomputed {min_k!r}")
    if not abs(doc["max_centered_eig"] - max_c) <= REL_TOL * max(c_scale, 1.0):
        problems.append(f"max_centered_eig {doc['max_centered_eig']!r}, recomputed {max_c!r}")
    return problems


def check_simulate(doc: dict, haar: dict, realizations: int, seed: int) -> list[str]:
    """Distance column against distances recomputed from the ``haar``
    output of the same seed (base point e first, then those points), and
    the z-scores of the estimates."""
    quats = quaternions(haar)
    problems = _expect(doc, kind="simulate", group="su2", points=len(quats),
                       realizations=realizations, seed=seed)
    pts = np.vstack([[1.0, 0.0, 0.0, 0.0], quats])
    i, j = np.triu_indices(len(pts), 1)
    rows = doc.get("rows", [])
    if len(rows) != len(i):
        return problems + [f"{len(rows)} variogram rows, expected {len(i)}"]
    cols = np.array([[r["pair_i"], r["pair_j"], r["distance"], r["estimate"], r["stderr"]]
                     for r in rows])
    if not (np.array_equal(cols[:, 0], i) and np.array_equal(cols[:, 1], j)):
        return problems + ["variogram rows are not the pairs i < j in order"]
    dist = su2_distances(pts, pts)[i, j]
    bad = np.abs(cols[:, 2] - dist) > REL_TOL * math.pi
    if bad.any():
        problems.append(f"{int(bad.sum())} distance entries differ from recomputed distances")
    if not (cols[:, 4] > 0.0).all():
        return problems + ["nonpositive stderr"]
    z = (cols[:, 3] - dist) / cols[:, 4]
    if np.abs(z).max() > Z_MAX:
        problems.append(f"max |z| {np.abs(z).max():.2f} exceeds {Z_MAX}")
    coverage = float(np.mean(np.abs(z) <= 3.0))
    if coverage < Z_COVERAGE_3SIGMA:
        problems.append(f"3-sigma coverage {coverage:.4f} below {Z_COVERAGE_3SIGMA}")
    if abs(z.mean()) > Z_MEAN_MAX:
        problems.append(f"mean z {z.mean():.3f} beyond +-{Z_MEAN_MAX}")
    return problems


def check_witness(doc: dict, n: int, points: int, margin: float, seed: int) -> list[str]:
    """Certificate points in SO(n) inside the embedded SO(3) block, sum-zero
    weights, and the quadratic form recomputed from eigvals angles."""
    problems = _expect(doc, kind="witness", group="son", n=n, m=points)
    if doc.get("seed", {}).get("seed") != seed:
        problems.append(f"seed {doc.get('seed')!r}, expected {seed}")
    mats = np.asarray(doc["points"], dtype=float).reshape(points, n, n)
    w = np.asarray(doc["weights"], dtype=float)
    eye = np.eye(n)
    if np.abs(np.einsum("pab,pcb->pac", mats, mats) - eye).max() > EXACT_TOL:
        problems.append("points are not orthogonal")
    if np.abs(np.linalg.det(mats) - 1.0).max() > EXACT_TOL:
        problems.append("points do not have det 1")
    outside = mats.copy()
    outside[:, :3, :3] = eye[:3, :3]
    if not (outside == eye).all():
        problems.append("points leave the embedded SO(3) block")
    if w.shape != (points,) or abs(w.sum()) > EXACT_TOL:
        return problems + [f"weights do not sum to 0 (sum {w.sum()!r})"]
    value = float(w @ son_distances(mats) @ w)
    if not abs(value - doc["value"]) <= REL_TOL * max(abs(value), 1.0):
        problems.append(f"value {doc['value']!r}, recomputed {value!r}")
    if not (value > margin and doc["value"] > margin):
        problems.append(f"value {doc['value']!r} does not exceed the margin {margin!r}")
    return problems
