import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from levy_groups import SO3, SU2, RngStream, group_named, harmonic, lapack
from levy_groups.canonical import Table
from levy_groups.group_core import haar_son_batch, haar_su2_batch
from levy_groups.harmonic import (
    CoefficientRow,
    _characters,
    alpha_closed,
    alpha_monte_carlo,
    alpha_quadrature,
    coefficients,
    dim_irrep,
    monte_carlo_bytes,
)
from levy_groups.quadrature import simpson_adaptive
from oracles import angle_cdf, angle_density, chi, trace_cdf_so3, trace_density_so3

# Frozen targets.  The rational-pi forms were cross-checked against an
# independent scipy.integrate.quad evaluation of the defining integrals
# before being frozen here.
ALPHA_SO3_0 = math.pi / 2.0 + 2.0 / math.pi      # 2.2074160991624781
ALPHA_SO3_1 = -2.0 / math.pi                     # -0.63661977236758138
ALPHA_SO3_2 = 2.0 / (9.0 * math.pi)              # 0.070735530263064588
ALPHA_SU2_0 = math.pi / 2.0
ALPHA_SU2_1 = -16.0 / (9.0 * math.pi)            # -0.56588424210451671


# ---------------------------------------------------------------------------
# characters
# ---------------------------------------------------------------------------

def test_chi_trivial_representation_is_one():
    for t in [0.0, 0.5, 2.0, math.pi]:
        assert chi(SO3, 0, t) == 1.0
        assert chi(SU2, 0, t) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("l", [0, 1, 2, 5, 20])
def test_chi_at_identity_equals_dimension(l):
    assert chi(SO3, l, 0.0) == pytest.approx(2 * l + 1)
    assert chi(SU2, l, 0.0) == pytest.approx(l + 1)
    assert chi(SU2, l, math.pi) == pytest.approx((-1) ** l * (l + 1))


def test_chi_su2_value_at_right_angle():
    # sin(2t)/sin(t) at t = pi/2 vanishes
    assert chi(SU2, 1, math.pi / 2) == pytest.approx(0.0, abs=1e-14)


def _chi_su2_mp(l, t):
    """sin((l+1)t)/sin(t) at the float t, to 40 digits."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        t = mpmath.mpf(t)
        return float(mpmath.sin((l + 1) * t) / mpmath.sin(t))


def test_chi_su2_limit_branch_is_continuous():
    # near pi, sin((l+1)t)/sin(t) cancels (off by up to 1.3e-6 before the
    # reflection to pi - t); both ends against a 40-digit reference
    for l in [1, 4, 9]:
        for t in (1e-9, math.pi - 1e-9):
            assert abs(chi(SU2, l, t) - _chi_su2_mp(l, t)) <= 1e-11
    for l in range(51):
        for gap in np.geomspace(3e-9, 0.2, 25):
            t = math.pi - gap
            assert abs(chi(SU2, l, t) - _chi_su2_mp(l, t)) <= 1e-11, (l, gap)


def test_chi_so3_matches_the_cosine_sum():
    # SO(3) characters come through the double cover; compare with the
    # defining sum 1 + 2 sum_{m<=l} cos(mt)
    t = np.concatenate([np.linspace(0.0, math.pi, 2001), [1e-9, math.pi - 1e-9]])
    for l in range(51):
        direct = 1.0 + 2.0 * sum(np.cos(m * t) for m in range(1, l + 1))
        np.testing.assert_allclose(chi(SO3, l, t), direct, rtol=0, atol=1e-10)


@pytest.mark.parametrize("group", [SU2, SO3], ids=["SU2", "SO3"])
def test_character_recurrence_matches_chi(group):
    # chi_{l+1} = 2 cos(t) chi_l - chi_{l-1}, as the Monte Carlo rows use it;
    # largest gap 5.6e-12 on SO(3), 3.1e-12 on SU(2)
    near = np.array([1e-12, 5e-13, 1e-13, 0.0])
    t = np.concatenate([np.linspace(0.0, math.pi, 200_001), near, math.pi - near])
    for l, values in enumerate(_characters(group, np.cos(t), 50)):
        np.testing.assert_allclose(values, chi(group, l, t), rtol=0, atol=1e-11)
    assert l == 50


@pytest.mark.parametrize("group", [SU2, SO3], ids=["SU2", "SO3"])
def test_characters_of_stacked_cosines_match_their_own(group):
    # alpha_monte_carlo's use: one generator on the (2, P) stack of both
    # sides' cosines, each row bit for bit the characters of its own cosines
    c_g, c_h = np.cos(np.linspace(0.0, math.pi, 101)), np.cos(np.linspace(0.3, 2.0, 101))
    stacked = _characters(group, np.stack((c_g, c_h)), 20)
    own = zip(_characters(group, c_g, 20), _characters(group, c_h, 20))
    for chi, (g_own, h_own) in zip(stacked, own):
        assert np.array_equal(chi[0], g_own) and np.array_equal(chi[1], h_own)


def test_chi_vectorized_matches_scalar():
    t = np.linspace(0.0, math.pi, 7)
    for group in (SU2, SO3):
        vals = chi(group, 3, t)
        assert vals.shape == t.shape
        for i, ti in enumerate(t):
            assert vals[i] == pytest.approx(chi(group, 3, float(ti)), abs=1e-12)


def test_chi_orthonormal_under_angle_density():
    # Weyl integration in angle coordinates, both groups, l,k <= 20.  Each
    # integrand is a cosine polynomial of degree at most 42 in t, which one
    # 128-node Gauss-Legendre rule integrates to rounding
    nodes, weights = np.polynomial.legendre.leggauss(128)
    t, w = 0.5 * math.pi * (nodes + 1.0), 0.5 * math.pi * weights
    for group in (SU2, SO3):
        density = w * angle_density(group, t)
        for l in range(0, 21, 4):
            for k in range(l, 21, 4):
                val = float(np.sum(chi(group, l, t) * chi(group, k, t) * density))
                assert val == pytest.approx(1.0 if l == k else 0.0, abs=1e-12)


def test_characters_are_positive_definite():
    rng = RngStream(31, 0)
    q = haar_su2_batch(rng, 40)
    gram_angles = np.arccos(np.clip(q @ q.T, -1.0, 1.0))
    for l in [1, 2, 5]:
        m = chi(SU2, l, gram_angles)
        assert np.linalg.eigvalsh(0.5 * (m + m.T)).min() > -1e-8
    mats = haar_son_batch(3, 40, rng)
    tr = np.einsum("iab,jab->ij", mats, mats)
    gram_angles = np.arccos(np.clip((tr - 1.0) / 2.0, -1.0, 1.0))
    for l in [1, 2, 5]:
        m = chi(SO3, l, gram_angles)
        assert np.linalg.eigvalsh(0.5 * (m + m.T)).min() > -1e-8


# ---------------------------------------------------------------------------
# densities
# ---------------------------------------------------------------------------

def test_angle_density_boundary_values():
    assert angle_density(SO3, 0.0) == 0.0
    assert angle_density(SO3, math.pi) == pytest.approx(2.0 / math.pi)
    assert angle_density(SO3, -0.1) == 0.0
    assert angle_density(SO3, 3.2) == 0.0
    assert angle_density(SU2, math.pi / 2) == pytest.approx(2.0 / math.pi)


@pytest.mark.parametrize("group", [SU2, SO3], ids=["SU2", "SO3"])
def test_angle_density_normalization(group):
    total = simpson_adaptive(lambda t: angle_density(group, t), 0.0, math.pi, tol=1e-12)
    assert abs(total - 1.0) < 1e-10


def test_trace_density_values():
    assert trace_density_so3(3.0) == 0.0
    assert trace_density_so3(1.0) == pytest.approx(1.0 / (2.0 * math.pi))
    assert trace_density_so3(-2.0) == 0.0
    assert trace_density_so3(4.0) == 0.0
    assert math.isinf(trace_density_so3(-1.0))


def test_trace_density_normalization_with_singularity():
    # split at y = 1; y = -1 + u^2 removes the pole at y = -1 and
    # y = 3 - v^2 removes the square-root corner at y = 3, leaving both
    # substituted integrands smooth
    def lower(u):
        if u == 0.0:
            return 2.0 / math.pi  # continuous limit of f(-1+u^2) 2u
        return trace_density_so3(-1.0 + u * u) * 2.0 * u

    def upper(v):
        return trace_density_so3(3.0 - v * v) * 2.0 * v

    s = math.sqrt(2.0)
    total = simpson_adaptive(lower, 0.0, s, tol=1e-10) + simpson_adaptive(
        upper, 0.0, s, tol=1e-10
    )
    assert abs(total - 1.0) < 1e-8


def test_trace_cdf_matches_density():
    # derivative of the cdf recovers the density away from the singularity
    for y in [-0.5, 0.2, 1.0, 2.5]:
        h = 1e-6
        deriv = (trace_cdf_so3(y + h) - trace_cdf_so3(y - h)) / (2 * h)
        assert deriv == pytest.approx(trace_density_so3(y), rel=1e-4)


# ---------------------------------------------------------------------------
# coefficients
# ---------------------------------------------------------------------------

def test_alpha_closed_frozen_values():
    assert alpha_closed(SO3, 0) == pytest.approx(ALPHA_SO3_0, abs=1e-15)
    assert alpha_closed(SO3, 1) == pytest.approx(ALPHA_SO3_1, abs=1e-15)
    assert alpha_closed(SO3, 2) == pytest.approx(ALPHA_SO3_2, abs=1e-15)
    assert alpha_closed(SU2, 0) == pytest.approx(ALPHA_SU2_0, abs=1e-15)
    assert alpha_closed(SU2, 1) == pytest.approx(ALPHA_SU2_1, abs=1e-15)
    assert alpha_closed(SU2, 2) == 0.0
    assert alpha_closed(SU2, 6) == 0.0


def test_alpha_quadrature_frozen_values():
    assert alpha_quadrature(SO3, 2) == pytest.approx(ALPHA_SO3_2, abs=1e-9)
    assert alpha_quadrature(SO3, 0) == pytest.approx(ALPHA_SO3_0, abs=1e-9)
    assert alpha_quadrature(SO3, 1) == pytest.approx(ALPHA_SO3_1, abs=1e-9)
    assert alpha_quadrature(SU2, 2) == pytest.approx(0.0, abs=1e-9)
    assert alpha_quadrature(SU2, 0) == pytest.approx(ALPHA_SU2_0, abs=1e-9)


def so3_series(l: int) -> Fraction:
    """alpha_closed(SO3, l) / (2/pi), l >= 1, as the two series the closed
    form telescopes, summed exactly."""
    total = Fraction(1)
    for m in range(1, l + 1):
        total += Fraction((-1) ** m - 1, m * m)
    for m in range(2, l + 1):
        total += Fraction(m * m + 1, (m * m - 1) ** 2) * ((-1) ** m + 1)
    return total


def test_so3_series_telescope_to_the_closed_form():
    for l in range(1, 61):
        assert so3_series(l) == (Fraction(1, (l + 1) ** 2) if l % 2 == 0 else Fraction(-1, l * l))


def test_alpha_closed_so3_is_the_closed_form_to_rounding():
    # to rounding at every l: no cancelling series is summed in floats
    mpmath = pytest.importorskip("mpmath")
    worst = 0.0
    with mpmath.workdps(40):
        for l in [*range(1, 3001), *range(99_000, 100_001)]:
            want = 2 / mpmath.pi * (mpmath.mpf(1) / (l + 1) ** 2 if l % 2 == 0
                                    else -mpmath.mpf(1) / l ** 2)
            worst = max(worst, float(abs(alpha_closed(SO3, l) / want - 1)))
    assert worst <= 4e-16


@pytest.mark.parametrize("group", [SU2, SO3], ids=["SU2", "SO3"])
def test_alpha_closed_matches_quadrature(group):
    # largest gap at tol 1e-10: 9.98e-13 on SO(3), 1.59e-13 on SU(2)
    for l in range(51):
        assert abs(alpha_closed(group, l) - alpha_quadrature(group, l)) < 2e-12


@pytest.mark.parametrize("group", [SU2, SO3], ids=["SU2", "SO3"])
def test_quadrature_integrand_is_character_times_density(group):
    # alpha_quadrature integrates (2/pi) t sin(k s) sin(s), the Weyl-reduced
    # form of t chi_l(t) (angle density)(t); tie it to chi and angle_density
    near = [1e-12, 1e-10, 1e-9]
    t = np.concatenate([np.linspace(0.0, math.pi, 20_001), near,
                        [math.pi - e for e in near]])
    so3 = group is SO3
    s = 0.5 * t if so3 else t
    for l in range(51):
        k = 2 * l + 1 if so3 else l + 1
        reduced = (2.0 / math.pi) * t * np.sin(k * s) * np.sin(s)
        direct = t * chi(group, l, t) * angle_density(group, t)
        np.testing.assert_allclose(direct, reduced, rtol=0, atol=1e-14)


def test_alpha_sign_patterns():
    for l in range(2, 51, 2):
        assert alpha_closed(SO3, l) > 0.0
        assert alpha_closed(SU2, l) == 0.0
    for l in range(1, 51, 2):
        assert alpha_closed(SO3, l) <= 0.0
        assert alpha_closed(SU2, l) <= 0.0
    for l in range(1, 51):
        assert alpha_closed(SU2, l) <= 0.0


def test_alpha_monte_carlo_smoke():
    estimates, stderrs = alpha_monte_carlo(SO3, 2, 200_000, RngStream(32, 0))
    est, se = estimates[2], stderrs[2]
    assert se > 0.0
    assert abs(est - ALPHA_SO3_2) < 4.0 * se
    estimates, stderrs = alpha_monte_carlo(SU2, 1, 200_000, RngStream(32, 1))
    assert abs(estimates[1] - ALPHA_SU2_1) < 4.0 * stderrs[1]


def _monte_carlo_per_l(group, l, n, rng):
    """The one-l estimator as a direct formula: pair k is rows 2k and 2k + 1
    of one draw, angles by arccos, characters by ``chi``."""
    w = haar_su2_batch(rng, 2 * n)
    u, v = w[0::2], w[1::2]
    dot = np.einsum("ij,ij->i", u, v)
    if group is SO3:
        u0, v0, dot = (2.0 * c * c - 1.0 for c in (u[:, 0], v[:, 0], dot))
    else:
        u0, v0 = u[:, 0], v[:, 0]
    tg, th, tgh = (np.arccos(np.clip(c, -1.0, 1.0)) for c in (u0, v0, dot))
    x = tgh * chi(group, l, tg) * chi(group, l, th)
    d_l = dim_irrep(group, l)
    return d_l * x.mean(), d_l * x.std(ddof=1) / math.sqrt(n)


@pytest.mark.parametrize("group", [SU2, SO3], ids=["SU2", "SO3"])
def test_monte_carlo_rows_share_the_draw_of_one_l(group):
    # at lmax = l, row l is the direct one-l estimator on the same stream up
    # to rounding.  The scale is max(|value|, 1): on SU(2) the even-l
    # estimates are noise around 0 (2e-16 apart in absolute terms, up to
    # 5e-13 relative)
    for l in range(9):
        estimates, stderrs = alpha_monte_carlo(group, l, 4000, RngStream(3, l))
        est, se = _monte_carlo_per_l(group, l, 4000, RngStream(3, l))
        assert abs(estimates[l] - est) <= 1e-14 * max(abs(est), 1.0)
        assert stderrs[l] == pytest.approx(se, rel=1e-12)


@pytest.mark.parametrize("group", [SU2, SO3], ids=["SU2", "SO3"])
def test_monte_carlo_table_within_five_sigma(group):
    # every row of one shared draw; largest |z| over seeds 1-20 was 3.17
    for seed in range(1, 6):
        estimates, stderrs = alpha_monte_carlo(group, 50, 100_000, RngStream(seed, 0))
        assert len(estimates) == len(stderrs) == 51
        for l, (est, se) in enumerate(zip(estimates, stderrs)):
            assert se > 0.0
            assert abs(est - alpha_closed(group, l)) <= 5.0 * se, (seed, l)


@pytest.mark.parametrize("mc_samples, chunk", [(0, 0), (1000, 1000), (10 ** 6, 1 << 14)])
def test_coeffs_is_charged_one_monte_carlo_chunk_at_most(mc_samples, chunk):
    rows = monte_carlo_bytes(50, 0)
    assert monte_carlo_bytes(50, mc_samples) - rows == chunk * (monte_carlo_bytes(50, 1) - rows)


@pytest.mark.parametrize("group", [SU2, SO3], ids=["su2", "so3"])
@pytest.mark.parametrize("n_samples", [10 ** 5, 10 ** 6])
def test_monte_carlo_peaks_within_its_charge(group, n_samples):
    # the first call makes about 1 MB of one-time allocations
    alpha_monte_carlo(group, 2, 1000, RngStream(94, 0))
    tracemalloc.start()
    try:
        alpha_monte_carlo(group, 50, n_samples, RngStream(94, 1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= monte_carlo_bytes(50, n_samples) - monte_carlo_bytes(50, 0)  # the block's


@pytest.mark.parametrize("group", [SU2, SO3], ids=["su2", "so3"])
def test_monte_carlo_does_not_depend_on_the_blas_thread_count(group):
    # several blocks and a short last one; the sums are numpy reductions
    before = lapack.set_threads(1)
    try:
        one = alpha_monte_carlo(group, 20, 40_000, RngStream(95, 0))
        lapack.set_threads(2)
        two = alpha_monte_carlo(group, 20, 40_000, RngStream(95, 0))
    finally:
        if before is not None:
            lapack.set_threads(before)
    assert one == two


@pytest.mark.parametrize("group", [SU2, SO3], ids=["su2", "so3"])
def test_monte_carlo_does_not_depend_on_the_block_size(group, monkeypatch):
    # the pairs are consecutive rows of the stream in every block; only the
    # grouping of the per-block sums moves, by rounding
    def at(chunk):
        monkeypatch.setattr(harmonic, "_MC_CHUNK", chunk)
        return np.array(alpha_monte_carlo(group, 50, 100_003, RngStream(96, 0)))

    ref = at(1 << 14)
    for chunk in (1 << 12, 1 << 16):
        assert np.all(np.abs(at(chunk) - ref) <= 1e-13 * np.abs(ref)), chunk


def test_alpha_monte_carlo_validates_input():
    with pytest.raises(ValueError):
        alpha_monte_carlo(SO3, 2, 999, RngStream(0, 0))
    with pytest.raises(ValueError):
        alpha_monte_carlo(SO3, -1, 2000, RngStream(0, 0))


@pytest.mark.parametrize("group", [SU2, SO3])
def test_alpha_closed_and_quadrature_reject_negative_l(group):
    for alpha in (alpha_closed, alpha_quadrature):
        with pytest.raises(ValueError, match="l must be >= 0"):
            alpha(group, -1)


def test_characters_orthogonal_to_constants():
    # the double Haar average of chi_l(g) chi_l(h), i.e. the coefficient
    # computation with the distance factor replaced by 1, vanishes
    rng = RngStream(33, 0)
    n = 100_000
    u = haar_su2_batch(rng, n)
    v = haar_su2_batch(rng, n)
    tg = np.arccos(np.clip(2.0 * u[:, 0] ** 2 - 1.0, -1.0, 1.0))
    th = np.arccos(np.clip(2.0 * v[:, 0] ** 2 - 1.0, -1.0, 1.0))
    for l in [1, 2, 3]:
        x = chi(SO3, l, tg) * chi(SO3, l, th)
        d_l = dim_irrep(SO3, l)
        est = d_l * x.mean()
        se = d_l * x.std(ddof=1) / math.sqrt(n)
        assert abs(est) < 3.0 * se


def test_dim_irrep():
    assert dim_irrep(SU2, 3) == 4
    assert dim_irrep(SO3, 3) == 7
    with pytest.raises(ValueError):
        dim_irrep(SO3, -1)


def test_formulas_reject_groups_without_them():
    so5 = group_named("son", 5)
    for call in (lambda g: chi(g, 1, 0.5), lambda g: dim_irrep(g, 1),
                 lambda g: alpha_closed(g, 1),
                 lambda g: alpha_monte_carlo(g, 1, 1000, RngStream(0, 0))):
        with pytest.raises(ValueError, match=r"SO\(5\)"):
            call(so5)
        with pytest.raises(ValueError, match="'su2'"):  # a name is not a group
            call("su2")


# ---------------------------------------------------------------------------
# tables
# ---------------------------------------------------------------------------

def test_coefficient_table_compute_and_consistency():
    table = coefficients(SO3, lmax=4, mc_samples=50_000, rng=RngStream(34, 0))
    assert type(table) is Table and table.row is CoefficientRow and len(table) == 5
    row = table[2]
    assert row.closed == pytest.approx(ALPHA_SO3_2)
    assert row.quadrature == pytest.approx(ALPHA_SO3_2, abs=1e-9)
    assert row.monte_carlo is not None
    assert row.stderr is not None and row.stderr > 0
    for r in table:  # closed vs quadrature, and Monte Carlo within 4 sigma
        assert abs(r.closed - r.quadrature) <= 1e-8
        assert abs(r.monte_carlo - r.closed) <= 4.0 * r.stderr
    # the Monte Carlo column is one shared draw for every row
    estimates, stderrs = alpha_monte_carlo(SO3, 4, 50_000, RngStream(34, 0))
    assert table.monte_carlo.tolist() == estimates
    assert table.stderr.tolist() == stderrs


def test_coefficient_table_without_monte_carlo_holds_none():
    table = coefficients(SU2, lmax=3)
    assert table.l.tolist() == [0, 1, 2, 3] and table.dim.tolist() == [1, 2, 3, 4]
    assert table[3] == CoefficientRow(3, 4, alpha_closed(SU2, 3), alpha_quadrature(SU2, 3),
                                      None, None)
    assert [r.monte_carlo for r in table] == [None] * 4


def test_coefficient_table_requires_rng_for_mc():
    with pytest.raises(ValueError):
        coefficients(SO3, lmax=2, mc_samples=2000, rng=None)
