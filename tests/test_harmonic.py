import math

import numpy as np
import pytest

from levy_groups import RngStream
from levy_groups.group_core import haar_son_batch, haar_su2_batch
from levy_groups.harmonic import (
    CoefficientTable,
    GroupTag,
    alpha_closed,
    alpha_monte_carlo,
    alpha_quadrature,
    angle_cdf,
    angle_density,
    chi,
    dim_irrep,
    partial_sum,
    trace_density_so3,
)
from levy_groups.quadrature import simpson_adaptive

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
        assert chi(GroupTag.SO3, 0, t) == 1.0
        assert chi(GroupTag.SU2, 0, t) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("l", [0, 1, 2, 5, 20])
def test_chi_at_identity_equals_dimension(l):
    assert chi(GroupTag.SO3, l, 0.0) == pytest.approx(2 * l + 1)
    assert chi(GroupTag.SU2, l, 0.0) == pytest.approx(l + 1)
    assert chi(GroupTag.SU2, l, math.pi) == pytest.approx((-1) ** l * (l + 1))


def test_chi_su2_value_at_right_angle():
    # sin(2t)/sin(t) at t = pi/2 vanishes
    assert chi(GroupTag.SU2, 1, math.pi / 2) == pytest.approx(0.0, abs=1e-14)


def test_chi_su2_limit_branch_is_continuous():
    for l in [1, 4, 9]:
        assert chi(GroupTag.SU2, l, 1e-9) == pytest.approx(l + 1, rel=1e-6)
        assert chi(GroupTag.SU2, l, math.pi - 1e-9) == pytest.approx(
            (-1) ** l * (l + 1), rel=1e-6
        )


def test_chi_so3_matches_the_cosine_sum():
    # SO(3) characters come through the double cover; compare with the
    # defining sum 1 + 2 sum_{m<=l} cos(mt)
    t = np.concatenate([np.linspace(0.0, math.pi, 2001), [1e-9, math.pi - 1e-9]])
    for l in range(51):
        direct = 1.0 + 2.0 * sum(np.cos(m * t) for m in range(1, l + 1))
        np.testing.assert_allclose(chi(GroupTag.SO3, l, t), direct, rtol=0, atol=1e-10)


def test_chi_vectorized_matches_scalar():
    t = np.linspace(0.0, math.pi, 7)
    for group in GroupTag:
        vals = chi(group, 3, t)
        assert vals.shape == t.shape
        for i, ti in enumerate(t):
            assert vals[i] == pytest.approx(chi(group, 3, float(ti)), abs=1e-12)


def test_chi_orthonormal_under_angle_density():
    # Weyl integration in angle coordinates, both groups, l,k <= 20
    for group in GroupTag:
        for l in range(0, 21, 4):
            for k in range(l, 21, 4):
                val = simpson_adaptive(
                    lambda t: chi(group, l, t) * chi(group, k, t) * angle_density(group, t),
                    0.0,
                    math.pi,
                    tol=1e-10,
                    panels=l + k + 3,
                )
                assert val == pytest.approx(1.0 if l == k else 0.0, abs=1e-8)


def test_characters_are_positive_definite():
    rng = RngStream(31, 0)
    q = haar_su2_batch(rng, 40)
    gram_angles = np.arccos(np.clip(q @ q.T, -1.0, 1.0))
    for l in [1, 2, 5]:
        m = chi(GroupTag.SU2, l, gram_angles)
        assert np.linalg.eigvalsh(0.5 * (m + m.T)).min() > -1e-8
    mats = haar_son_batch(3, 40, rng)
    tr = np.einsum("iab,jab->ij", mats, mats)
    gram_angles = np.arccos(np.clip((tr - 1.0) / 2.0, -1.0, 1.0))
    for l in [1, 2, 5]:
        m = chi(GroupTag.SO3, l, gram_angles)
        assert np.linalg.eigvalsh(0.5 * (m + m.T)).min() > -1e-8


# ---------------------------------------------------------------------------
# densities
# ---------------------------------------------------------------------------

def test_angle_density_boundary_values():
    assert angle_density(GroupTag.SO3, 0.0) == 0.0
    assert angle_density(GroupTag.SO3, math.pi) == pytest.approx(2.0 / math.pi)
    assert angle_density(GroupTag.SO3, -0.1) == 0.0
    assert angle_density(GroupTag.SO3, 3.2) == 0.0
    assert angle_density(GroupTag.SU2, math.pi / 2) == pytest.approx(2.0 / math.pi)


@pytest.mark.parametrize("group", list(GroupTag))
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
    from levy_groups.harmonic import trace_cdf_so3

    # derivative of the cdf recovers the density away from the singularity
    for y in [-0.5, 0.2, 1.0, 2.5]:
        h = 1e-6
        deriv = (trace_cdf_so3(y + h) - trace_cdf_so3(y - h)) / (2 * h)
        assert deriv == pytest.approx(trace_density_so3(y), rel=1e-4)


# ---------------------------------------------------------------------------
# coefficients
# ---------------------------------------------------------------------------

def test_alpha_closed_frozen_values():
    assert alpha_closed(GroupTag.SO3, 0) == pytest.approx(ALPHA_SO3_0, abs=1e-15)
    assert alpha_closed(GroupTag.SO3, 1) == pytest.approx(ALPHA_SO3_1, abs=1e-15)
    assert alpha_closed(GroupTag.SO3, 2) == pytest.approx(ALPHA_SO3_2, abs=1e-15)
    assert alpha_closed(GroupTag.SU2, 0) == pytest.approx(ALPHA_SU2_0, abs=1e-15)
    assert alpha_closed(GroupTag.SU2, 1) == pytest.approx(ALPHA_SU2_1, abs=1e-15)
    assert alpha_closed(GroupTag.SU2, 2) == 0.0
    assert alpha_closed(GroupTag.SU2, 6) == 0.0


def test_alpha_quadrature_frozen_values():
    assert alpha_quadrature(GroupTag.SO3, 2) == pytest.approx(ALPHA_SO3_2, abs=1e-9)
    assert alpha_quadrature(GroupTag.SO3, 0) == pytest.approx(ALPHA_SO3_0, abs=1e-9)
    assert alpha_quadrature(GroupTag.SO3, 1) == pytest.approx(ALPHA_SO3_1, abs=1e-9)
    assert alpha_quadrature(GroupTag.SU2, 2) == pytest.approx(0.0, abs=1e-9)
    assert alpha_quadrature(GroupTag.SU2, 0) == pytest.approx(ALPHA_SU2_0, abs=1e-9)


@pytest.mark.parametrize("group", list(GroupTag))
def test_alpha_closed_matches_quadrature(group):
    for l in range(0, 51, 7):
        assert abs(alpha_closed(group, l) - alpha_quadrature(group, l)) < 1e-8


def test_alpha_sign_patterns():
    for l in range(2, 51, 2):
        assert alpha_closed(GroupTag.SO3, l) > 0.0
        assert alpha_closed(GroupTag.SU2, l) == 0.0
    for l in range(1, 51, 2):
        assert alpha_closed(GroupTag.SO3, l) <= 0.0
        assert alpha_closed(GroupTag.SU2, l) <= 0.0
    for l in range(1, 51):
        assert alpha_closed(GroupTag.SU2, l) <= 0.0


def test_alpha_monte_carlo_smoke():
    est, se = alpha_monte_carlo(GroupTag.SO3, 2, 200_000, RngStream(32, 0))
    assert se > 0.0
    assert abs(est - ALPHA_SO3_2) < 4.0 * se
    est, se = alpha_monte_carlo(GroupTag.SU2, 1, 200_000, RngStream(32, 1))
    assert abs(est - ALPHA_SU2_1) < 4.0 * se


def test_alpha_monte_carlo_validates_input():
    with pytest.raises(ValueError):
        alpha_monte_carlo(GroupTag.SO3, 2, 999, RngStream(0, 0))
    with pytest.raises(ValueError):
        alpha_monte_carlo(GroupTag.SO3, -1, 2000, RngStream(0, 0))


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
        x = chi(GroupTag.SO3, l, tg) * chi(GroupTag.SO3, l, th)
        d_l = dim_irrep(GroupTag.SO3, l)
        est = d_l * x.mean()
        se = d_l * x.std(ddof=1) / math.sqrt(n)
        assert abs(est) < 3.0 * se


def test_dim_irrep():
    assert dim_irrep(GroupTag.SU2, 3) == 4
    assert dim_irrep(GroupTag.SO3, 3) == 7
    with pytest.raises(ValueError):
        dim_irrep(GroupTag.SO3, -1)


# ---------------------------------------------------------------------------
# partial sums
# ---------------------------------------------------------------------------

def test_partial_sum_lowest_order_su2():
    for t in [0.0, 0.7, 2.0, math.pi]:
        assert partial_sum(GroupTag.SU2, 0, t) == pytest.approx(math.pi / 2.0)


def test_partial_sum_l2_error_decreases():
    for group in GroupTag:
        errors = []
        for lmax in [0, 1, 3, 7, 15]:
            err = simpson_adaptive(
                lambda t: (partial_sum(group, lmax, t) - t) ** 2 * angle_density(group, t),
                0.0,
                math.pi,
                tol=1e-10,
                panels=2 * lmax + 3,
            )
            errors.append(err)
        assert all(a > b for a, b in zip(errors, errors[1:])), errors


def test_partial_sum_converges_at_midpoint():
    assert partial_sum(GroupTag.SO3, 50, math.pi / 2) == pytest.approx(
        math.pi / 2, abs=0.05
    )


# ---------------------------------------------------------------------------
# tables
# ---------------------------------------------------------------------------

def test_coefficient_table_compute_and_consistency():
    table = CoefficientTable.compute(
        GroupTag.SO3, lmax=4, mc_samples=50_000, rng=RngStream(34, 0)
    )
    row = table.rows[2]
    assert row.closed == pytest.approx(ALPHA_SO3_2)
    assert row.quadrature == pytest.approx(ALPHA_SO3_2, abs=1e-9)
    assert row.monte_carlo is not None
    assert row.stderr is not None and row.stderr > 0
    assert table.consistent(tol=1e-8, k_sigma=4.0)


def test_coefficient_table_requires_rng_for_mc():
    with pytest.raises(ValueError):
        CoefficientTable.compute(GroupTag.SO3, lmax=2, mc_samples=2000, rng=None)
