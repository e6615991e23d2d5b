import math

import numpy as np
import pytest
from scipy.linalg import block_diag, logm
from scipy.stats import kstest, ks_2samp

from levy_groups import (
    SO3,
    SU2,
    RngStream,
    SOnElement,
    SU2Element,
    ad_morphism,
    dist_son,
    dist_su2,
    embed_so3,
    exp_so3,
    group_named,
    haar_son,
    haar_su2,
    pairwise_distance_matrix,
    rotation_angle_so3,
)
from levy_groups.group_core import (
    SO3_GENERATORS,
    ad_matrix,
    haar_son_batch,
    haar_su2_batch,
    so3_pairwise_distances,
    su2_pairwise_distances,
)
from levy_groups.harmonic import GroupTag, angle_cdf, trace_cdf_so3


def delta_rotation(t):
    """The distinguished one-parameter rotation, written out directly."""
    return np.array([
        [math.cos(t), math.sin(t), 0.0],
        [-math.sin(t), math.cos(t), 0.0],
        [0.0, 0.0, 1.0],
    ])


# ---------------------------------------------------------------------------
# element types
# ---------------------------------------------------------------------------

def test_su2_rejects_non_unit_quadruple():
    with pytest.raises(ValueError):
        SU2Element(1.0, 1.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        SU2Element(1.0 + 1e-6, 0.0, 0.0, 0.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            SU2Element(1.0, bad, 0.0, 0.0)


def test_su2_product_preserves_norm():
    rng = RngStream(0, 1)
    g = haar_su2(rng)
    for _ in range(200):
        g = g * haar_su2(rng)
    v = g.vector
    assert abs(v @ v - 1.0) < 1e-12


def test_su2_product_matches_matrix_product():
    rng = RngStream(0, 2)
    for _ in range(20):
        g, h = haar_su2(rng), haar_su2(rng)
        assert np.abs((g * h).matrix - g.matrix @ h.matrix).max() < 1e-14


def test_su2_inverse_and_identity():
    rng = RngStream(0, 3)
    e = SU2Element.identity()
    for _ in range(10):
        g = haar_su2(rng)
        assert dist_su2(g * g.inverse(), e) < 1e-7
        assert np.abs((g.inverse()).matrix - np.conj(g.matrix.T)).max() < 1e-14


def test_son_rejects_bad_matrices():
    with pytest.raises(ValueError):
        SOnElement(np.eye(3) * 1.5)
    with pytest.raises(ValueError):
        SOnElement(np.diag([1.0, 1.0, -1.0]))  # det = -1
    with pytest.raises(ValueError):
        SOnElement(np.eye(1))
    for bad in (math.nan, math.inf):
        m = np.eye(3)
        m[0, 1] = bad
        with pytest.raises(ValueError):
            SOnElement(m)


def test_son_entries_are_frozen():
    g = SOnElement.identity(3)
    with pytest.raises(ValueError):
        g.entries[0, 0] = 2.0


# ---------------------------------------------------------------------------
# Haar sampling
# ---------------------------------------------------------------------------

def test_haar_su2_unit_norm():
    q = haar_su2_batch(RngStream(1, 0), 1000)
    assert np.abs((q ** 2).sum(axis=1) - 1.0).max() < 1e-12


def test_haar_su2_first_coordinate_moments():
    # Var(a1) = 1/4: oracle by integrating cos^2 against the theta marginal
    from levy_groups.quadrature import simpson_adaptive

    var = simpson_adaptive(
        lambda t: math.cos(t) ** 2 * (2.0 / math.pi) * math.sin(t) ** 2, 0.0, math.pi
    )
    assert abs(var - 0.25) < 1e-10
    n = 100_000
    q = haar_su2_batch(RngStream(2, 0), n)
    assert abs(q[:, 0].mean()) < 3.0 * math.sqrt(var / n)


def test_haar_su2_theta_density():
    q = haar_su2_batch(RngStream(3, 0), 100_000)
    theta = np.arccos(np.clip(q[:, 0], -1.0, 1.0))
    assert kstest(theta, lambda t: angle_cdf(GroupTag.SU2, t)).pvalue > 0.01


def test_haar_so3_trace_and_angle_densities():
    mats = haar_son_batch(3, 100_000, RngStream(4, 0))
    traces = np.trace(mats, axis1=-2, axis2=-1)
    assert kstest(traces, trace_cdf_so3).pvalue > 0.01
    angles = np.arccos(np.clip((traces - 1.0) / 2.0, -1.0, 1.0))
    assert kstest(angles, lambda t: angle_cdf(GroupTag.SO3, t)).pvalue > 0.01


def test_haar_so2_angle_uniform():
    mats = haar_son_batch(2, 50_000, RngStream(5, 0))
    angles = np.arctan2(mats[:, 1, 0], mats[:, 0, 0]) % (2.0 * math.pi)
    assert kstest(angles, lambda t: t / (2.0 * math.pi)).pvalue > 0.01


def test_haar_son_left_invariance():
    rng = RngStream(6, 0)
    h = haar_son(4, rng)
    for _ in range(10):
        g, k = haar_son(4, rng), haar_son(4, rng)
        assert abs(dist_son(h * g, h * k) - dist_son(g, k)) < 1e-9


def test_haar_so3_via_ad_matches_qr_sampler_in_law():
    ad_mats = ad_matrix(haar_su2_batch(RngStream(8, 0), 100_000))
    qr_mats = haar_son_batch(3, 100_000, RngStream(8, 1))
    t1 = np.trace(ad_mats, axis1=-2, axis2=-1)
    t2 = np.trace(qr_mats, axis1=-2, axis2=-1)
    assert ks_2samp(t1, t2).pvalue > 0.01
    angles = np.arccos(np.clip((t1 - 1.0) / 2.0, -1.0, 1.0))
    assert kstest(angles, lambda t: angle_cdf(GroupTag.SO3, t)).pvalue > 0.01


# ---------------------------------------------------------------------------
# covering map
# ---------------------------------------------------------------------------

def test_ad_kernel_is_plus_minus_identity():
    e = SU2Element.identity()
    assert np.abs(ad_morphism(e).entries - np.eye(3)).max() == 0.0
    assert np.abs(ad_morphism(-e).entries - np.eye(3)).max() < 1e-15


@pytest.mark.parametrize("psi", [0.1, 0.5, 1.0, math.pi / 3, 2.5])
def test_ad_of_diagonal_subgroup_rotates_third_axis(psi):
    g = SU2Element(math.cos(psi), math.sin(psi), 0.0, 0.0)
    expected = np.array([
        [math.cos(2 * psi), -math.sin(2 * psi), 0.0],
        [math.sin(2 * psi), math.cos(2 * psi), 0.0],
        [0.0, 0.0, 1.0],
    ])
    assert np.abs(ad_morphism(g).entries - expected).max() < 1e-12


def test_ad_is_a_homomorphism():
    rng = RngStream(9, 0)
    for _ in range(20):
        g, h = haar_su2(rng), haar_su2(rng)
        lhs = ad_morphism(g * h).entries
        rhs = ad_morphism(g).entries @ ad_morphism(h).entries
        assert np.abs(lhs - rhs).max() < 1e-10
        prod = ad_morphism(g).entries @ ad_morphism(g.inverse()).entries
        assert np.abs(prod - np.eye(3)).max() < 1e-10


def test_double_cover_angle_relation():
    rng = RngStream(10, 0)
    for _ in range(50):
        g = haar_su2(rng)
        t = dist_su2(g, SU2Element.identity())
        angle = rotation_angle_so3(ad_morphism(g))
        assert abs(angle - min(2 * t, 2 * math.pi - 2 * t)) < 1e-9


# ---------------------------------------------------------------------------
# distances
# ---------------------------------------------------------------------------

def test_dist_su2_basic_values():
    e = SU2Element.identity()
    rng = RngStream(13, 0)
    g = haar_su2(rng)
    assert dist_su2(g, g) == 0.0
    assert dist_su2(e, -e) == pytest.approx(math.pi)
    for psi in [0.0, 0.3, 1.0, 2.0, math.pi]:
        h = SU2Element(math.cos(psi), math.sin(psi), 0.0, 0.0)
        assert dist_su2(e, h) == pytest.approx(psi, abs=1e-12)


def test_dist_su2_against_matrix_log_oracle():
    # |log(g h^-1)| in the -tr(XY)/2 norm, via scipy's matrix logarithm
    rng = RngStream(14, 0)
    for _ in range(10):
        g, h = haar_su2(rng), haar_su2(rng)
        x = logm((g * h.inverse()).matrix)
        oracle = math.sqrt(max(0.0, -0.5 * np.trace(x @ x).real))
        assert abs(dist_su2(g, h) - oracle) < 1e-8


def test_rotation_angle_so3_values():
    assert rotation_angle_so3(SOnElement.identity(3)) == 0.0
    assert rotation_angle_so3(SOnElement(np.diag([1.0, -1.0, -1.0]))) == pytest.approx(math.pi)
    for t in [0.0, 0.2, 1.3, 2.9, math.pi]:
        assert rotation_angle_so3(exp_so3(t, 1)) == pytest.approx(t, abs=1e-12)
    with pytest.raises(ValueError):
        rotation_angle_so3(SOnElement.identity(4))


def test_dist_son_restriction_and_two_blocks():
    for n in [4, 5, 7]:
        for t in [0.1, 1.0, 2.5, math.pi]:
            g = SOnElement(block_diag(delta_rotation(t), np.eye(n - 3)))
            assert dist_son(g, SOnElement.identity(n)) == pytest.approx(t, abs=1e-10)
    for s, t in [(0.4, 1.1), (2.0, 3.0), (math.pi, 1.0)]:
        g = SOnElement(block_diag(delta_rotation(s)[:2, :2], delta_rotation(t)[:2, :2], np.eye(1)))
        want = math.hypot(s, t)
        assert dist_son(g, SOnElement.identity(5)) == pytest.approx(want, abs=1e-10)
        # independent route: principal matrix logarithm
        x = logm(g.entries)
        oracle = math.sqrt(max(0.0, -0.5 * np.trace(x @ x).real))
        assert abs(dist_son(g, SOnElement.identity(5)) - oracle) < 1e-8


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_son_distances_match_logm_near_zero_and_pi(n):
    # relative at small angles, where the logm oracle is itself off by
    # about 5e-8 of a 1e-12 angle; never looser than the 1e-8 above
    e = SOnElement.identity(n)
    for t in [1e-12, 1e-9, 1e-6, 1e-4, math.pi - 1e-9, math.pi]:
        block = delta_rotation(t)[:2, :2]
        for planes in (1, 2):
            m = np.eye(n)
            for k in range(planes):
                m[2 * k:2 * k + 2, 2 * k:2 * k + 2] = block
            x = logm(m)
            oracle = math.sqrt(max(0.0, -0.5 * np.trace(x @ x).real))
            g = SOnElement(m)
            x3 = np.stack([e.entries, m, e.entries])
            d = pairwise_distance_matrix(group_named("son", n), x3)
            for got in (d[0, 1], d[1, 0], d[1, 2], d[2, 1], dist_son(g, e), dist_son(e, g)):
                assert abs(got - oracle) <= min(1e-8, 1e-7 * oracle), (t, planes, got, oracle)


def test_dist_son_errors_and_scale():
    g = SOnElement.identity(3)
    h = SOnElement.identity(4)
    with pytest.raises(ValueError):
        dist_son(g, h)
    with pytest.raises(ValueError):
        dist_son(g, g, scale=0.0)
    rng = RngStream(15, 0)
    a, b = haar_son(3, rng), haar_son(3, rng)
    assert dist_son(a, b, scale=2.5) == pytest.approx(2.5 * dist_son(a, b), rel=1e-14)
    assert dist_son(a, a) == 0.0


def test_dist_son_3_equals_rotation_angle():
    rng = RngStream(16, 0)
    for _ in range(25):
        g, h = haar_son(3, rng), haar_son(3, rng)
        angle = rotation_angle_so3(SOnElement(g.entries @ h.entries.T))
        assert abs(dist_son(g, h) - angle) < 1e-10


# ---------------------------------------------------------------------------
# embedding and one-parameter subgroups
# ---------------------------------------------------------------------------

def test_embed_so3_structure():
    assert np.array_equal(embed_so3(np.eye(3), 6), np.eye(6))
    g = exp_so3(math.pi / 2, 1)
    assert dist_son(SOnElement(embed_so3(g.entries, 5)), SOnElement.identity(5)) == pytest.approx(
        math.pi / 2, abs=1e-12
    )
    with pytest.raises(ValueError):
        embed_so3(g.entries, 3)
    with pytest.raises(ValueError):
        embed_so3(np.eye(4), 6)
    # stacked rotations embed row by row
    mats = haar_son_batch(3, 4, RngStream(17, 1))
    stacked = embed_so3(mats, 5)
    assert stacked.shape == (4, 5, 5)
    for r, big in zip(mats, stacked):
        assert np.array_equal(big, embed_so3(r, 5))


def test_embed_so3_is_a_homomorphism_and_isometry():
    rng = RngStream(17, 0)
    for n in [4, 7]:
        for _ in range(5):
            g, h = haar_son(3, rng), haar_son(3, rng)
            eg, eh = embed_so3(g.entries, n), embed_so3(h.entries, n)
            assert np.abs(embed_so3((g * h).entries, n) - eg @ eh).max() < 1e-14
            assert abs(dist_son(SOnElement(eg), SOnElement(eh)) - dist_son(g, h)) < 1e-10


def test_exp_so3_matches_rotation_block():
    assert np.array_equal(exp_so3(0.0, 1).entries, np.eye(3))
    for t in [0.0, 0.7, 1.9, math.pi]:
        assert np.abs(exp_so3(t, 1).entries - delta_rotation(t)).max() < 1e-12
    assert np.abs(exp_so3(math.pi, 1).entries - np.diag([-1.0, -1.0, 1.0])).max() < 1e-12


def test_exp_so3_one_parameter_property():
    for k in [1, 2, 3]:
        a = SO3_GENERATORS[k]
        # orthonormal generators under <X,Y> = -tr(XY)/2
        assert abs(-0.5 * np.trace(a @ a) - 1.0) < 1e-14
        for s, t in [(0.3, 0.4), (1.0, 2.0), (2.0, 2.0)]:
            lhs = (exp_so3(s, k) * exp_so3(t, k)).entries
            assert np.abs(lhs - exp_so3(s + t, k).entries).max() < 1e-10
    with pytest.raises(ValueError):
        exp_so3(1.0, 4)


# ---------------------------------------------------------------------------
# metric invariants
# ---------------------------------------------------------------------------

def test_bi_invariance_su2():
    rng = RngStream(18, 0)
    for _ in range(20):
        g, h, k = haar_su2(rng), haar_su2(rng), haar_su2(rng)
        d = dist_su2(g, k)
        assert abs(dist_su2(h * g, h * k) - d) < 1e-9
        assert abs(dist_su2(g * h, k * h) - d) < 1e-9


@pytest.mark.parametrize("n", [3, 5])
def test_bi_invariance_and_class_function_son(n):
    rng = RngStream(19, n)
    e = SOnElement.identity(n)
    for _ in range(10):
        g, h, k = haar_son(n, rng), haar_son(n, rng), haar_son(n, rng)
        d = dist_son(g, k)
        assert abs(dist_son(h * g, h * k) - d) < 1e-9
        assert abs(dist_son(g * h, k * h) - d) < 1e-9
        conj = h * g * h.inverse()
        assert abs(dist_son(conj, e) - dist_son(g, e)) < 1e-9


def test_class_function_su2():
    rng = RngStream(20, 0)
    e = SU2Element.identity()
    for _ in range(20):
        g, h = haar_su2(rng), haar_su2(rng)
        assert abs(dist_su2(h * g * h.inverse(), e) - dist_su2(g, e)) < 1e-9


def test_metric_axioms_on_random_triples():
    rng = RngStream(21, 0)
    for _ in range(20):
        g, h, k = (haar_su2(rng) for _ in range(3))
        assert dist_su2(g, h) == pytest.approx(dist_su2(h, g), abs=1e-12)
        assert dist_su2(g, h) <= dist_su2(g, k) + dist_su2(k, h) + 1e-12
    for n in [3, 4]:
        for _ in range(10):
            g, h, k = (haar_son(n, rng) for _ in range(3))
            assert dist_son(g, h) == pytest.approx(dist_son(h, g), abs=1e-12)
            assert dist_son(g, h) <= dist_son(g, k) + dist_son(k, h) + 1e-12


# ---------------------------------------------------------------------------
# pairwise helpers
# ---------------------------------------------------------------------------

def scalar_pairwise(dist, pts):
    """Symmetric zero-diagonal matrix of dist over the pairs i < j."""
    d = np.zeros((len(pts), len(pts)))
    for i, j in zip(*np.triu_indices(len(pts), 1)):
        d[i, j] = d[j, i] = dist(pts[i], pts[j])
    return d


def test_pairwise_fast_paths_agree_with_scalar_metrics():
    rng = RngStream(22, 0)
    su2_pts = [haar_su2(rng) for _ in range(8)]
    d_fast = pairwise_distance_matrix(SU2, np.stack([g.vector for g in su2_pts]))
    d_loop = scalar_pairwise(dist_su2, su2_pts)
    assert np.abs(d_fast - d_loop).max() < 1e-12
    so3_pts = [haar_son(3, rng) for _ in range(8)]
    d_fast = pairwise_distance_matrix(SO3, np.stack([g.entries for g in so3_pts]))
    d_loop = scalar_pairwise(dist_son, so3_pts)
    assert np.abs(d_fast - d_loop).max() < 1e-10
    so5 = group_named("son", 5)
    so5_pts = [haar_son(5, rng) for _ in range(5)]
    x = np.stack([g.entries for g in so5_pts])
    d_default = pairwise_distance_matrix(so5, x)
    d_scaled = pairwise_distance_matrix(so5, x, scale=3.0)
    assert np.abs(3.0 * d_default - d_scaled).max() < 1e-10
    d_loop = scalar_pairwise(lambda g, h: dist_son(g, h, scale=2.0), so5_pts)
    assert np.abs(2.0 * d_default - d_loop).max() < 1e-10
    with pytest.raises(ValueError):
        pairwise_distance_matrix(so5, x, scale=0.0)


def test_pairwise_batch_helpers_match_definitions():
    rng = RngStream(23, 0)
    q = haar_su2_batch(rng, 6)
    d = su2_pairwise_distances(q)
    assert d[2, 2] == 0.0
    assert d[0, 1] == pytest.approx(
        dist_su2(SU2Element.from_vector(q[0]), SU2Element.from_vector(q[1])), abs=1e-14
    )
    mats = haar_son_batch(3, 6, rng)
    d = so3_pairwise_distances(mats)
    assert d[1, 0] == pytest.approx(
        dist_son(SOnElement(mats[1]), SOnElement(mats[0])), abs=1e-10
    )
