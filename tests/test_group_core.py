import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.linalg import block_diag, logm
from scipy.stats import kstest, ks_2samp

from levy_groups import (
    SO3,
    SU2,
    RngStream,
    dist_son,
    embed_so3,
    group_named,
    pairwise_distance_matrix,
)
from levy_groups import group_core
from levy_groups.group_core import (
    check_rotations,
    haar_son_batch,
    haar_su2_batch,
)
from levy_groups.kernel_lab import sum_zero_basis
from oracles import ad_matrix, angle_cdf, binary_icosahedral, trace_cdf_so3

E = SU2.identity


def delta_rotation(t):
    """The distinguished one-parameter rotation, written out directly."""
    return np.array([
        [math.cos(t), math.sin(t), 0.0],
        [-math.sin(t), math.cos(t), 0.0],
        [0.0, 0.0, 1.0],
    ])


def qmul(p, q):
    """SU(2) product of unit quadruples (a1, a2, b1, b2), on (..., 4) arrays:
    the matrix product of [[a, b], [-conj(b), conj(a)]]."""
    pa, pb = p[..., 0] + 1j * p[..., 1], p[..., 2] + 1j * p[..., 3]
    qa, qb = q[..., 0] + 1j * q[..., 1], q[..., 2] + 1j * q[..., 3]
    a, b = pa * qa - pb * np.conj(qb), pa * qb + pb * np.conj(qa)
    return np.stack([a.real, a.imag, b.real, b.imag], axis=-1)


def qinv(p):
    return p * np.array([1.0, -1.0, -1.0, -1.0])


def qmatrix(p):
    """The 2x2 complex unitary [[a, b], [-conj(b), conj(a)]] of one quadruple."""
    a, b = complex(p[0], p[1]), complex(p[2], p[3])
    return np.array([[a, b], [-b.conjugate(), a.conjugate()]])


def su2_dist(g, h):
    """SU2.distances between two single quadruples."""
    return float(SU2.distances(g[None], h)[0])


# ---------------------------------------------------------------------------
# point arrays
# ---------------------------------------------------------------------------

def test_su2_product_preserves_norm():
    rng = RngStream(0, 1)
    g = SU2.sample(rng, 1)[0]
    for _ in range(200):
        g = qmul(g, SU2.sample(rng, 1)[0])
    assert abs(g @ g - 1.0) < 1e-12


def test_su2_product_matches_matrix_product():
    rng = RngStream(0, 2)
    for _ in range(20):
        g, h = SU2.sample(rng, 2)
        assert np.abs(qmatrix(qmul(g, h)) - qmatrix(g) @ qmatrix(h)).max() < 1e-14


def test_su2_inverse_and_identity():
    for g in SU2.sample(RngStream(0, 3), 10):
        assert su2_dist(qmul(g, qinv(g)), E) <= 1e-15
        assert np.abs(qmatrix(qinv(g)) - np.conj(qmatrix(g).T)).max() < 1e-14


def test_son_rejects_bad_matrices():
    # not orthogonal, det = -1, n < 2
    for bad in (np.eye(3) * 1.5, np.diag([1.0, 1.0, -1.0]), np.eye(1)):
        with pytest.raises(ValueError):
            check_rotations(bad)
    for bad in (math.nan, math.inf):
        m = np.eye(3)
        m[0, 1] = bad
        with pytest.raises(ValueError):
            check_rotations(m)


# ---------------------------------------------------------------------------
# Haar sampling
# ---------------------------------------------------------------------------

def test_haar_su2_unit_norm():
    q = haar_su2_batch(RngStream(1, 0), 1000)
    assert np.abs((q ** 2).sum(axis=1) - 1.0).max() < 1e-12


class FirstDrawHasAZeroRow:
    """A generator whose first standard_normal draw has row 1 all zeros."""

    def __init__(self):
        self.gen, self.shapes = np.random.default_rng(3), []

    def standard_normal(self, shape):
        v = self.gen.standard_normal(shape)
        if not self.shapes:
            v[1] = 0.0
        self.shapes.append(shape)
        return v


def test_haar_su2_redraws_a_degenerate_row():
    # a zero row has no direction: it alone is drawn again, then normalised
    stub = FirstDrawHasAZeroRow()
    q = haar_su2_batch(SimpleNamespace(generator=stub), 3)
    assert stub.shapes == [(3, 4), (1, 4)]
    gen = np.random.default_rng(3)
    first, again = gen.standard_normal((3, 4)), gen.standard_normal((1, 4))
    first[1] = again[0]
    assert np.array_equal(q, first / np.linalg.norm(first, axis=1)[:, None])


@pytest.mark.parametrize("block", [1 << 17, 40])
def test_haar_su2_normalises_in_blocks_as_the_whole_draw(block, monkeypatch):
    """Normalised in place a block of rows at a time, bit for bit the whole
    draw divided by its norms, and the stream left where that leaves it."""
    monkeypatch.setattr(group_core, "BLOCK_FLOATS", block)
    for size in (1, 10, 23, 1000):
        gen = RngStream(5, size).generator
        v = gen.standard_normal((size, 4))
        rng = RngStream(5, size)
        assert np.array_equal(haar_su2_batch(rng, size), v / np.linalg.norm(v, axis=1)[:, None])
        assert rng.generator.random() == gen.random()


@pytest.mark.parametrize("a,b", [(3 * (1 << 15) + 5, 1234), (1 << 15, 7), (1, 40_000)])
def test_haar_su2_rows_follow_the_stream_whatever_the_split(a, b):
    # alpha_monte_carlo pairs rows 2k and 2k + 1 of its draws, so its pairs do
    # not depend on its block size only if a + b rows are a rows, then b rows
    assert len(group_core.row_blocks(a + b, 4)) >= 2
    whole = haar_su2_batch(RngStream(6, 1), a + b)
    rng = RngStream(6, 1)
    assert np.array_equal(whole, np.vstack((haar_su2_batch(rng, a), haar_su2_batch(rng, b))))


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
    assert kstest(theta, lambda t: angle_cdf(SU2, t)).pvalue > 0.01


def test_haar_so3_trace_and_angle_densities():
    mats = haar_son_batch(3, 100_000, RngStream(4, 0))
    traces = np.trace(mats, axis1=-2, axis2=-1)
    assert kstest(traces, trace_cdf_so3).pvalue > 0.01
    angles = np.arccos(np.clip((traces - 1.0) / 2.0, -1.0, 1.0))
    assert kstest(angles, lambda t: angle_cdf(SO3, t)).pvalue > 0.01


def test_haar_so2_angle_uniform():
    mats = haar_son_batch(2, 50_000, RngStream(5, 0))
    angles = np.arctan2(mats[:, 1, 0], mats[:, 0, 0]) % (2.0 * math.pi)
    assert kstest(angles, lambda t: t / (2.0 * math.pi)).pvalue > 0.01


def test_haar_son_left_invariance():
    rng = RngStream(6, 0)
    h = haar_son_batch(4, 1, rng)[0]
    for _ in range(10):
        g, k = haar_son_batch(4, 2, rng)
        assert abs(dist_son(h @ g, h @ k) - dist_son(g, k)) < 1e-9


def test_haar_so3_via_ad_matches_qr_sampler_in_law():
    ad_mats = ad_matrix(haar_su2_batch(RngStream(8, 0), 100_000))
    qr_mats = haar_son_batch(3, 100_000, RngStream(8, 1))
    t1 = np.trace(ad_mats, axis1=-2, axis2=-1)
    t2 = np.trace(qr_mats, axis1=-2, axis2=-1)
    assert ks_2samp(t1, t2).pvalue > 0.01
    angles = np.arccos(np.clip((t1 - 1.0) / 2.0, -1.0, 1.0))
    assert kstest(angles, lambda t: angle_cdf(SO3, t)).pvalue > 0.01


# ---------------------------------------------------------------------------
# covering map
# ---------------------------------------------------------------------------

def test_ad_kernel_is_plus_minus_identity():
    assert np.abs(ad_matrix(E) - np.eye(3)).max() == 0.0
    assert np.abs(ad_matrix(-E) - np.eye(3)).max() < 1e-15


@pytest.mark.parametrize("psi", [0.1, 0.5, 1.0, math.pi / 3, 2.5])
def test_ad_of_diagonal_subgroup_rotates_third_axis(psi):
    g = np.array([math.cos(psi), math.sin(psi), 0.0, 0.0])
    expected = np.array([
        [math.cos(2 * psi), -math.sin(2 * psi), 0.0],
        [math.sin(2 * psi), math.cos(2 * psi), 0.0],
        [0.0, 0.0, 1.0],
    ])
    assert np.abs(ad_matrix(g) - expected).max() < 1e-12


def test_ad_is_a_homomorphism():
    rng = RngStream(9, 0)
    for _ in range(20):
        g, h = SU2.sample(rng, 2)
        assert np.abs(ad_matrix(qmul(g, h)) - ad_matrix(g) @ ad_matrix(h)).max() < 1e-10
        prod = ad_matrix(g) @ ad_matrix(qinv(g))
        assert np.abs(prod - np.eye(3)).max() < 1e-10


def test_double_cover_angle_relation():
    g = SU2.sample(RngStream(10, 0), 50)
    t = SU2.distances(g, E)
    angle = SO3.distances(ad_matrix(g), SO3.identity)
    assert np.abs(angle - np.minimum(2 * t, 2 * math.pi - 2 * t)).max() < 1e-9


# ---------------------------------------------------------------------------
# distances
# ---------------------------------------------------------------------------

def test_dist_su2_basic_values():
    g = SU2.sample(RngStream(13, 0), 1)[0]
    assert su2_dist(g, g) == 0.0
    assert su2_dist(E, -E) == pytest.approx(math.pi)
    psi = np.array([0.0, 0.3, 1.0, 2.0, math.pi])
    h = np.stack([np.cos(psi), np.sin(psi), 0.0 * psi, 0.0 * psi], axis=-1)
    assert SU2.distances(h, E) == pytest.approx(psi, abs=1e-12)


def test_dist_su2_against_matrix_log_oracle():
    # |log(g h^-1)| in the -tr(XY)/2 norm, via scipy's matrix logarithm
    rng = RngStream(14, 0)
    for _ in range(10):
        g, h = SU2.sample(rng, 2)
        x = logm(qmatrix(qmul(g, qinv(h))))
        oracle = math.sqrt(max(0.0, -0.5 * np.trace(x @ x).real))
        assert abs(su2_dist(g, h) - oracle) <= 1e-14


def test_rotation_angle_so3_values():
    e = SO3.identity
    assert SO3.distances(e[None], e)[0] == 0.0
    assert SO3.distances(np.diag([1.0, -1.0, -1.0])[None], e)[0] == pytest.approx(math.pi)
    t = [0.0, 0.2, 1.3, 2.9, math.pi]
    assert SO3.distances(np.stack([delta_rotation(s) for s in t]), e) == pytest.approx(t, abs=1e-14)


def test_dist_son_restriction_and_two_blocks():
    for n in [4, 5, 7]:
        for t in [0.1, 1.0, 2.5, math.pi]:
            g = block_diag(delta_rotation(t), np.eye(n - 3))
            assert dist_son(g, np.eye(n)) == pytest.approx(t, abs=1e-10)
    for s, t in [(0.4, 1.1), (2.0, 3.0), (math.pi, 1.0)]:
        g = block_diag(delta_rotation(s)[:2, :2], delta_rotation(t)[:2, :2], np.eye(1))
        want = math.hypot(s, t)
        assert dist_son(g, np.eye(5)) == pytest.approx(want, abs=1e-10)
        # independent route: principal matrix logarithm
        x = logm(g)
        oracle = math.sqrt(max(0.0, -0.5 * np.trace(x @ x).real))
        assert abs(dist_son(g, np.eye(5)) - oracle) < 1e-8


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
def test_son_distances_match_logm_near_zero_and_pi(n):
    # relative at small angles, where the logm oracle is itself off by
    # about 5e-8 of a 1e-12 angle; never looser than the 1e-8 above
    e = np.eye(n)
    for t in [1e-12, 1e-9, 1e-6, 1e-4, math.pi - 1e-9, math.pi]:
        block = delta_rotation(t)[:2, :2]
        for planes in (1, 2)[:n // 2]:
            m = np.eye(n)
            for k in range(planes):
                m[2 * k:2 * k + 2, 2 * k:2 * k + 2] = block
            x = logm(m)
            oracle = math.sqrt(max(0.0, -0.5 * np.trace(x @ x).real))
            d = pairwise_distance_matrix(group_named("son", n), np.stack([e, m, e]))
            for got in (d[0, 1], d[1, 0], d[1, 2], d[2, 1], dist_son(m, e), dist_son(e, m)):
                assert abs(got - oracle) <= min(1e-8, 1e-7 * oracle), (t, planes, got, oracle)


def test_dist_son_errors():
    g, h = np.eye(3), np.eye(4)
    with pytest.raises(ValueError):
        dist_son(g, h)
    a, b = haar_son_batch(3, 2, RngStream(15, 0))
    assert dist_son(a, b) > 0.0
    assert dist_son(a, a) == 0.0


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
def test_dist_son_is_exactly_zero_on_equal_elements(n):
    # about 2% of Haar draws give g g^T eigenvalues with a 1e-16 imaginary part
    for g in haar_son_batch(n, 500, RngStream(17, n)):
        assert dist_son(g, g) == 0.0
        assert dist_son(g, g.copy()) == 0.0


@pytest.mark.parametrize("group", [SU2, SO3, group_named("son", 4), group_named("son", 6)],
                         ids=["su2", "so3", "4", "6"])
def test_son_pairwise_is_exactly_zero_on_repeated_rows(group):
    # on SU(2), arccos of a dot product a few ulps below 1 gives up to 4e-8 for
    # a third of the repeated pairs unless they are caught
    x = group.sample(RngStream(18, getattr(group, "n", 2)), 200)
    d = group.pairwise(np.concatenate([x, x]))
    assert (np.diagonal(d, 200) == 0.0).all() and (np.diagonal(d, -200) == 0.0).all()
    assert (d[:200, :200] > 0.0)[~np.eye(200, dtype=bool)].all()
    assert (group.distances(x, x[7].copy()) == 0.0).nonzero()[0].tolist() == [7]


@pytest.mark.parametrize("block", [1 << 19, 100])
def test_haar_son_batch_blocks_give_the_one_draw_recipe(block, monkeypatch):
    """QR by blocks of the output, bit for bit the draws of one QR of one
    Gaussian batch, and the stream left where that recipe leaves it."""
    monkeypatch.setattr(group_core, "BLOCK_FLOATS", block)
    for n, size in ((2, 7), (5, 40), (9, 3), (11, 1)):
        gen = RngStream(19, n).generator
        q, r = np.linalg.qr(gen.standard_normal((size, n, n)))
        d = np.sign(np.diagonal(r, axis1=-2, axis2=-1)).copy()
        d[d == 0] = 1.0
        q = q * d[:, None, :]
        q[np.linalg.det(q) < 0, :, -1] *= -1.0
        rng = RngStream(19, n)
        assert np.array_equal(haar_son_batch(n, size, rng), q)
        assert rng.generator.random() == gen.random()


def test_haar_son_batch_rejects_n_below_2():
    for n in (1, 0):
        with pytest.raises(ValueError, match="n must be >= 2"):
            haar_son_batch(n, 3, RngStream(0, 0))


def test_haar_son_batch_peak_does_not_grow_with_its_blocks():
    # one 400 x 400 draw a block: each block's QR arrays are freed before the
    # next block's QR runs, so 1, 2 and 3 blocks peak alike beside the output
    n = 400
    haar_son_batch(n, 1, RngStream(20, 0))  # load the solver first
    above = []
    for size in (1, 2, 3):
        tracemalloc.start()
        try:
            haar_son_batch(n, size, RngStream(20, size))
            above.append(tracemalloc.get_traced_memory()[1] - 8 * size * n * n)
        finally:
            tracemalloc.stop()
    assert max(above) - min(above) <= 0.01 * 8 * n * n


def axis_rotation(u, t):
    """Rotation by t about the unit axis u (Rodrigues' formula)."""
    k = np.array([[0.0, -u[2], u[1]], [u[2], 0.0, -u[0]], [-u[1], u[0], 0.0]])
    return np.eye(3) + math.sin(t) * k + (1.0 - math.cos(t)) * (k @ k)


@pytest.mark.parametrize("t", [1e-12, 1e-9, 1e-6, 1e-4, 0.3, 2.0, math.pi - 1e-4,
                               math.pi - 1e-6, math.pi - 1e-9, math.pi])
def test_so3_distances_are_accurate_near_zero_and_pi(t):
    rng = RngStream(24, 0)
    axes = rng.generator.standard_normal((8, 3))
    for u, g in zip(axes / np.linalg.norm(axes, axis=1)[:, None], SO3.sample(rng, 8)):
        r = axis_rotation(u, t)
        x = np.stack([g, r @ g])
        d = SO3.pairwise(x)
        assert abs(d[0, 1] - t) <= 1e-14 and d[1, 0] == d[0, 1], (t, d[0, 1])
        assert abs(SO3.distances(x[1:], g)[0] - t) <= 1e-14
        assert abs(SO3.distances(r[None], SO3.identity)[0] - t) <= 1e-14


@pytest.mark.parametrize("t", [1e-12, 1e-9, 1e-6, 1e-4, 0.3, 2.0, math.pi - 1e-4,
                               math.pi - 1e-6, math.pi - 1e-9, math.pi])
def test_su2_distances_are_accurate_near_zero_and_pi(t):
    # h = g (cos t, sin t u) is at great-circle angle t from g, for every unit 3-vector u
    rng = RngStream(24, 1)
    axes = rng.generator.standard_normal((8, 3))
    for u, g in zip(axes / np.linalg.norm(axes, axis=1)[:, None], SU2.sample(rng, 8)):
        x = np.stack([g, qmul(g, np.array([math.cos(t), *(math.sin(t) * u)]))])
        d = SU2.pairwise(x)
        assert abs(d[0, 1] - t) <= 1e-14 and d[1, 0] == d[0, 1], (t, d[0, 1])
        assert abs(SU2.distances(x[1:], g)[0] - t) <= 1e-14


def test_su2_binary_icosahedral_set_is_singular_at_every_translation():
    # D of a finite subgroup is negative semidefinite on sum-zero vectors with a
    # top eigenvalue of 0; a left translation keeps every distance but rounds
    # the points, and the 60 antipodal pairs then sit a few ulps from -1
    x = binary_icosahedral()
    assert len(x) == 120
    b = sum_zero_basis(len(x))
    rng = RngStream(2, 0)
    for g in (E, *SU2.sample(rng, 5)):
        top = np.linalg.eigvalsh(b.T @ SU2.pairwise(qmul(g, x)) @ b)[-1]
        assert abs(top) <= 1e-13, top


def test_dist_son_3_equals_rotation_angle():
    rng = RngStream(16, 0)
    for _ in range(25):
        g, h = haar_son_batch(3, 2, rng)
        angle = SO3.distances(g[None], h)[0]  # from the trace and axial vector of g h^T
        assert abs(dist_son(g, h) - angle) < 1e-14


# ---------------------------------------------------------------------------
# embedding and one-parameter subgroups
# ---------------------------------------------------------------------------

def test_embed_so3_structure():
    assert np.array_equal(embed_so3(np.eye(3), 6), np.eye(6))
    g = delta_rotation(math.pi / 2)
    assert dist_son(embed_so3(g, 5), np.eye(5)) == pytest.approx(math.pi / 2, abs=1e-12)
    with pytest.raises(ValueError):
        embed_so3(g, 3)
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
            g, h = haar_son_batch(3, 2, rng)
            eg, eh = embed_so3(g, n), embed_so3(h, n)
            assert np.abs(embed_so3(g @ h, n) - eg @ eh).max() < 1e-14
            assert abs(dist_son(eg, eh) - dist_son(g, h)) < 1e-10


# ---------------------------------------------------------------------------
# metric invariants
# ---------------------------------------------------------------------------

def test_bi_invariance_su2():
    rng = RngStream(18, 0)
    for _ in range(20):
        g, h, k = SU2.sample(rng, 3)
        d = su2_dist(g, k)
        assert abs(su2_dist(qmul(h, g), qmul(h, k)) - d) < 1e-9
        assert abs(su2_dist(qmul(g, h), qmul(k, h)) - d) < 1e-9


@pytest.mark.parametrize("n", [3, 5])
def test_bi_invariance_and_class_function_son(n):
    rng = RngStream(19, n)
    e = np.eye(n)
    for _ in range(10):
        g, h, k = haar_son_batch(n, 3, rng)
        d = dist_son(g, k)
        assert abs(dist_son(h @ g, h @ k) - d) < 1e-9
        assert abs(dist_son(g @ h, k @ h) - d) < 1e-9
        assert abs(dist_son(h @ g @ h.T, e) - dist_son(g, e)) < 1e-9


def test_class_function_su2():
    rng = RngStream(20, 0)
    for _ in range(20):
        g, h = SU2.sample(rng, 2)
        assert abs(su2_dist(qmul(qmul(h, g), qinv(h)), E) - su2_dist(g, E)) < 1e-9


def test_metric_axioms_on_random_triples():
    rng = RngStream(21, 0)
    for _ in range(20):
        g, h, k = SU2.sample(rng, 3)
        assert su2_dist(g, h) == pytest.approx(su2_dist(h, g), abs=1e-12)
        assert su2_dist(g, h) <= su2_dist(g, k) + su2_dist(k, h) + 1e-12
    for n in [3, 4]:
        for _ in range(10):
            g, h, k = haar_son_batch(n, 3, rng)
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
    su2_pts = SU2.sample(rng, 8)
    d_fast = pairwise_distance_matrix(SU2, su2_pts)
    d_loop = scalar_pairwise(su2_dist, su2_pts)
    assert np.abs(d_fast - d_loop).max() < 1e-12
    so3_pts = haar_son_batch(3, 8, rng)
    d_fast = pairwise_distance_matrix(SO3, so3_pts)
    d_loop = scalar_pairwise(dist_son, so3_pts)
    assert np.abs(d_fast - d_loop).max() < 1e-14
    so5 = group_named("son", 5)
    so5_pts = x = haar_son_batch(5, 5, rng)
    d_default = pairwise_distance_matrix(so5, x)
    assert np.array_equal(d_default, so5.pairwise(x))
    d_loop = scalar_pairwise(dist_son, so5_pts)
    assert np.abs(d_default - d_loop).max() < 1e-14


def test_pairwise_batch_helpers_match_definitions():
    rng = RngStream(23, 0)
    q = haar_su2_batch(rng, 6)
    d = SU2.pairwise(q)
    assert d[2, 2] == 0.0
    assert d[0, 1] == pytest.approx(su2_dist(q[0], q[1]), abs=1e-14)
    mats = haar_son_batch(3, 6, rng)
    d = SO3.pairwise(mats)
    assert d[1, 0] == pytest.approx(dist_son(mats[1], mats[0]), abs=1e-14)


# ---------------------------------------------------------------------------
# blocked distances
# ---------------------------------------------------------------------------

# the closed-form groups' planes (a, b), each a sine component
# [g_a, -g_b] . [h_b, h_a], and the shift of the cosine g . h
CLOSED_FORMS = {
    SU2: ((([1, 2], [0, 3]), ([2, 3], [0, 1]), ([3, 1], [0, 2])), 0.0),  # Im(conj(h) g)
    SO3: (((2, 1), (0, 2), (1, 0)), 1.0),  # the axial vector of P = g h^T, and tr P - 1
}


def pair_distance(group, g, h):
    """One pair's distance by its descriptor's formula, exactly 0 between equal points."""
    if np.array_equal(g, h):
        return 0.0
    if group in CLOSED_FORMS:  # atan2 of the sine and cosine, as dot products
        planes, shift = CLOSED_FORMS[group]
        sine = [float(np.concatenate((g[a], -g[b])) @ np.concatenate((h[b], h[a])))
                for a, b in planes]
        return math.atan2(math.sqrt(sum(v * v for v in sine)), float(g.ravel() @ h.ravel()) - shift)
    return math.sqrt(0.5 * float(np.sum(np.angle(np.linalg.eigvals(g @ h.T)) ** 2)))


# m ends in a partial block of rows on every group; on SO(40) one row of 82
# products is over the block budget, so every block is one row
BLOCKED = pytest.mark.parametrize(
    "group,m", [(SU2, 400), (SO3, 400), (group_named("son", 4), 300), (group_named("son", 40), 82)],
    ids=["su2", "so3", "so4", "so40"])


REPEATS = (0, 3, 7, 50)  # rows copied to the end of the points


@BLOCKED
def test_pairwise_is_symmetric_and_matches_each_pair(group, m):
    x = group.sample(RngStream(25, m), m - len(REPEATS))
    x = np.concatenate([x, x[list(REPEATS)]])
    d = group.pairwise(x)
    assert np.array_equal(d, d.T)
    # the diagonal and the repeated pairs read exactly 0, every other pair more
    zero = {(i, m - len(REPEATS) + k) for k, i in enumerate(REPEATS)}
    zero |= {(j, i) for i, j in zero} | {(i, i) for i in range(m)}
    assert set(zip(*np.nonzero(d == 0.0))) == zero
    rng = np.random.default_rng(26)
    pairs = rng.integers(0, m, (1500, 2))
    got = d[pairs[:, 0], pairs[:, 1]]
    ref = np.array([pair_distance(group, x[i], x[j]) if i < j else pair_distance(group, x[j], x[i])
                    for i, j in pairs])
    assert (np.abs(got - ref) <= 4 * np.spacing(ref)).all()


@pytest.mark.parametrize("group,m", [(SO3, 400), (group_named("son", 4), 300)],
                         ids=["so3", "so4"])
def test_distances_match_each_pair(group, m):
    x = group.sample(RngStream(27, m), m)
    d = group.distances(x, x[5].copy())
    ref = np.array([pair_distance(group, g, x[5]) for g in x])
    assert (np.abs(d - ref) <= 4 * np.spacing(ref)).all()
    assert np.flatnonzero(d == 0.0).tolist() == [5]


def test_su2_distances_over_two_blocks_are_the_one_product_formula():
    # the reference is the closed form on matrix-vector products of all the points
    m = (1 << 17) + 3  # one block of rows and three more
    x = SU2.sample(RngStream(27, m), m)
    y = x[5].copy()
    d = SU2.distances(x, y)
    planes, shift = CLOSED_FORMS[SU2]
    sine = sum((np.hstack((x[:, a], -x[:, b])) @ np.concatenate((y[b], y[a]))) ** 2
               for a, b in planes)
    ref = np.arctan2(np.sqrt(sine), x @ y - shift)
    ref[5] = 0.0
    assert (np.abs(d - ref) <= 4 * np.spacing(ref)).all()
    assert np.flatnonzero(d == 0.0).tolist() == [5]


@pytest.mark.parametrize(
    "group,m", [(SU2, 3000), (SO3, 2000), (group_named("son", 4), 300),
                (group_named("son", 20), 100)], ids=["su2", "so3", "so4", "so20"])
def test_pairwise_scratch_is_a_few_blocks(group, m):
    # the equal-point test runs block by block: an m x m boolean mask would
    # be 9 MB, over eight blocks, at m = 3,000
    x = group.sample(RngStream(28, m), m)
    block = 8 * max(group_core.BLOCK_FLOATS, m * group._pair_floats)  # at least one row
    tracemalloc.start()
    try:
        group.pairwise(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * m * m + 3 * block


def test_descriptors_write_only_their_kernel():
    # SU(2) and SO(3) state only the data of the one closed-form kernel
    for cls in (group_core.SU2Group, group_core.SOnGroup, group_core.SO3Group):
        assert not {"pairwise", "distances"} & set(vars(cls)), cls
    assert "_angles" in vars(group_core.SOnGroup)
    for cls in (group_core.SU2Group, group_core.SO3Group):
        assert cls._angles is group_core._ClosedForm._angles, cls
        assert {"_planes", "_cos_shift"} <= set(vars(cls)) and "_angles" not in vars(cls), cls
