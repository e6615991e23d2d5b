import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from levy_groups import (
    SO3,
    SU2,
    KernelNotPSDError,
    RngStream,
    build_field,
    empirical_variogram,
    field_sim,
    group_core,
    lapack,
    sample_field,
)
from levy_groups.cli import RunConfig, _emit
from levy_groups.field_sim import VariogramRow
from levy_groups.kernel_lab import brownian_kernel
from oracles import bartlett_draw, bartlett_factor, coloured_values


def su2_points(seed, m, stream=0):
    return SU2.sample(RngStream(seed, stream), m)


def same_state(a, b):
    """Equal bit-generator states (dicts holding arrays)."""
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(same_state(a[k], b[k]) for k in a)
    return np.array_equal(a, b)


def qmul(p, q):
    """SU(2) product of unit quadruples (a1, a2, b1, b2), on (..., 4) arrays:
    the matrix product of [[a, b], [-conj(b), conj(a)]]."""
    pa, pb = p[..., 0] + 1j * p[..., 1], p[..., 2] + 1j * p[..., 3]
    qa, qb = q[..., 0] + 1j * q[..., 1], q[..., 2] + 1j * q[..., 3]
    a, b = pa * qa - pb * np.conj(qb), pa * qb + pb * np.conj(qa)
    return np.stack([a.real, a.imag, b.real, b.imag], axis=-1)


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def test_single_point_field_is_trivial():
    fs = build_field(SU2, SU2.identity[None])
    assert fs.m == 1
    assert fs.chol.shape == (1, 1)
    assert fs.chol[0, 0] == 0.0
    assert brownian_kernel(SU2, fs.points)[0, 0] == 0.0


def test_build_field_prepends_base_point():
    pts = su2_points(60, 10)
    fs = build_field(SU2, pts)
    assert fs.m == 11
    assert np.array_equal(fs.points[0], SU2.identity)
    assert np.array_equal(fs.points[1:], pts)
    k = brownian_kernel(SU2, fs.points)
    assert np.abs(k[0, :]).max() == 0.0
    assert np.abs(k[:, 0]).max() == 0.0
    assert not fs.chol[0].any() and not fs.chol[:, 0].any()


def test_build_field_moves_existing_base_point_to_front():
    e = SU2.identity
    pts = np.vstack([su2_points(61, 5), e])
    fs = build_field(SU2, pts, x0=e)
    assert fs.m == 6
    assert np.array_equal(fs.points, pts[[5, 0, 1, 2, 3, 4]])


def test_build_field_finds_a_sampled_base_point():
    # a Haar point as x0 is 0.0 from itself, not the 2e-8 of arccos of a dot
    # product just below 1, so it is moved to the front, not prepended again
    for seed in range(20):
        x = su2_points(seed, 50, stream=78)
        fs = build_field(SU2, x, x0=x[seed])
        assert fs.m == len(x), seed
        assert np.array_equal(fs.points[0], x[seed])


def test_factorization_reproduces_kernel():
    pts = su2_points(62, 50)
    fs = build_field(SU2, pts)
    assert fs.jitter_used <= 1e-9
    resid = np.abs(fs.chol @ fs.chol.T - brownian_kernel(SU2, fs.points)).max()
    assert resid < 1e-8


def test_so3_diagnostic_mode_raises_kernel_not_psd():
    pts = SO3.sample(RngStream(63, 0), 30)
    with pytest.raises(KernelNotPSDError):
        build_field(SO3, pts)


def test_build_field_validates_arguments():
    with pytest.raises(ValueError):
        build_field(SU2, np.empty((0, 4)))
    with pytest.raises(ValueError):
        build_field(SU2, su2_points(64, 3), jitter=0.0)


def test_sample_field_rejects_no_realizations():
    fs = build_field(SU2, su2_points(64, 3))
    for realizations in (0, -1):
        with pytest.raises(ValueError, match="realizations must be >= 1"):
            sample_field(fs, realizations, RngStream(0, 0))


def factored_per_rung(k, jitter):
    """(factor, jitter) of the trailing block of k as the ladder first read:
    K + jit max(K_ii) I formed anew on each rung, x10 up to three times,
    bordered by zeros and factored by lapack.cholesky."""
    block = k[1:, 1:]
    for jit in (jitter * 10.0 ** e for e in range(4)):
        a = np.zeros_like(k)
        a[1:, 1:] = block + jit * block.diagonal().max() * np.eye(len(block))
        if not lapack.cholesky(a):
            return a[1:, 1:], jit
    return None, None


# duplicated points make K singular: at these jitters the factor needs the
# first, second, third and fourth rung
@pytest.mark.parametrize("seed, m, jitter, rung", [(60, 40, 1e-10, 0), (0, 10, 1e-16, 1),
                                                   (0, 10, 1e-17, 2), (0, 10, 1e-18, 3)])
def test_jitter_ladder_factor_is_the_per_rung_formulas_bit_for_bit(seed, m, jitter, rung):
    x = su2_points(seed, m)
    x = np.concatenate([x, x[:m // 2]]) if rung else x
    fs = build_field(SU2, x, jitter=jitter)
    factor, jit = factored_per_rung(brownian_kernel(SU2, fs.points), jitter)
    assert fs.jitter_used == jit == jitter * 10.0 ** rung
    assert np.array_equal(fs.chol[1:, 1:], factor)
    assert np.array_equal(fs.chol[0], np.zeros(fs.m)) and np.array_equal(fs.chol[:, 0], fs.chol[0])


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads VmHWM from /proc")
def test_build_field_factors_without_a_copy_of_the_block():
    # K is factored in the one (m + 1)^2 matrix it is formed in; a copy of
    # the block for the factor, or K kept beside it, would be a second.  A
    # fresh interpreter on one BLAS thread, as the CLI runs, so no earlier
    # test's peak hides the growth
    code = """if True:
        from levy_groups import SU2, RngStream, build_field, lapack
        def hwm():
            with open("/proc/self/status") as f:
                return next(int(l.split()[1]) * 1024 for l in f if l.startswith("VmHWM:"))
        lapack.set_threads(1)
        x = SU2.sample(RngStream(84, 0), 2000)
        before = hwm()
        fs = build_field(SU2, x)
        print(hwm() - before, fs.m)
    """
    src = os.path.dirname(os.path.dirname(os.path.abspath(field_sim.__file__)))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert done.returncode == 0, done.stderr
    grown, m = map(int, done.stdout.split())
    assert m == 2001 and grown <= 1.4 * 8 * m ** 2


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def test_values_vanish_at_base_point():
    fs = build_field(SU2, su2_points(65, 20))
    fs = sample_field(fs, 500, RngStream(65, 1))
    assert fs.values.shape == (21, 500)
    assert np.abs(fs.values[0]).max() == 0.0


def test_sampling_is_reproducible():
    pts = su2_points(66, 15)
    a = sample_field(build_field(SU2, pts), 300, RngStream(66, 1)).values
    b = sample_field(build_field(SU2, pts), 300, RngStream(66, 1)).values
    assert np.array_equal(a, b)
    c = sample_field(build_field(SU2, pts), 300, RngStream(66, 2)).values
    assert not np.array_equal(a, c)


# a remainder of one column, of short and of nearly whole blocks, and whole blocks
@pytest.mark.parametrize("m, r", [(30, 400), (5, 1025), (300, 2500), (200, 1026),
                                  (31, 2050), (100, 1100), (20, 5003), (45, 3072)])
def test_values_are_the_cholesky_factor_times_the_normals(m, r):
    # each block of 1,024 realizations is its own product, bit for bit, and
    # the values are one full L @ Z.T to rounding
    fs = build_field(SU2, su2_points(76, m))
    vals = sample_field(fs, r, RngStream(76, 1)).values
    assert np.array_equal(vals, coloured_values(fs, r, RngStream(76, 1).generator))
    full = fs.chol[1:, 1:] @ RngStream(76, 1).generator.standard_normal((r, m)).T
    assert np.abs(vals[1:] - full).max() <= 1e-13 * np.abs(full).max()
    assert not vals[0].any()


def test_sampling_holds_one_value_matrix_and_one_block():
    fs = build_field(SU2, su2_points(79, 200))
    r = 10_000
    tracemalloc.start()
    try:
        sample_field(fs, r, RngStream(79, 1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the values are coloured in place from one block of normals, of 1,024
    # columns
    assert peak <= 1.1 * 8 * fs.m * r + 8 * fs.m * field_sim._BLOCK


def test_field_sample_compares_and_hashes_by_identity():
    pts = su2_points(80, 5)
    fs, twin = build_field(SU2, pts), build_field(SU2, pts)
    assert fs != twin  # a field-wise __eq__ raises on the arrays
    assert fs == fs
    assert len({fs, fs, twin}) == 2


def test_field_moments_match_kernel():
    pts = su2_points(67, 10)
    fs = build_field(SU2, pts)
    r = 20_000
    fs = sample_field(fs, r, RngStream(67, 2))
    d0 = SU2.distances(fs.points, SU2.identity)
    k = brownian_kernel(SU2, fs.points)
    for i in [1, 4, 9]:
        d_i = k[i, i]
        mean = fs.values[i].mean()
        assert abs(mean) < 3.0 * math.sqrt(d_i / r)
        var = fs.values[i].var(ddof=1)
        assert abs(var - d_i) < 3.0 * d_i * math.sqrt(2.0 / r)
        assert d_i == pytest.approx(d0[i], abs=1e-9)


def test_increments_follow_the_gaussian_law_the_stderr_assumes():
    # criterion 7's field: each increment V_i - V_j is N(0, d_ij), so
    # (V_i - V_j)^4 / d_ij^2 has mean E Z^4 = 3 and variance E Z^8 - 9 = 96,
    # and the plug-in stderr sqrt(2 / r) * estimate rests on that fourth moment
    fs = build_field(SU2, SU2.sample(RngStream(7, 0), 50))
    r = 10_000
    v = sample_field(fs, r, RngStream(7, 1)).values
    k = brownian_kernel(SU2, fs.points)
    dk = k.diagonal()
    ratios = []
    for a in range(fs.m - 1):
        d = dk[a] + dk[a + 1:] - 2.0 * k[a, a + 1:]  # d_aj from K, as the rows' distance
        ratios.append(np.mean((v[a + 1:] - v[a]) ** 4, axis=1) / d ** 2)
    ratios = np.concatenate(ratios)
    assert len(ratios) == 51 * 50 // 2
    assert np.abs(ratios - 3.0).max() <= 5.0 * math.sqrt(96.0 / r)


def test_variogram_matches_distances():
    fs = build_field(SU2, su2_points(68, 12))
    rows = empirical_variogram(fs, 10_000, RngStream(68, 1))
    assert len(rows) == 13 * 12 // 2
    i, j = np.triu_indices(13, 1)
    assert np.array_equal(rows.pair_i, i) and np.array_equal(rows.pair_j, j)
    assert [row.estimate for row in rows[:3]] == rows.estimate[:3].tolist()
    covered = sum(
        1 for row in rows if abs(row.estimate - row.distance) <= 3.0 * row.stderr
    )
    assert covered / len(rows) >= 0.95


@pytest.mark.parametrize("r", [3, 6, 15])
def test_bartlett_gram_has_wisharts_mean_and_variance(r):
    # S = F F^T of 6 points and x0, for r below, at and above m - 1 = 6, over
    # 4,000 seeds: each entry of K's trailing block has Wishart(r, K)'s mean
    # r K_ij and variance r (K_ii K_jj + K_ij^2), within 5 standard errors;
    # x0's row is zero
    fs = build_field(SU2, su2_points(87, 6))
    seeds = 4000
    s = np.empty((seeds, fs.m, fs.m))
    for seed in range(seeds):
        f = field_sim._bartlett_factor(fs, r, RngStream(seed, 1).generator)
        s[seed] = f @ f.T
    assert not s[:, 0].any()
    k = brownian_kernel(SU2, fs.points)
    dk = k.diagonal()
    i, j = np.triu_indices(fs.m)
    i, j = i[i > 0], j[i > 0]
    mean, var = r * k[i, j], r * (dk[i] * dk[j] + k[i, j] ** 2)
    x = s[:, i, j]
    xm, xv = x.mean(axis=0), x.var(axis=0, ddof=1)
    assert (np.abs(xm - mean) <= 5.0 * np.sqrt(var / seeds)).all()
    m4 = ((x - xm) ** 4).mean(axis=0)
    assert (np.abs(xv - var) <= 5.0 * np.sqrt((m4 - xv ** 2) / seeds)).all()


def two_sample_z(a, b):
    """z of the difference of the means of the samples a and b."""
    return (a.mean() - b.mean()) / math.sqrt(a.var(ddof=1) / len(a) + b.var(ddof=1) / len(b))


def variance_z(a, b):
    """z of the difference of the variances of the samples a and b, each
    variance's standard error from its sample's fourth central moment."""
    def var_and_se2(x):
        v = x.var(ddof=1)
        return v, (((x - x.mean()) ** 4).mean() - v ** 2) / len(x)
    (va, sa), (vb, sb) = var_and_se2(a), var_and_se2(b)
    return (va - vb) / math.sqrt(sa + sb)


# 100 realizations above m - 1 = 5, and below m - 1 = 104
@pytest.mark.parametrize("points, seeds", [(5, 1000), (104, 400)])
def test_variogram_has_the_law_of_sample_fields_variogram(points, seeds):
    # per seed, the mean over pairs of estimate / d and of (estimate / d - 1)^2:
    # the drawn Gram matrix's against those of sample_field's values on another
    # stream, their means and variances over the seeds within 5 standard errors
    fs = build_field(SU2, su2_points(88, points))
    r = 100
    i, j = np.triu_indices(fs.m, 1)
    k = brownian_kernel(SU2, fs.points)
    d = k[i, i] + k[j, j] - 2.0 * k[i, j]
    drawn, sampled = np.empty((2, seeds)), np.empty((2, seeds))
    for seed in range(seeds):
        ratio = empirical_variogram(fs, r, RngStream(seed, 1)).estimate / d
        drawn[:, seed] = ratio.mean(), ((ratio - 1.0) ** 2).mean()
        v = sample_field(fs, r, RngStream(seed, 2)).values
        ratio = ((v[i] - v[j]) ** 2).mean(axis=1) / d
        sampled[:, seed] = ratio.mean(), ((ratio - 1.0) ** 2).mean()
    for a, b in zip(drawn, sampled):
        assert abs(two_sample_z(a, b)) <= 5.0
        assert abs(variance_z(a, b)) <= 5.0
    # the law's own: E estimate / d = 1 and E (estimate / d - 1)^2 = 2 / r
    for stat, law in zip(drawn, (1.0, 2.0 / r)):
        assert abs(stat.mean() - law) <= 5.0 * stat.std(ddof=1) / math.sqrt(seeds)


@pytest.mark.parametrize("m", [12, 200])
def test_variogram_matches_the_direct_formula_on_every_pair(m):
    # the Gram-product estimates against the per-pair differences of
    # Bartlett's F, with points planted 1e-3, 1e-6 and 1e-9 from others, where
    # the product cancels; the stderr is the Gaussian law's plug-in on every pair
    pts = su2_points(77, m)
    h = np.array([1e-3, 1e-6, 1e-9])
    pts = np.vstack([pts, qmul(pts[:3], np.stack([np.cos(h), np.sin(h), 0 * h, 0 * h], axis=-1))])
    fs = build_field(SU2, pts)
    r = 10_000
    rows = empirical_variogram(fs, r, RngStream(77, 1))
    assert len(rows) == (m + 4) * (m + 3) // 2
    f = bartlett_factor(fs, r, RngStream(77, 1).generator)  # the same draws
    for row in rows:
        est = ((f[row.pair_i] - f[row.pair_j]) ** 2).sum() / r
        assert abs(row.estimate - est) <= 1e-12 * est
    assert np.array_equal(rows.stderr, np.sqrt(2 / r) * rows.estimate)


def moment_rows(f, r, tol):
    """(estimate, stderr, flagged) of every pair of r realizations from
    Bartlett's F: the Gram product S = F F^T, each pair whose rounding bound
    exceeds tol of its value recomputed as |F_i - F_j|^2 / r, and the plug-in
    stderr sqrt(2 / r) * estimate; flagged holds those pairs' indices."""
    i, j = np.triu_indices(len(f), 1)
    s = f @ f.T
    sq = s[i, i] + s[j, j] - 2.0 * s[i, j]
    unsafe = np.finfo(float).eps * (s[i, i] + s[j, j] + 2.0 * np.abs(s[i, j])) > tol * sq
    est = sq / r
    for p in np.flatnonzero(unsafe):
        est[p] = ((f[i[p]] - f[j[p]]) ** 2).sum() / r
    return est, np.sqrt(2 / r) * est, np.flatnonzero(unsafe)


def bartlett_end_state(seed, stream, m, r):
    """The generator state of (seed, stream) after the Bartlett draws of m
    points and r realizations: the normals of the strict lower trapezoid,
    then min(m - 1, r) chi-squares."""
    gen = RngStream(seed, stream).generator
    n, p = m - 1, min(m - 1, r)
    gen.standard_normal(p * (p - 1) // 2 + (n - p) * p)
    gen.chisquare(r - np.arange(p))
    return gen.bit_generator.state


# no pair flagged, the pairs planted 1e-6 and 1e-9 apart (not the one 1e-3
# apart, whose rounding bound is well inside the tolerance), every pair; the
# realizations drawn at 300, 4,096 and 5,003 columns, as Bartlett's F of 14 columns
@pytest.mark.parametrize("planted, tol, flagged", [(False, field_sim._CANCELLATION_TOL, 0),
                                                   (True, field_sim._CANCELLATION_TOL, 2),
                                                   (True, 0.0, 15 * 14 // 2)],
                         ids=["none", "planted", "every"])
@pytest.mark.parametrize("r", [300, 4096, 5003])
def test_streamed_variogram_is_the_moment_formula_on_the_values(planted, tol, flagged, r,
                                                                monkeypatch):
    pts = su2_points(81, 14 if planted else 11)
    if planted:
        h = np.array([1e-3, 1e-6, 1e-9])
        pts[11:] = qmul(pts[:3], np.stack([np.cos(h), np.sin(h), 0 * h, 0 * h], axis=-1))
    fs = build_field(SU2, pts)
    est, se, unsafe = moment_rows(bartlett_factor(fs, r, RngStream(81, 1).generator), r, tol)
    assert len(unsafe) == flagged
    monkeypatch.setattr(field_sim, "_CANCELLATION_TOL", tol)
    rng = RngStream(81, 1)
    rows = empirical_variogram(fs, r, rng)
    assert np.array_equal([row.estimate for row in rows], est)
    assert np.array_equal([row.stderr for row in rows], se)
    assert same_state(rng.generator.bit_generator.state, bartlett_end_state(81, 1, fs.m, r))


def test_streamed_variogram_spans_blocks_of_pairs():
    # 515 points and x0: the pair terms take three blocks of upper-triangle
    # rows, and near-copies planted in the last three rows pair with a point
    # in each, so the flagged pairs' offsets cross the blocks' edges; Bartlett's
    # F of 515 columns is coloured in three blocks of rows too
    pts = su2_points(86, 515)
    h = np.array([1e-6, 1e-7, 1e-9])
    pts[512:] = qmul(pts[[0, 300, 511]], np.stack([np.cos(h), np.sin(h), 0 * h, 0 * h], axis=-1))
    fs = build_field(SU2, pts)
    planted = [(1, 513), (301, 514), (512, 515)]
    blocks = [(i, i + len(d) - 1) for i, d in SU2.upper_blocks(fs.points)]
    assert len(blocks) == 3
    assert [next(b for b, (lo, hi) in enumerate(blocks) if lo <= a <= hi) for a, _ in planted] \
        == [0, 1, 2]
    assert len(group_core.row_blocks(fs.m - 1, fs.m - 1)) == 3
    r = 1304
    f = bartlett_factor(fs, r, RngStream(86, 1).generator)
    est, se, unsafe = moment_rows(f, r, field_sim._CANCELLATION_TOL)
    i, j = np.triu_indices(fs.m, 1)
    assert list(zip(i[unsafe], j[unsafe])) == planted
    rng = RngStream(86, 1)
    rows = empirical_variogram(fs, r, rng)
    assert np.array_equal(rows.estimate, est) and np.array_equal(rows.stderr, se)
    assert np.array_equal(rows.pair_i, i) and np.array_equal(rows.pair_j, j)
    assert np.array_equal(rows.distance, SU2.pairwise(fs.points)[i, j])
    assert same_state(rng.generator.bit_generator.state, bartlett_end_state(86, 1, fs.m, r))
    # its blocks of rows of L A are one full product's, to rounding
    full = fs.chol[1:, 1:] @ bartlett_draw(fs.m - 1, r, RngStream(86, 1).generator)
    assert np.abs(f[1:] - full).max() <= 1e-13 * np.abs(full).max()


@pytest.mark.parametrize("m", [12, 515])
def test_variogram_distance_is_the_groups_distance_bit_for_bit(m):
    # points planted 1e-6, 1e-7 and 1e-9 from others and far from x0, and -e
    # antipodal to it, at m = 515 in three blocks of upper-triangle rows: each
    # pair's distance is the group's own, where the kernel's
    # K_ii + K_jj - 2 K_ij reads the pair 1e-9 apart about 1e-7 relative off
    pts = su2_points(86, m)
    h = np.array([1e-6, 1e-7, 1e-9])
    pts[-3:] = qmul(pts[[0, m // 2, m - 4]], np.stack([np.cos(h), np.sin(h), 0 * h, 0 * h],
                                                      axis=-1))
    pts[1] = -SU2.identity
    fs = build_field(SU2, pts)
    rows = empirical_variogram(fs, 100, RngStream(86, 1))
    i, j = np.triu_indices(fs.m, 1)
    d = SU2.pairwise(fs.points)
    assert np.array_equal(rows.distance, d[i, j])
    assert rows.distance[1] == math.pi  # the pair (0, 2): x0 and -e
    assert d[m - 3, m] < 1.1e-9


def test_haar_points_flag_no_pair():
    # the simulate benchmark's size: 200 Haar points and 10,000 realizations
    fs, r = build_field(SU2, su2_points(82, 200)), 10_000
    rows = empirical_variogram(fs, r, RngStream(82, 1))
    est, _, unsafe = moment_rows(bartlett_factor(fs, r, RngStream(82, 1).generator), r,
                                 field_sim._CANCELLATION_TOL)
    assert len(unsafe) == 0
    assert np.array_equal(rows.estimate, est)


def test_variogram_memory_does_not_grow_with_realizations():
    fs = build_field(SU2, su2_points(83, 50))
    peaks = []
    for r in (2_047, 100_000):
        tracemalloc.start()
        try:
            empirical_variogram(fs, r, RngStream(83, 1))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    # 100,000 realizations of values alone would be 40.8 MB; the pass holds S
    # and Bartlett's F of 50 columns whatever r, the columns and a block of
    # pair terms
    assert peaks[1] <= 1.1 * peaks[0]
    assert peaks[1] <= 8 * (2.5 * fs.m ** 2 + 2 * fs.m * field_sim._BLOCK)


@pytest.mark.parametrize("points", [1, 10, 200, 1500])
def test_simulate_is_charged_its_factors_columns_not_its_realizations(points):
    # Bartlett's F holds min(points, r) columns of points + 1 floats, and
    # nothing else the variogram holds grows with r
    charge = field_sim.variogram_bytes(points, points)
    for r in (points + 1, 10 * points, 10_000, 10_000_000):
        assert field_sim.variogram_bytes(points, r) == charge
    for r in (1, points // 2, points - 1):
        assert charge - field_sim.variogram_bytes(points, r) == 8 * (points + 1) * (points - r)


def test_variogram_degenerate_and_antipodal_pairs():
    e = SU2.identity
    pts = np.vstack([-e, su2_points(69, 8)])
    fs = build_field(SU2, pts, x0=e)
    antipodal = empirical_variogram(fs, 10_000, RngStream(69, 1))[0]  # the pair (0, 1): base point and -e
    assert (antipodal.pair_i, antipodal.pair_j) == (0, 1)
    assert antipodal.distance == pytest.approx(math.pi)
    assert abs(antipodal.estimate - math.pi) <= 3.0 * antipodal.stderr


def test_variogram_needs_enough_realizations():
    fs = build_field(SU2, su2_points(70, 5))
    rng = RngStream(70, 1)
    state = rng.generator.bit_generator.state
    for r in (0, 99):
        with pytest.raises(ValueError):
            empirical_variogram(fs, r, rng)
    assert same_state(rng.generator.bit_generator.state, state)  # nothing drawn


def test_variogram_invariant_under_group_translation():
    pts = SU2.sample(RngStream(71, 0), 11)
    pts, h = pts[:10], pts[10]
    moved = qmul(h, pts)
    rows_a = empirical_variogram(build_field(SU2, pts, x0=SU2.identity), 2000, RngStream(71, 1))
    rows_b = empirical_variogram(build_field(SU2, moved, x0=h), 2000, RngStream(71, 1))
    for ra, rb in zip(rows_a, rows_b):
        assert abs(ra.distance - rb.distance) < 1e-7
        assert abs(ra.estimate - rb.estimate) < 1e-6


def test_jitter_insensitivity():
    pts = su2_points(72, 25)
    rows_small = empirical_variogram(build_field(SU2, pts, jitter=1e-10), 2000, RngStream(72, 1))
    rows_large = empirical_variogram(build_field(SU2, pts, jitter=1e-8), 2000, RngStream(72, 1))
    for a, b in zip(rows_small, rows_large):
        assert abs(a.estimate - b.estimate) < 1e-3


# ---------------------------------------------------------------------------
# emitters
# ---------------------------------------------------------------------------

def test_variogram_csv_layout(tmp_path):
    # The variogram's CSV goes out through the CLI's one emitter.
    rows = empirical_variogram(build_field(SU2, su2_points(73, 4)), 200, RngStream(73, 1))
    out = tmp_path / "variogram.csv"
    cfg = RunConfig("simulate", format="csv", out=str(out), no_meta=True)
    _emit(cfg, {}, VariogramRow._fields, rows)
    lines = out.read_text().splitlines()
    assert lines[0] == "pair_i,pair_j,distance,estimate,stderr"
    assert len(lines) == 1 + 5 * 4 // 2
    first = lines[1].split(",")
    assert first[0] == "0" and first[1] == "1"
    float(first[2]), float(first[3]), float(first[4])
