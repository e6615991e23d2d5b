import math

import numpy as np
import pytest

from levy_groups import (
    SO3,
    SU2,
    KernelNotPSDError,
    RngStream,
    SU2Element,
    build_field,
    dist_su2,
    empirical_variogram,
    sample_field,
)
from levy_groups.cli import RunConfig, _emit
from levy_groups.field_sim import VariogramRow


def su2_points(seed, m, stream=0):
    return SU2.sample(RngStream(seed, stream), m)


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def test_single_point_field_is_trivial():
    fs = build_field(SU2, SU2.identity[None])
    assert fs.m == 1
    assert fs.K.shape == (1, 1)
    assert fs.K[0, 0] == 0.0
    assert fs.chol[0, 0] == 0.0


def test_build_field_prepends_base_point():
    pts = su2_points(60, 10)
    fs = build_field(SU2, pts)
    assert fs.m == 11
    assert np.array_equal(fs.points[0], SU2.identity)
    assert np.array_equal(fs.points[1:], pts)
    assert np.abs(fs.K[0, :]).max() == 0.0
    assert np.abs(fs.K[:, 0]).max() == 0.0


def test_build_field_moves_existing_base_point_to_front():
    e = SU2.identity
    pts = np.vstack([su2_points(61, 5), e])
    fs = build_field(SU2, pts, x0=e)
    assert fs.m == 6
    assert np.array_equal(fs.points, pts[[5, 0, 1, 2, 3, 4]])


def test_factorization_reproduces_kernel():
    pts = su2_points(62, 50)
    fs = build_field(SU2, pts)
    assert fs.jitter_used <= 1e-9
    resid = np.abs(fs.chol @ fs.chol.T - fs.K).max()
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


def test_values_are_the_cholesky_factor_times_the_normals():
    fs = build_field(SU2, su2_points(76, 30))
    vals = sample_field(fs, 400, RngStream(76, 1)).values
    z = RngStream(76, 1).generator.standard_normal((30, 400))
    assert np.array_equal(vals[1:], fs.chol[1:, 1:] @ z)


def test_field_moments_match_kernel():
    pts = su2_points(67, 10)
    fs = build_field(SU2, pts)
    r = 20_000
    fs = sample_field(fs, r, RngStream(67, 2))
    e = SU2Element.identity()
    for i in [1, 4, 9]:
        d_i = fs.K[i, i]
        mean = fs.values[i].mean()
        assert abs(mean) < 3.0 * math.sqrt(d_i / r)
        var = fs.values[i].var(ddof=1)
        assert abs(var - d_i) < 3.0 * d_i * math.sqrt(2.0 / r)
        assert d_i == pytest.approx(dist_su2(SU2Element.from_vector(fs.points[i]), e), abs=1e-9)


def test_variogram_matches_distances():
    fs = build_field(SU2, su2_points(68, 12))
    fs = sample_field(fs, 10_000, RngStream(68, 1))
    rows = empirical_variogram(fs)
    assert len(rows) == 13 * 12 // 2
    covered = sum(
        1 for row in rows if abs(row.estimate - row.distance) <= 3.0 * row.stderr
    )
    assert covered / len(rows) >= 0.95


@pytest.mark.parametrize("m", [12, 200])
def test_variogram_matches_the_direct_formula_on_every_pair(m):
    # the Gram-product moments against the per-pair differences, with points
    # planted 1e-3, 1e-6 and 1e-9 from others, where those moments cancel
    pts = su2_points(77, m)
    pts = np.vstack([pts] + [(SU2Element.from_vector(pts[k])
                              * SU2Element(math.cos(h), math.sin(h), 0.0, 0.0)).vector
                             for k, h in enumerate([1e-3, 1e-6, 1e-9])])
    fs = sample_field(build_field(SU2, pts), 10_000, RngStream(77, 1))
    rows = empirical_variogram(fs)
    assert len(rows) == (m + 4) * (m + 3) // 2
    r = fs.values.shape[1]
    for row in rows:
        sq = (fs.values[row.pair_i] - fs.values[row.pair_j]) ** 2
        est, se = sq.mean(), sq.std(ddof=1) / np.sqrt(r)
        assert abs(row.estimate - est) <= 1e-12 * est
        assert abs(row.stderr - se) <= 1e-9 * se


def test_variogram_degenerate_and_antipodal_pairs():
    e = SU2.identity
    pts = np.vstack([-e, su2_points(69, 8)])
    fs = build_field(SU2, pts, x0=e)
    fs = sample_field(fs, 10_000, RngStream(69, 1))
    rows = empirical_variogram(fs, pairs=[(0, 0), (0, 1)])
    assert rows[0].estimate == 0.0
    assert rows[0].stderr == 0.0
    assert rows[0].distance == 0.0
    antipodal = rows[1]
    assert antipodal.distance == pytest.approx(math.pi)
    assert abs(antipodal.estimate - math.pi) <= 3.0 * antipodal.stderr


def test_variogram_needs_enough_realizations():
    fs = build_field(SU2, su2_points(70, 5))
    with pytest.raises(ValueError):
        empirical_variogram(fs)
    fs = sample_field(fs, 99, RngStream(70, 1))
    with pytest.raises(ValueError):
        empirical_variogram(fs)


def test_variogram_invariant_under_group_translation():
    pts = SU2.sample(RngStream(71, 0), 11)
    pts, h = pts[:10], SU2Element.from_vector(pts[10])
    moved = np.stack([(h * SU2Element.from_vector(p)).vector for p in pts])
    fs_a = sample_field(build_field(SU2, pts, x0=SU2.identity), 2000, RngStream(71, 1))
    fs_b = sample_field(build_field(SU2, moved, x0=h.vector), 2000, RngStream(71, 1))
    rows_a = empirical_variogram(fs_a)
    rows_b = empirical_variogram(fs_b)
    for ra, rb in zip(rows_a, rows_b):
        assert abs(ra.distance - rb.distance) < 1e-7
        assert abs(ra.estimate - rb.estimate) < 1e-6


def test_jitter_insensitivity():
    pts = su2_points(72, 25)
    rows_small = empirical_variogram(
        sample_field(build_field(SU2, pts, jitter=1e-10), 2000, RngStream(72, 1))
    )
    rows_large = empirical_variogram(
        sample_field(build_field(SU2, pts, jitter=1e-8), 2000, RngStream(72, 1))
    )
    for a, b in zip(rows_small, rows_large):
        assert abs(a.estimate - b.estimate) < 1e-3


# ---------------------------------------------------------------------------
# emitters
# ---------------------------------------------------------------------------

def test_variogram_csv_layout(tmp_path):
    # The variogram's CSV goes out through the CLI's one emitter.
    fs = sample_field(build_field(SU2, su2_points(73, 4)), 200, RngStream(73, 1))
    rows = empirical_variogram(fs)
    out = tmp_path / "variogram.csv"
    cfg = RunConfig("simulate", format="csv", out=str(out), no_meta=True)
    _emit(cfg, {}, VariogramRow._fields, rows)
    lines = out.read_text().splitlines()
    assert lines[0] == "pair_i,pair_j,distance,estimate,stderr"
    assert len(lines) == 1 + 5 * 4 // 2
    first = lines[1].split(",")
    assert first[0] == "0" and first[1] == "1"
    float(first[2]), float(first[3]), float(first[4])
