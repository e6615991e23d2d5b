import dataclasses
import itertools
import json
import math
import re
import tracemalloc
from importlib import resources

import numpy as np
import pytest

from levy_groups import (
    SO3,
    SU2,
    RngStream,
    WitnessNotFoundError,
    find_witness,
    gram_audit,
    group_named,
    pairwise_distance_matrix,
    transfer_witness,
)
import levy_groups
from levy_groups import group_core, kernel_lab, lapack
from levy_groups.kernel_lab import WitnessCertificate, _reflect, sum_zero_basis
from oracles import (audit_matrix, binary_icosahedral, bordered_top, packed_from,
                     reduced_ends, rfp_places, unpacked)

WITNESS_SCHEMA = json.loads(
    (resources.files("levy_groups") / "schemas" / "witness.schema.json").read_text())


def su2_points(seed, m, stream=0):
    return SU2.sample(RngStream(seed, stream), m)


def so3_points(seed, m, stream=0):
    return SO3.sample(RngStream(seed, stream), m)


def su2_dist(x, y):
    """SU2.distances between two quadruple rows."""
    return float(SU2.distances(x[None], y)[0])


def kernel_for(group, x, x0):
    """brownian_kernel of the rows of x for the base point x0: x0 put first,
    its row and column taken off."""
    return kernel_lab.brownian_kernel(group, np.concatenate(([x0], x)))[1:, 1:]


def lemma_equivalence(group, x):
    """The kernel-PSD test and the restricted-negativity test agree (they
    must, by the kernel identity)."""
    audit = gram_audit(group, x)
    return audit.is_positive_semidefinite() == audit.is_restricted_negative()


# ---------------------------------------------------------------------------
# kernel values
# ---------------------------------------------------------------------------

def test_kernel_vanishes_at_base_point():
    e = SU2.identity
    pts = np.vstack([e, SU2.sample(RngStream(40, 0), 5)])
    k = kernel_lab.brownian_kernel(SU2, pts)
    assert np.abs(k[0]).max() == pytest.approx(0.0, abs=1e-15)


def test_kernel_diagonal_is_distance_to_base():
    # 1e-7 band: arccos near a unit dot product resolves d(x,x) only to
    # about sqrt(machine eps)
    rng = RngStream(41, 0)
    x0 = SU2.sample(rng, 1)[0]
    x = SU2.sample(rng, 5)
    k = kernel_for(SU2, x, x0)
    for i in range(5):
        assert k[i, i] == pytest.approx(su2_dist(x[i], x0), abs=1e-7)


def test_kernel_antipodal_equatorial_configuration():
    # x = -e (antipodal), y on the equator: K = (pi + pi/2 - pi/2)/2
    e = SU2.identity
    x = -e
    y = np.array([0.0, 1.0, 0.0, 0.0])
    assert su2_dist(y, e) == pytest.approx(math.pi / 2)
    assert su2_dist(x, y) == pytest.approx(math.pi / 2)
    k = kernel_for(SU2, np.stack([x, y]), e)
    assert k[0, 1] == pytest.approx(math.pi / 2, abs=1e-12)


def test_kernel_symmetry():
    rng = RngStream(42, 0)
    x, y, x0 = SU2.sample(rng, 3)
    k = kernel_for(SU2, np.stack([x, y]), x0)
    assert np.array_equal(k, k.T)
    want = 0.5 * (su2_dist(x, x0) + su2_dist(y, x0) - su2_dist(x, y))
    assert k[0, 1] == pytest.approx(want, abs=1e-12)


# ---------------------------------------------------------------------------
# audits
# ---------------------------------------------------------------------------

def test_sum_zero_basis_properties():
    b = sum_zero_basis(7)
    assert np.abs(b.T @ b - np.eye(6)).max() < 1e-14
    assert np.abs(b.sum(axis=0)).max() < 1e-14


GROUPS = pytest.mark.parametrize("group", [SU2, SO3, group_named("son", 5)],
                                 ids=["su2", "so3", "so5"])


@GROUPS
@pytest.mark.parametrize("m", [2, 3, 7, 300])
def test_pairwise_is_symmetric_bit_for_bit(group, m):
    # gram_audit and build_field build K from D without symmetrizing it
    d = group.pairwise(group.sample(RngStream(44, 0), m))
    assert np.array_equal(d, d.T)


@GROUPS
@pytest.mark.parametrize("m", [2, 3, 50, 200, "identical"])
def test_centered_spectrum_is_the_helmert_compression(group, m):
    x = (np.stack([group.identity] * 4) if m == "identical"
         else group.sample(RngStream(45, 0), m))
    d = group.pairwise(x)
    b = sum_zero_basis(len(d))
    want = np.linalg.eigvalsh(b.T @ d @ b)
    for scale in (1.0, -0.5):  # H D H, and gram_audit's -1/2 H D H
        # scaling by a power of two is exact: _reflect(-2 scale d) is H (scale d) H
        got = np.linalg.eigvalsh(_reflect(-2.0 * scale * d)[1:, 1:])
        assert np.abs(got - np.sort(scale * want)).max() <= 1e-12 * max(1.0, np.linalg.norm(d, 2))
        ones = _reflect(-2.0 * scale * np.ones_like(d))  # H sends the constants to e1
        ones[0, 0] -= scale * len(d)
        assert np.abs(ones).max() <= 1e-14 * len(d)


@pytest.mark.parametrize("group", [SU2, SO3], ids=["su2", "so3"])
@pytest.mark.parametrize("seed", range(5))
def test_reflect_keeps_a_symmetric_matrix_bit_for_bit(group, seed):
    # gram_audit's H K H is reduced from one triangle and factored from the other
    x = group.sample(RngStream(seed, 0), 100)
    for a in (group.pairwise(x), kernel_for(group, x, group.identity)):
        assert np.array_equal(a, a.T)
        _reflect(a)
        assert np.array_equal(a, a.T)


@pytest.mark.parametrize("group", [SU2, SO3, group_named("son", 4)], ids=["su2", "so3", "so4"])
def test_audit_matrix_is_minus_half_hdh_bordered_and_bitwise_symmetric(group, monkeypatch):
    # gram_audit forms no K: the whole H K H it builds where the factor fails
    # has -1/2 H D H's [1:, 1:] block bit for bit, and is H K H within rounding
    x = group.sample(RngStream(59, 0), 150)
    seen = []
    monkeypatch.setattr(lapack, "factored_extremes",
                        lambda m, pack, full: seen.append(full()) or ((1.0,) * 4, "reduction"))
    gram_audit(group, x)
    [a] = seen
    assert np.array_equal(a, a.T)
    assert np.array_equal(a[1:, 1:], _reflect(group.pairwise(x))[1:, 1:])
    want = _reflect(-2.0 * kernel_for(group, x, group.identity))
    assert np.abs(a - want).max() <= 1e-15 * np.abs(want).max()


def audit_floats(audit):
    return audit.max_centered_eig, audit.min_K_eig, audit.centered_eig_scale, audit.K_eig_scale


def serial_audit(group, x):
    """gram_audit's four floats by its formulas, on fresh arrays: H K H as
    -1/2 H D H and its border (oracles.audit_matrix), then the ends of its
    spectrum and of its [1:, 1:] block: from its factor where it is positive
    definite, the bottoms only, so no scales, packed from H K H with the
    packed build's row sums; else from the reduction of the whole H K H."""
    # the distance formulas work in blocks; D is taken as given
    (k_min, k_max, c_min, c_max), method = lapack.factored_extremes(
        len(x), packed_from(audit_matrix(group, x, pair_sums=True)),
        lambda: audit_matrix(group, x))
    if method == "cholesky":
        return -2.0 * c_min, k_min, None, None
    return -2.0 * c_min, k_min, 2.0 * max(abs(c_min), abs(c_max)), max(abs(k_min), abs(k_max))


def eigvalsh_audit(group, x):
    """The four floats from two whole spectra by eigvalsh: K's, and that of D
    centered with the constants shifted below the rest."""
    d = group.pairwise(x)
    d0 = group.distances(x, group.identity)
    k_eigs = np.linalg.eigvalsh(0.5 * (d0[:, None] + d0[None, :] - d), UPLO="U")
    m, r = len(d), d.mean(axis=0)
    s = 1.0 + m * float(np.abs(d).max())
    c_eigs = np.linalg.eigvalsh(d - np.add.outer(r, r) + (r.mean() - s / m))[1:]
    return c_eigs[-1], k_eigs[0], np.abs(c_eigs).max(), np.abs(k_eigs).max()


@pytest.mark.parametrize("group", [SU2, SO3, group_named("son", 4)], ids=["su2", "so3", "so4"])
@pytest.mark.parametrize("m", [*range(2, 10), 40, 41, 150])
def test_packed_build_is_the_audit_matrix_to_rounding(group, m):
    # the packed block is the whole H K H's lower triangle within 1e-15 of
    # its largest entry, and bit for bit that of H K H with the row sums
    # added a pair at a time; so is the first column.  Every place of the
    # RFP array is written: none keeps its NaN
    x = group.sample(RngStream(70, m), m)
    r = np.full(rfp_places(m - 1)[0].shape, np.nan)
    column = kernel_lab._packed_kernel(group, x, group.identity, r)
    block = unpacked(r, m - 1)
    whole, paired = audit_matrix(group, x), audit_matrix(group, x, pair_sums=True)
    scale = np.abs(whole).max()
    assert np.abs(block - np.tril(whole[1:, 1:])).max() <= 1e-15 * scale
    assert np.abs(column - whole[:, 0]).max() <= 1e-15 * scale
    assert np.array_equal(block, np.tril(paired[1:, 1:]))
    assert np.array_equal(column, paired[:, 0])


@GROUPS
@pytest.mark.parametrize("m", [2, 3, 50, 128, 129, 257, 400])
@pytest.mark.parametrize("solves", [1, 2])
def test_audit_matches_serial_reference_bit_for_bit(group, m, solves, monkeypatch):
    # one factor or one reduction, or without LAPACK two eigvalsh solves;
    # each is within rounding of two whole spectra
    if solves == 2:
        monkeypatch.setattr(lapack, "available", lambda: False)
    elif not lapack.available():
        pytest.skip("numpy bundles no LAPACK")
    x = group.sample(RngStream(50, m), m)
    audit = gram_audit(group, x)
    got = audit_floats(audit)
    assert got == serial_audit(group, x)
    assert (got[2] is None and got[3] is None) == (audit.method == "cholesky")
    want = eigvalsh_audit(group, x)
    c_scale, k_scale = max(want[2], 1.0), max(want[3], 1.0)
    if got[2] is None:  # the factor's: no tops, so no scales
        got, want = got[:2], want[:2]
    assert all(abs(g - w) <= 1e-14 * scale
               for g, w, scale in zip(got, want, (c_scale, k_scale, c_scale, k_scale)))


@GROUPS
@pytest.mark.parametrize("floats, m", [(1000, 2), (1000, 3), (1000, 50), (1000, 129), (100, 129)])
def test_audit_packs_over_many_blocks_bit_for_bit(group, floats, m, monkeypatch):
    # K and H K H in 20 rows a block at m = 50 and 7 at m = 129, each ending
    # in a partial block; one row a block where a row holds more than the
    # block's floats.  The distances are blocked alike both times.
    monkeypatch.setattr(group_core, "BLOCK_FLOATS", floats)
    x = group.sample(RngStream(54, m), m)
    blocked = audit_floats(gram_audit(group, x))
    monkeypatch.setattr(kernel_lab, "row_blocks", lambda rows, floats: [slice(0, rows)])
    assert audit_floats(gram_audit(group, x)) == blocked


@pytest.mark.parametrize("path", ["lapack", "fallback"])
@pytest.mark.parametrize("m", [2, 3, 7, 130, "identical"])
def test_spectral_ends_are_those_of_a_and_of_its_helmert_compression(m, path, monkeypatch):
    if m == "identical":  # K of four copies of one point: d(g, e) times the ones
        d0 = SU2.distances(np.stack([su2_points(57, 1)[0]] * 4), SU2.identity)
        a = 0.5 * (d0[:, None] + d0[None, :])
    else:
        a = RngStream(57, m).generator.standard_normal((m, m))
        a += a.T
    if path == "fallback":
        monkeypatch.setattr(lapack, "available", lambda: False)
    elif not lapack.available():
        pytest.skip("numpy bundles no LAPACK")
    b = sum_zero_basis(len(a))
    whole, part = np.linalg.eigvalsh(a), np.linalg.eigvalsh(b.T @ a @ b)
    got = reduced_ends(kernel_lab._reflect(-2.0 * a))
    want = (whole[0], whole[-1], part[0], part[-1])
    assert np.abs(np.subtract(got, want)).max() <= 1e-14 * max(1.0, np.linalg.norm(a, 2))


SENTINEL = np.array(0x7FE0DEADBEEF0001, dtype=np.uint64).view(np.float64)  # huge, finite


@pytest.mark.skipif(not lapack.available(), reason="numpy bundles no LAPACK")
@pytest.mark.parametrize("part", ["K", "centered D"])
@pytest.mark.parametrize("m", [1, 2, 5, 130])
def test_packed_solve_reads_and_writes_only_its_triangle(part, m):
    # the reduction reads and overwrites a's upper triangle only; K's ends are
    # those of T, the centered D's those of the order-m block T[1:, 1:] of the
    # order m + 1 matrix, which is similar to a[1:, 1:] since Q fixes e1
    a = RngStream(56, m + 1).generator.standard_normal((m + 1, m + 1))
    a += a.T
    upper = np.triu(np.ones((m + 1, m + 1), dtype=bool))
    buf = np.where(upper, a, SENTINEL)
    ends = reduced_ends(buf)
    got, a = (ends[:2], a) if part == "K" else (ends[2:], a[1:, 1:])
    eigs = np.linalg.eigvalsh(a)
    assert np.abs(np.subtract(got, (eigs[0], eigs[-1]))).max() <= 1e-14 * max(1.0, np.abs(eigs).max())
    assert (buf[~upper].view(np.uint64) == SENTINEL.view(np.uint64)).all()


@pytest.mark.skipif(not lapack.available(), reason="numpy bundles no LAPACK")
@pytest.mark.parametrize("part", ["K", "centered D"])
def test_packed_solve_raises_on_a_lapacke_error(part, monkeypatch):
    # bisection on T (order m) gives K's ends, on T[1:, 1:] (order m - 1) the
    # centered D's; a failure on either reaches gram_audit's caller.  SO(3)
    # points: K is indefinite there, so the reduction runs
    m = 20
    dstebz = lapack._library()["scipy_LAPACKE_dstebz64_"]
    order = m if part == "K" else m - 1
    monkeypatch.setitem(lapack._library(), "scipy_LAPACKE_dstebz64_",
                        lambda *args: 2 if args[2] == order else dstebz(*args))
    with pytest.raises(np.linalg.LinAlgError, match="bisection failed: dstebz info 2"):
        gram_audit(SO3, so3_points(51, m))


@pytest.mark.skipif(not lapack.available(), reason="numpy bundles no LAPACK")
@pytest.mark.parametrize("routine, info, message", [
    ("dpotrf", 4, "Cholesky factorization failed: dpotrf info -4")])
def test_factor_raises_on_a_lapack_error(routine, info, message, monkeypatch):
    # SU(2): K is positive definite, so the packed factor runs; INFO < 0 (an
    # illegal argument) of its first dpotrf('L') reaches gram_audit's caller,
    # naming the routine
    name = f"scipy_{routine}_64_"
    real = lapack._library()[name]

    def failing(*args):
        real(*args)
        if args[0] == b"L":  # the packed factor's, not the probe's dpotrf('U')
            args[info]._obj.value = -info  # INFO, by reference

    monkeypatch.setitem(lapack._library(), name, failing)
    with pytest.raises(np.linalg.LinAlgError, match=message):
        gram_audit(SU2, su2_points(51, 20))


def workspace_bytes(m, group=SO3):
    """Bytes of the audit's workspace at order m: on SU(2), where K is
    positive definite, the Lanczos basis of up to KRYLOV_BYTES // 8
    vectors; elsewhere the reduction's queried WORK and HOUS2 (0 without
    LAPACK)."""
    if not lapack.available():
        return 0
    if group is SU2:
        return min(lapack.KRYLOV_BYTES // 8, m) * 8 * m
    return 8 * sum(lapack._tridiagonal_workspace(m))


@GROUPS
@pytest.mark.parametrize("m", [129, 300])
def test_audit_kernel_is_the_formula_and_bitwise_symmetric(group, m):
    # for the base point x[0], here e, whose row and column are exactly 0.0
    x = np.concatenate(([group.identity], group.sample(RngStream(52, m), m)))
    k = kernel_lab.brownian_kernel(group, x)
    d = pairwise_distance_matrix(group, x)
    want = 0.5 * (d[0][:, None] + d[0][None, :] - d)
    assert np.array_equal(k, k.T)
    assert np.array_equal(k, want)
    assert not k[0].any()


def held_at_solves(monkeypatch):
    """Traced bytes at each Lanczos step of lapack, under "lanczos", and at
    the reduction's entry, under "reduce"."""
    held, lanczos, reduce = {}, lapack._lanczos, lapack._reduce

    def problem(apply, start, steps):
        def step(x):
            held.setdefault("lanczos", []).append(tracemalloc.get_traced_memory()[0])
            apply(x)
        return lanczos(step, start, steps)

    def reduction(a, m):
        held.setdefault("reduce", []).append(tracemalloc.get_traced_memory()[0])
        return reduce(a, m)

    monkeypatch.setattr(lapack, "_lanczos", problem)
    monkeypatch.setattr(lapack, "_reduce", reduction)
    return held


@GROUPS
def test_audit_holds_one_packed_matrix_at_its_solves(group, monkeypatch):
    # SU(2)'s Lanczos steps hold the packed factor, half the matrix, beside
    # their basis; where the factor fails, the reduction holds the rebuilt
    # (m, m) buffer, D, K and H K H in one, the packed array dropped first
    m = 300
    x = group.sample(RngStream(53, 0), m)
    held = held_at_solves(monkeypatch)
    tracemalloc.start()
    try:
        gram_audit(group, x)
    finally:
        tracemalloc.stop()
    if group is SU2 and lapack.available():
        assert set(held) == {"lanczos"}
        assert max(held["lanczos"]) <= 1.02 * 8 * m * m
    else:
        assert len(held["reduce"]) == 1
        assert held["reduce"][0] <= 1.02 * 8 * m * m


@pytest.mark.skipif(not lapack.available(), reason="numpy bundles no LAPACK")
def test_su2_audit_holds_half_a_matrix_at_its_solves(monkeypatch):
    # the RFP factor of H K H's block, m (m - 1) / 2 floats, and the Lanczos
    # basis; the whole (m, m) buffer is never built
    m = 1000
    x = SU2.sample(RngStream(53, 2), m)
    held = held_at_solves(monkeypatch)
    tracemalloc.start()
    try:
        assert gram_audit(SU2, x).method == "cholesky"
    finally:
        tracemalloc.stop()
    assert set(held) == {"lanczos"}
    assert max(held["lanczos"]) <= 0.51 * 8 * m * m + workspace_bytes(m, SU2)


@GROUPS
def test_audit_peaks_at_one_packed_matrix(group, monkeypatch):
    # the distances are written into the buffer and reduced in it; all else
    # is the reduction's workspace and block scratch, here blocks of 1,024
    # floats (one row on SO(5))
    m = 600
    monkeypatch.setattr(group_core, "BLOCK_FLOATS", 1 << 10)
    x = group.sample(RngStream(53, 1), m)
    tracemalloc.start()
    try:
        gram_audit(group, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - workspace_bytes(m, group) <= 1.02 * 8 * m * m
    assert workspace_bytes(m) <= 1024 * m  # the reduction's, within audit_bytes' 1 kB per point


def test_so3_audit_with_real_blocks_peaks_no_higher_than_su2(monkeypatch):
    # each build with real blocks holds its output and two blocks of the
    # distance kernel's scratch, as its _pair_floats declares: SU(2) packs
    # H K H's block, SO(3), whose leading minor fails, packs nothing and
    # builds the whole (m, m) buffer in full(); in the solve SU(2) holds the
    # packed factor and its Lanczos basis, SO(3) that buffer and its
    # reduction's workspace
    m = 1000
    built, during = {}, {}
    solve = lapack.factored_extremes

    def peak_of(name, build):  # the traced peak while build runs, the peak reset after it
        def spy(*args):
            tracemalloc.reset_peak()
            out = build(*args)
            built[group, name] = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            return out
        return spy

    monkeypatch.setattr(lapack, "factored_extremes", lambda m, pack, full: solve(
        m, peak_of("pack", pack), peak_of("full", full)))
    for group in (SU2, SO3):  # load the solver first
        gram_audit(group, group.sample(RngStream(54, 0), 10))
    built.clear()  # the warm-ups'
    for group in (SU2, SO3):
        x = group.sample(RngStream(54, 1), m)
        tracemalloc.start()
        try:
            gram_audit(group, x)
            during[group] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    blocks = 16 * group_core.BLOCK_FLOATS
    assert built[SO3, "full"] <= 1.02 * 8 * m * m + blocks
    if lapack.available():
        assert built[SU2, "pack"] <= 0.52 * 8 * m * m + blocks
        assert during[SU2] - workspace_bytes(m, SU2) <= 0.52 * 8 * m * m
    else:
        assert during[SU2] - workspace_bytes(m, SU2) <= 1.02 * 8 * m * m
    assert during[SO3] - workspace_bytes(m, SO3) <= 1.02 * 8 * m * m
    assert workspace_bytes(m, SO3) <= 1024 * m  # the reduction's, within audit_bytes' 1 kB per point


def test_so3_packed_build_peaks_at_the_packed_array_and_two_blocks():
    # gram_audit packs no SO(3) set this large, as K's leading minor fails
    # first; the build itself holds one block of the distance kernel's
    # scratch beside its output, as on SU(2)
    m = 1000
    x = SO3.sample(RngStream(54, 1), m)
    kernel_lab._packed_kernel(SO3, x[:10], SO3.identity, lapack._packed(9))  # warm-up
    tracemalloc.start()
    try:
        kernel_lab._packed_kernel(SO3, x, SO3.identity, lapack._packed(m - 1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.52 * 8 * m * m + 16 * group_core.BLOCK_FLOATS


@pytest.mark.parametrize("group, m", [(SU2, 20), (SU2, 300), (SO3, 300),
                                      (group_named("son", 4), 300), (group_named("son", 6), 100)])
def test_probe_reads_whether_ks_leading_minor_is_positive_definite(group, m):
    # K on the first _PROBE_POINTS points, all of them if fewer, for the base
    # point e: positive definite on SU(2), not on SO(n)
    x = group.sample(RngStream(72, m), m)
    minor = kernel_for(group, x[:kernel_lab._PROBE_POINTS], group.identity)
    definite = np.linalg.eigvalsh(minor)[0] > 0.0
    assert kernel_lab._minor_is_definite(group, x, group.identity) == definite == (group is SU2)


@pytest.mark.parametrize("group", [SO3, group_named("son", 4)])
def test_audit_packs_nothing_where_the_probe_fails(group, monkeypatch):
    # the distances are walked once, for the reduction's whole matrix, and the
    # floats are those of the reduction of H K H
    def never(*args):
        raise AssertionError("gram_audit packed the block")

    monkeypatch.setattr(kernel_lab, "_packed_kernel", never)
    x = group.sample(RngStream(73, 0), 200)
    audit = gram_audit(group, x)
    assert audit.method == "reduction"
    k_min, k_max, c_min, c_max = reduced_ends(audit_matrix(group, x))
    assert (audit.min_K_eig, audit.max_centered_eig) == (k_min, -2.0 * c_min)


@pytest.mark.parametrize("reduce, points", [(True, 1000), (True, 2000), (False, 1000),
                                            (False, 2000)],
                         ids=["in-place-1", "in-place-2", "fallback-1", "fallback-2"])
def test_check_is_charged_one_buffer_and_the_copies_of_its_solve_path(reduce, points,
                                                                      monkeypatch):
    # the reduction works in place; without LAPACK, eigvalsh copies the
    # matrix, then its [1:, 1:] block, one after the other: one more m x m
    if not lapack.available():
        pytest.skip("numpy bundles no LAPACK")
    in_place = kernel_lab.audit_bytes(SU2, points)
    if not reduce:
        monkeypatch.setattr(lapack, "available", lambda: False)
    charge = [kernel_lab.audit_bytes(SU2, m) for m in (points - 1, points, points + 1)]
    assert charge[1] - in_place == (0 if reduce else 8 * points ** 2)
    # the second difference in m leaves the m x m float64 arrays held: 2 * 8 each
    assert charge[0] - 2 * charge[1] + charge[2] == 16 * (1 if reduce else 2)


@pytest.mark.skipif(not lapack.available(), reason="numpy bundles no LAPACK")
def test_audit_takes_the_reduction_where_lanczos_outgrows_its_storage(monkeypatch):
    x = su2_points(58, 50)
    monkeypatch.setattr(lapack, "KRYLOV_BYTES", 8 * 4)  # four Lanczos steps
    audit = gram_audit(SU2, x)
    assert audit.method == "reduction"
    monkeypatch.setattr(lapack, "_bordered_ends", lambda a, m: None)
    assert audit == gram_audit(SU2, x)  # the reduction's floats, bit for bit


@pytest.mark.parametrize("m", [*range(2, 400, 9), 400, "icosahedral"])
def test_audit_decisions_are_those_with_the_reductions_scales(m):
    # on the Cholesky path the scales are None; the decisions are those the
    # reduction's scales give, at every tolerance >= 0
    x = binary_icosahedral() if m == "icosahedral" else SU2.sample(RngStream(68, m), m)
    audit = gram_audit(SU2, x)
    k_min, k_max, c_min, c_max = reduced_ends(audit_matrix(SU2, x))
    scaled = dataclasses.replace(audit, centered_eig_scale=2.0 * max(abs(c_min), abs(c_max)),
                                 K_eig_scale=max(abs(k_min), abs(k_max)))
    if audit.method == "cholesky":
        assert audit.centered_eig_scale is None and audit.K_eig_scale is None
    for tol in (0.0, 1e-14, kernel_lab.RELATIVE_EIG_TOL, 1e-3):
        assert audit.is_positive_semidefinite(tol) == scaled.is_positive_semidefinite(tol)
        assert audit.is_restricted_negative(tol) == scaled.is_restricted_negative(tol)


def test_binary_icosahedral_audit_reads_a_zero_top_sum_zero_eigenvalue():
    # a finite subgroup: D is negative semidefinite on sum-zero weights with
    # top eigenvalue 0, so K is singular there
    audit = gram_audit(SU2, binary_icosahedral())
    assert abs(audit.max_centered_eig) <= 1e-13


def test_two_point_audit_has_negative_top_eigenvalue():
    pts = su2_points(43, 2)
    audit = gram_audit(SU2, pts)
    d = su2_dist(pts[0], pts[1])
    # the only sum-zero direction gives exactly -d
    assert audit.max_centered_eig == pytest.approx(-d, abs=1e-12)
    assert audit.max_centered_eig < 0.0


def test_degenerate_audit_all_points_identical():
    x = np.tile(SU2.identity, (3, 1))
    audit = gram_audit(SU2, x)
    assert np.abs(pairwise_distance_matrix(SU2, x)).max() == 0.0
    assert audit.max_centered_eig == pytest.approx(0.0, abs=1e-15)
    assert audit.min_K_eig == pytest.approx(0.0, abs=1e-15)


def test_su2_kernel_is_positive_definite_at_scale():
    audit = gram_audit(SU2, su2_points(44, 200))
    assert audit.min_K_eig >= -1e-8
    assert audit.max_centered_eig <= 1e-8
    assert audit.is_positive_semidefinite()
    assert audit.is_restricted_negative()


def test_audit_base_point_row_vanishes_when_x0_included():
    e = SU2.identity
    pts = np.vstack([e, su2_points(45, 5)])
    k = kernel_lab.brownian_kernel(SU2, pts)
    assert np.abs(k[0, :]).max() < 1e-12
    assert np.abs(k[:, 0]).max() < 1e-12
    # the zero row makes the audited K singular
    assert abs(gram_audit(SU2, pts, x0=e).min_K_eig) < 1e-12


def test_audit_rejects_bad_input():
    with pytest.raises(ValueError, match="at least 2 points"):
        gram_audit(SU2, su2_points(46, 1))
    pts = su2_points(46, 3)
    pts[1] = math.nan
    with pytest.raises(ValueError, match="non-finite distance"):
        gram_audit(SU2, pts)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_reflect_rejects_a_non_finite_entry(bad):
    a = np.ones((5, 5))
    a[3, 1] = a[1, 3] = bad
    with pytest.raises(ValueError, match="non-finite distance"):
        _reflect(a)


def test_quadratic_form_bounded_by_top_eigenvalue():
    pts = so3_points(47, 30)
    audit = gram_audit(SO3, pts)
    d = pairwise_distance_matrix(SO3, pts)
    gen = RngStream(47, 1).generator
    for _ in range(20):
        xi = gen.standard_normal(30)
        xi -= xi.mean()
        xi /= np.linalg.norm(xi)
        assert xi @ d @ xi <= audit.max_centered_eig + 1e-9


def test_lemma_equivalence_su2_and_so3():
    for seed in range(5):
        assert lemma_equivalence(SU2, su2_points(seed, 40))
    for seed in range(5):
        assert lemma_equivalence(SO3, so3_points(seed, 30))


def test_lemma_equivalence_two_points_any_group():
    assert lemma_equivalence(SU2, su2_points(48, 2))
    assert lemma_equivalence(SO3, so3_points(48, 2))
    so5 = group_named("son", 5)
    assert lemma_equivalence(so5, so5.sample(RngStream(48, 2), 2))


def test_base_point_choice_is_immaterial_for_psd_on_su2():
    # bi-invariance: the kernel stays PSD for any base point
    pts = su2_points(49, 50)
    rng = RngStream(49, 1)
    for _ in range(3):
        audit = gram_audit(SU2, pts, x0=SU2.sample(rng, 1)[0])
        assert audit.is_positive_semidefinite()


# ---------------------------------------------------------------------------
# witnesses
# ---------------------------------------------------------------------------

def test_find_witness_so3():
    cert = find_witness(SO3, m=100, trials=10, rng=RngStream(50, 0))
    assert cert.group is SO3
    assert cert.value > 1e-6
    assert abs(float(np.sum(cert.weights))) < 1e-12
    assert cert.verify(tol=1e-10)
    assert cert.quadratic_form() == pytest.approx(cert.value, abs=1e-10)


@pytest.mark.parametrize("group", [SO3, group_named("son", 6)], ids=["so3", "son6"])
@pytest.mark.parametrize("seed", range(1, 6))
def test_witness_is_the_same_with_eighs_eigenpair(group, seed):
    # numpy's eigh of the Helmert compression of D: up to m = 35 points the
    # centred degree-2 span is the whole sum-zero space, so the witness is
    # its top eigenpair, weights within eps |D| / gap; beyond, the span's
    # Ritz value never exceeds the top eigenvalue (interlacing)
    for m in (5, 10, 20, 30, 35, 36, 100, 300):
        x = SO3.sample(RngStream(seed, 0), m)  # the search's one trial
        d = SO3.pairwise(x)
        b = sum_zero_basis(m)
        values, vectors = np.linalg.eigh(b.T @ d @ b)
        if m <= 35 and values[-1] <= kernel_lab.DEFAULT_MARGIN:
            with pytest.raises(WitnessNotFoundError):
                find_witness(group, m, trials=1, rng=RngStream(seed, 0))
            continue
        cert = find_witness(group, m, trials=1, rng=RngStream(seed, 0))
        assert np.array_equal(cert.points[:, :3, :3], x)
        assert cert.value == float(cert.weights @ d @ cert.weights)
        assert cert.weights[np.argmax(np.abs(cert.weights))] > 0
        if m > 35:
            assert cert.value <= values[-1] * (1.0 + 1e-13), m
            continue
        assert abs(cert.value - values[-1]) <= 1e-13 * values[-1], m
        want = b @ vectors[:, -1]
        want *= np.sign(want[np.argmax(np.abs(want))])
        assert np.abs(cert.weights - want).max() <= 1e-13 * m / (values[-1] - values[-2]), m


def octahedral_rotations():
    """The octahedral group's 24 rotations: the signed permutation matrices of det +1."""
    rotations = []
    for p in itertools.permutations(range(3)):
        for signs in itertools.product((1.0, -1.0), repeat=3):
            r = np.zeros((3, 3))
            r[range(3), p] = signs
            if np.linalg.det(r) > 0:
                rotations.append(r)
    return np.array(rotations)


def test_octahedral_witness_is_its_top_eigenvalue_and_its_span_holds_chi_2(monkeypatch):
    # SO(3) fails the test through its l = 2 character chi_2 = (tr R)^2 - tr R - 1,
    # a degree-2 polynomial in R's entries, so the span the search compresses
    # D onto holds it; on the octahedral group the search reaches the group's
    # top sum-zero eigenvalue, pi / 3
    x = octahedral_rotations()
    trace = np.trace(x, axis1=1, axis2=2)
    chi = trace ** 2 - trace - 1.0
    assert sorted(set(chi)) == [-1.0, 1.0, 5.0]
    chi -= chi.mean()
    span = kernel_lab._degree_two_span(x, np.triu_indices(9))
    assert np.linalg.norm(chi - span @ (span.T @ chi)) <= 1e-12
    monkeypatch.setattr(type(SO3), "sample", lambda self, rng, m: x.copy())
    cert = find_witness(SO3, m=24, trials=1, rng=RngStream(0, 0))
    assert abs(cert.value - math.pi / 3.0) <= 1e-13 * math.pi / 3.0


def test_find_witness_su2_fails():
    with pytest.raises(WitnessNotFoundError):
        find_witness(SU2, m=100, trials=10, rng=RngStream(51, 0))


def test_find_witness_validates_arguments():
    rng = RngStream(0, 0)
    with pytest.raises(ValueError):
        find_witness(SO3, m=3, trials=1, rng=rng)
    with pytest.raises(ValueError):
        find_witness(SO3, m=10, trials=0, rng=rng)
    with pytest.raises(ValueError):
        group_named("son")  # missing n
    with pytest.raises(ValueError):
        find_witness(group_named("son", 2), m=10, trials=1, rng=rng)  # no SO(3) inside
    with pytest.raises(ValueError):
        group_named("u2")


def test_find_witness_son_transfers_from_so3():
    cert5 = find_witness(group_named("son", 5), m=60, trials=10, rng=RngStream(52, 0))
    assert cert5.group.name == "son"
    assert cert5.group.n == 5
    assert cert5.method == "transfer"
    assert cert5.value > 1e-6
    assert cert5.verify(tol=1e-12)  # recomputed in SO(5), from the principal angles
    # same seed on SO(3) alone gives the same points and quadratic-form value
    cert3 = find_witness(SO3, m=60, trials=10, rng=RngStream(52, 0))
    assert cert5.value == cert3.value
    assert np.array_equal(cert5.points[:, :3, :3], cert3.points)


def test_transfer_preserves_value():
    cert = find_witness(SO3, m=80, trials=10, rng=RngStream(53, 0))
    for n in [4, 7]:
        moved = transfer_witness(cert, n)
        assert moved.group.n == n
        assert moved.points.shape == (80, n, n)
        assert moved.value == cert.value  # stated from the SO(3) distances
        assert moved.verify(tol=1e-12)


def test_transfer_embeds_without_computing_a_distance(monkeypatch):
    cert = find_witness(SO3, m=40, trials=10, rng=RngStream(54, 0))

    def refuse(self, x):
        raise AssertionError("distance matrix computed")

    with monkeypatch.context() as patch:
        patch.setattr(group_core._Group, "pairwise", refuse)
        moved = {n: transfer_witness(cert, n) for n in (4, 7)}
    for n, cert_n in moved.items():
        assert cert_n.value == cert.value
        assert np.array_equal(cert_n.weights, cert.weights)
        assert cert_n.verify(tol=1e-12)  # recomputed in SO(n)


def test_transfer_rejects_bad_targets():
    cert = find_witness(SO3, m=20, trials=10, rng=RngStream(55, 0))
    with pytest.raises(ValueError):
        transfer_witness(cert, 3)
    moved = transfer_witness(cert, 4)
    with pytest.raises(ValueError):
        transfer_witness(moved, 5)


def test_transfer_factorizes_no_son_pair(monkeypatch):
    cert = find_witness(SO3, m=30, trials=10, rng=RngStream(56, 0))

    def refuse(self, x, y, out):
        raise AssertionError("SO(n) distance kernel called")

    monkeypatch.setattr(kernel_lab.SOnGroup, "_angles", refuse)
    assert transfer_witness(cert, 6).value == cert.value


def test_audit_compares_by_value_and_certificate_by_identity():
    x = su2_points(57, 10)
    audit = gram_audit(SU2, x)
    assert audit == gram_audit(SU2, x)  # four floats
    cert = find_witness(SO3, m=20, trials=10, rng=RngStream(58, 0))
    # array fields: a field-wise __eq__ would raise
    assert cert != WitnessCertificate.from_json(cert.to_json())
    assert cert == cert
    assert len({audit, gram_audit(SU2, x), cert, cert}) == 2


def test_witness_success_rate_one_trial():
    # the defect is macroscopic: a single trial at m = 100 almost always wins
    found = 0
    for seed in range(20):
        try:
            find_witness(SO3, m=100, trials=1, rng=RngStream(seed, 3))
            found += 1
        except WitnessNotFoundError:
            pass
    assert found >= 19


# ---------------------------------------------------------------------------
# certificate serialization
# ---------------------------------------------------------------------------

def test_certificate_json_round_trip():
    cert = find_witness(SO3, m=20, trials=10, rng=RngStream(56, 0))
    text = cert.to_json()
    doc = json.loads(text)
    assert doc["kind"] == "witness"
    assert doc["group"] == "so3"
    assert doc["n"] == 3
    assert len(doc["points"]) == 20
    assert len(doc["points"][0]) == 9
    assert doc["seed"] == {"seed": 56, "stream": 0}
    back = WitnessCertificate.from_json(text)
    assert back.verify(tol=1e-10)
    assert back.value == cert.value
    assert np.array_equal(back.weights, cert.weights)
    assert np.array_equal(back.points, cert.points)


def test_certificate_json_is_stable():
    cert = find_witness(SO3, m=30, trials=10, rng=RngStream(57, 0))
    assert cert.to_json() == cert.to_json()
    keys = list(json.loads(cert.to_json()).keys())
    assert keys == [
        "schema_version", "kind", "group", "n", "m", "points", "weights",
        "value", "seed", "method", "tool_version",
    ]
    assert keys == WITNESS_SCHEMA["required"]


def test_fresh_certificate_states_the_package_version():
    cert = find_witness(SO3, m=15, trials=10, rng=RngStream(58, 0))
    assert cert.tool_version == levy_groups.__version__
    assert json.loads(cert.to_json())["tool_version"] == levy_groups.__version__


def test_tampered_certificate_fails_verification():
    cert = find_witness(SO3, m=15, trials=10, rng=RngStream(58, 0))
    doc = json.loads(cert.to_json())
    doc["value"] = doc["value"] + 0.5
    assert not WitnessCertificate.from_json(json.dumps(doc)).verify()
    doc = json.loads(cert.to_json())
    doc["weights"][0] += 0.25  # breaks the sum-zero constraint
    assert not WitnessCertificate.from_json(json.dumps(doc)).verify()


def _planted(m: int, seed: int) -> WitnessCertificate:
    """Weights (1, -1, 0, ...) on m Haar SO(3) points, stating their true
    form -2 d(g_1, g_2) < 0: consistent data that witness nothing."""
    weights = np.zeros(m)
    weights[:2] = (1.0, -1.0)
    cert = WitnessCertificate(group=SO3, points=SO3.sample(RngStream(seed, 0), m),
                              weights=weights, value=0.0, seed=seed, stream=0)
    return dataclasses.replace(cert, value=cert.quadratic_form())


def test_certificate_of_a_non_positive_form_fails_verification():
    cert = _planted(6, 3)
    assert cert.value < -1.0
    assert abs(cert.quadratic_form() - cert.value) <= 1e-10  # the stated value is right
    assert not cert.verify()


def test_certificate_of_fewer_than_four_points_is_refused_naming_m():
    cert = _planted(2, 3)
    assert not cert.verify()
    with pytest.raises(ValueError, match=re.escape("m must be >= 5, got 2")):
        WitnessCertificate.from_json(cert.to_json())


# Haar SO(n) sets refute K's positivity only above about 2 d points, with
# d = n(n + 1)/2 - 1 the dimension of Sym^2_0(R^n): measured at 300 seeds,
# 1 set in 300 refuted at m = d on SO(3) and none on SO(4) (at m = 10), and
# every set at 4 d.  Bounds from those rates and a binomial margin: at most
# 5 of 100 seeds refute at m = d, at least 95 at m = 4 d
@pytest.mark.parametrize("group, d", [(SO3, 5), (group_named("son", 4), 9)], ids=["so3", "so4"])
def test_haar_son_refutes_at_four_times_d_points_and_not_at_d(group, d):
    def refuted(m):
        hits = 0
        for seed in range(100):
            top, scale = bordered_top(group, group.sample(RngStream(seed, 7), m))
            hits += bool(top > 1e-8 * scale)
        return hits
    assert refuted(d) <= 5
    assert refuted(4 * d) >= 95


def test_four_points_witness_nothing_and_are_refused_naming_m():
    # every metric on 4 points has negative type (Deza & Laurent 1997): on
    # sets of 3 Haar SO(3) points and e the sum-zero top of their D' stays at
    # or below zero, so neither the search nor a certificate takes 4 points
    for seed in range(20):
        top, scale = bordered_top(SO3, so3_points(seed, 3))
        assert top <= 1e-12 * scale, seed
    with pytest.raises(ValueError, match=re.escape("m must be >= 5")):
        find_witness(SO3, m=4, trials=20, rng=RngStream(0, 0))
    with pytest.raises(ValueError, match=re.escape("m must be >= 5, got 4")):
        WitnessCertificate.from_json(_planted(4, 3).to_json())


def _set(key, value):
    def mutate(doc):
        doc[key] = value
    return mutate


def _set_in(key, index, value):
    def mutate(doc):
        doc[key][index] = value
    return mutate


# name -> (mutation of a valid certificate document, expected error text)
MALFORMED = {
    "missing-key": (lambda doc: doc.pop("n"), "missing n"),
    "unknown-group": (_set("group", "u7"), "group 'u7' does not match n = 3"),
    "son-with-n-3": (_set("group", "son"), "group 'son' does not match n = 3"),
    "so3-with-n-4": (_set("n", 4), "group 'so3' does not match n = 4"),
    "n-not-integer": (_set("n", "3"), "n and m must be integers"),
    "wrong-m": (_set("m", 14), "points must be m = 14 rows"),
    "weights-short": (lambda doc: doc["weights"].pop(), "weights must be m = 15 numbers"),
    "point-row-short": (lambda doc: doc["points"][3].pop(),
                        "points must be m = 15 rows of n^2 = 9"),
    "all-rows-short": (lambda doc: [row.pop() for row in doc["points"]],
                       "points must be m = 15 rows of n^2 = 9"),
    "nan-point": (lambda doc: doc["points"][1].__setitem__(4, math.nan),
                  "points has non-finite"),
    "inf-weight": (_set_in("weights", 2, math.inf), "weights has non-finite"),
    "nan-value": (_set("value", math.nan), "value has non-finite"),
    "list-value": (_set("value", [1.0]), "value must be a number"),
    "negative-scale": (_set("scale", -1.0), "unknown key scale"),
    "zero-scale": (_set("scale", 0.0), "unknown key scale"),
    "bad-seed": (_set("seed", 56), "seed must be"),
    "negative-seed": (lambda doc: doc["seed"].__setitem__("seed", -5), "each in [0, 2^64)"),
    "not-orthogonal": (lambda doc: doc["points"][0].__setitem__(0, 2.0),
                       "points: matrix is not orthogonal"),
    # negating the first row keeps the point orthogonal and makes det = -1
    "reflection": (lambda doc: doc["points"][2].__setitem__(
        slice(0, 3), [-v for v in doc["points"][2][:3]]), "points: det(g) = "),
    "string-value": (_set("value", "0.5"), "value must be a number"),
    "bool-value": (_set("value", True), "value must be a number"),
    "string-scale": (_set("scale", "1"), "unknown key scale"),
    "extra-key": (_set("extra", 1), "unknown key extra"),
    "string-weight": (lambda doc: doc["weights"].__setitem__(0, str(doc["weights"][0])),
                      "weights must be m = 15 numbers"),
    "string-point": (lambda doc: doc["points"][0].__setitem__(0, str(doc["points"][0][0])),
                     "points must be m = 15 rows of n^2 = 9"),
    "bogus-method": (_set("method", "bogus"), "method must be 'eigenvector' or 'transfer'"),
    "schema-version-9": (_set("schema_version", "9"), "schema_version must be '2'"),
    # a version-1 document states a metric scale; it is refused, never read at scale 1
    "schema-version-1": (lambda doc: doc.update(schema_version="1", scale=1.0),
                         "schema_version must be '2'"),
    "kind-coeffs": (_set("kind", "coeffs"), "kind must be 'witness'"),
    "integer-tool-version": (_set("tool_version", 1), "tool_version must be a string"),
}


@pytest.mark.parametrize("key", WITNESS_SCHEMA["required"])
def test_certificate_without_a_required_key_is_rejected_naming_it(key):
    doc = json.loads(find_witness(SO3, m=15, trials=10, rng=RngStream(58, 0)).to_json())
    doc["meta"] = {"tool_version": levy_groups.__version__, "command": "witness"}
    WitnessCertificate.from_json(json.dumps(doc))  # the CLI's meta block is no unknown key
    del doc[key]
    with pytest.raises(ValueError, match=re.escape(f"is missing {key}") + "$"):
        WitnessCertificate.from_json(json.dumps(doc))


@pytest.mark.parametrize("case", list(MALFORMED))
def test_malformed_certificate_is_rejected_naming_the_field(case):
    mutate, needle = MALFORMED[case]
    doc = json.loads(find_witness(SO3, m=15, trials=10, rng=RngStream(58, 0)).to_json())
    WitnessCertificate.from_json(json.dumps(doc))  # the unmutated document parses
    mutate(doc)
    with pytest.raises(ValueError, match=re.escape(needle)):
        WitnessCertificate.from_json(json.dumps(doc))
