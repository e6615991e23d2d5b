import numpy as np
import pytest

from levy_groups import RngStream, lapack

needs_lapack = pytest.mark.skipif(not lapack.available(), reason="numpy bundles no LAPACK")

SENTINEL = np.array(0x7FE0DEADBEEF0001, dtype=np.uint64).view(np.float64)  # huge, finite


def symmetric(seed, m):
    a = RngStream(seed, m).generator.standard_normal((m, m))
    return a + a.T


def bordered(block, fill):
    """An (m + 1, m + 1) matrix with ``block`` at [1:, 1:] and ``fill`` in
    its first row and column."""
    a = np.full((len(block) + 1,) * 2, fill)
    a[1:, 1:] = block
    return a


@needs_lapack
def test_lapack_errors_name_their_routine():
    a, d, e = np.eye(4), np.ones(4), np.ones(4)
    with pytest.raises(np.linalg.LinAlgError, match="dsytrd_2stage info -10"):  # LHOUS2 too small
        lapack._dsytrd_2stage(4, a, d, e, np.ones(4), np.ones(1), np.ones(1))
    with pytest.raises(np.linalg.LinAlgError, match="dstebz info -6"):  # no 5th eigenvalue
        lapack._eigenvalue(d, e[:3], 5)


def test_lapack_wrappers_reject_bad_input_before_lapack_and_raise_on_info(monkeypatch):
    calls = []

    def dsytrd(*args):
        calls.append("dsytrd_2stage")
        args[12]._obj.value = 3  # INFO, by reference

    def returning(name, info):
        return lambda *args: calls.append(name) or info

    monkeypatch.setattr(lapack, "_library", lambda: {
        "scipy_dsytrd_2stage_64_": dsytrd,
        "scipy_LAPACKE_dstebz64_": returning("dstebz", 2),
        "scipy_LAPACKE_dsyevr64_": returning("dsyevr", 3),
        "scipy_LAPACKE_dpotrf64_": returning("dpotrf", -4),
    })
    square = (lapack.extremes, lapack.top_pair, lapack.cholesky)
    a = np.eye(4)
    a[1, 2] = np.nan
    for wrapper in square:
        with pytest.raises(ValueError, match="non-finite entry"):
            wrapper(a)
        for bad in (np.eye(3, 4), np.eye(4)[:, ::-1], np.eye(3, dtype=np.float32)):
            with pytest.raises(ValueError, match=r"C-contiguous float64 \(m, m\) matrix"):
                wrapper(bad)
    for wrapper in (lapack.extremes, lapack.top_pair):  # the block a[1:, 1:] is empty
        with pytest.raises(ValueError, match="m >= 2"):
            wrapper(np.eye(1))
    with pytest.raises(ValueError, match="non-finite entry"):
        lapack._eigenvalue(np.array([1.0, np.nan]), np.zeros(1), 1)
    with pytest.raises(ValueError, match="non-finite entry"):
        lapack._eigenvalue(np.ones(2), np.array([np.inf]), 1)
    for d, e in ((np.ones(3), np.ones(3)), (np.ones(3), np.ones(1)), (np.ones(0), np.ones(0)),
                 (np.ones((2, 2)), np.ones(1))):
        with pytest.raises(ValueError, match="off-diagonal entries"):
            lapack._eigenvalue(d, e, 1)
    assert calls == []
    with pytest.raises(np.linalg.LinAlgError, match="reduction failed: dsytrd_2stage info 3"):
        lapack.extremes(np.eye(4))
    with pytest.raises(np.linalg.LinAlgError, match="bisection failed: dstebz info 2"):
        lapack._eigenvalue(np.ones(2), np.zeros(1), 1)
    with pytest.raises(np.linalg.LinAlgError, match="eigenpair failed: dsyevr info 3"):
        lapack.top_pair(np.eye(4))
    with pytest.raises(np.linalg.LinAlgError, match="factorization failed: dpotrf info -4"):
        lapack.cholesky(np.eye(4))
    assert calls == ["dsytrd_2stage", "dstebz", "dsyevr", "dpotrf"]


@pytest.mark.parametrize("path", ["lapack", "numpy"])
def test_operations_reject_bad_input_on_either_backend(path, monkeypatch):
    if path == "numpy":
        monkeypatch.setattr(lapack, "available", lambda: False)
    a = np.eye(4)
    a[3, 2] = np.inf
    for wrapper in (lapack.extremes, lapack.top_pair, lapack.cholesky):
        with pytest.raises(ValueError, match="non-finite entry"):
            wrapper(a)
        with pytest.raises(ValueError, match=r"C-contiguous float64 \(m, m\) matrix"):
            wrapper(np.eye(4)[:, ::-1])


@needs_lapack
@pytest.mark.parametrize("m", [1, 2, 5, 130])
def test_syevr_top_is_the_top_eigenpair_of_the_block_from_its_upper_triangle(m):
    # dsyevr reads the block's upper triangle only and writes nothing outside it
    block = symmetric(60, m)
    upper = np.triu(np.ones((m, m), dtype=bool))
    a = bordered(np.where(upper, block, SENTINEL), SENTINEL)
    value, vector = lapack.top_pair(a)
    eigs, vecs = np.linalg.eigh(block)
    scale = max(1.0, np.abs(eigs).max())
    assert abs(value - eigs[-1]) <= 1e-14 * scale
    assert abs(np.linalg.norm(vector) - 1.0) <= 1e-14
    assert np.abs(block @ vector - value * vector).max() <= 1e-13 * scale
    assert abs(abs(vector @ vecs[:, -1]) - 1.0) <= 1e-12
    untouched = np.ones(a.shape, dtype=bool)
    untouched[1:, 1:] = ~upper
    assert (a[untouched].view(np.uint64) == SENTINEL.view(np.uint64)).all()


def factors_the_block_as_numpy_does(m):
    """Both backends read the block's lower triangle only, zero its strict
    upper triangle and leave the first row and column as they were."""
    g = RngStream(61, m).generator.standard_normal((m, m))
    block = g @ g.T + m * np.eye(m)
    lower = np.tril(np.ones((m, m), dtype=bool))
    a = bordered(np.where(lower, block, SENTINEL), SENTINEL)
    assert lapack.cholesky(a) == 0
    assert np.array_equal(a[1:, 1:], np.linalg.cholesky(block))
    untouched = np.ones(a.shape, dtype=bool)
    untouched[1:, 1:] = False
    assert (a[untouched].view(np.uint64) == SENTINEL.view(np.uint64)).all()


@needs_lapack
@pytest.mark.parametrize("m", [1, 2, 5, 130, 300])
def test_potrf_is_numpys_cholesky_bit_for_bit_from_the_lower_triangle(m):
    factors_the_block_as_numpy_does(m)


@pytest.mark.parametrize("m", [1, 2, 5, 130])
def test_cholesky_without_the_library_is_numpys_from_the_lower_triangle(m, monkeypatch):
    monkeypatch.setattr(lapack, "available", lambda: False)
    factors_the_block_as_numpy_does(m)


FAILED_PIVOTS = [([1.0, 4.0, -1.0, 1.0], 3), ([-1.0, 1.0], 1), ([1.0] * 6 + [0.0], 7)]


@needs_lapack
def test_potrf_returns_the_failed_pivot():
    for diagonal, pivot in FAILED_PIVOTS:
        a = bordered(np.diag(diagonal), 0.0)
        assert lapack.cholesky(a) == pivot
        # the columns before the pivot are factored
        assert np.array_equal(a.diagonal()[1:pivot], np.sqrt(diagonal[:pivot - 1]))


@pytest.mark.parametrize("diagonal, pivot", FAILED_PIVOTS)
def test_cholesky_without_the_library_returns_the_failed_pivot(diagonal, pivot, monkeypatch):
    # the first leading minor that is not positive definite, by bisection
    monkeypatch.setattr(lapack, "available", lambda: False)
    assert lapack.cholesky(bordered(np.diag(diagonal), 0.0)) == pivot


@needs_lapack
def test_thread_count_is_set_and_restored():
    before = lapack.set_threads(1)
    try:
        assert before >= 1
        assert lapack.threads() == 1
        assert lapack.core_name()
    finally:
        lapack.set_threads(before)
    assert lapack.threads() == before


def test_without_the_library_nothing_is_pinned(monkeypatch):
    monkeypatch.setattr(lapack, "_library", lambda: None)
    assert not lapack.available()
    assert lapack.set_threads(1) is None
    assert lapack.threads() is None and lapack.core_name() is None
