import ast
import inspect
import weakref

import numpy as np
import pytest

from levy_groups import SO3, SU2, RngStream, kernel_lab, lapack
from oracles import audit_matrix, packed_from, reduced_ends, rfp_places, unpacked

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

    def dpotrf(*args):
        calls.append("dpotrf")
        args[4]._obj.value = -4

    def returning(name, info):
        return lambda *args: calls.append(name) or info

    monkeypatch.setattr(lapack, "_library", lambda: {
        "scipy_dsytrd_2stage_64_": dsytrd,
        "scipy_LAPACKE_dstebz64_": returning("dstebz", 2),
        "scipy_dpotrf_64_": dpotrf,
    })
    a = np.eye(4)
    a[1, 2] = np.nan
    with pytest.raises(ValueError, match="non-finite entry"):
        lapack.cholesky(a)
    for bad in (np.eye(3, 4), np.eye(4)[:, ::-1], np.eye(3, dtype=np.float32)):
        with pytest.raises(ValueError, match=r"C-contiguous float64 \(m, m\) matrix"):
            lapack.cholesky(bad)
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
        reduced_ends(np.eye(4))
    with pytest.raises(np.linalg.LinAlgError, match="bisection failed: dstebz info 2"):
        lapack._eigenvalue(np.ones(2), np.zeros(1), 1)
    with pytest.raises(np.linalg.LinAlgError, match="factorization failed: dpotrf info -4"):
        lapack.cholesky(np.eye(4))
    assert calls == ["dsytrd_2stage", "dstebz", "dpotrf"]


@pytest.mark.parametrize("path", ["lapack", "numpy"])
def test_operations_reject_bad_input_on_either_backend(path, monkeypatch):
    if path == "numpy":
        monkeypatch.setattr(lapack, "available", lambda: False)
    a = np.eye(4)
    a[3, 2] = np.inf
    with pytest.raises(ValueError, match="non-finite entry"):
        lapack.cholesky(a)
    with pytest.raises(ValueError, match=r"C-contiguous float64 \(m, m\) matrix"):
        lapack.cholesky(np.eye(4)[:, ::-1])


def planted(values):
    """Q diag(values) Q^T for a Haar orthogonal Q, bitwise symmetric."""
    m = len(values)
    q, _ = np.linalg.qr(RngStream(62, m).generator.standard_normal((m, m)))
    a = (q * (0.5 * values)) @ q.T
    return a + a.T


def factored(a, full=None):
    """lapack.factored_extremes of the symmetric (m, m) a, its block packed
    from a's lower triangle (oracles.packed_from) and ``full`` giving the
    whole, by default a itself; and the RFP array pack filled, which then
    holds the factor, or None where pack was not called."""
    seen, pack = [], packed_from(a)

    def spy(r):
        seen.append(r)
        return pack(r)

    got = lapack.factored_extremes(len(a), spy, full or (lambda: a))
    return got, (seen[0] if seen else None)


def whole_never_built():
    raise AssertionError("factored_extremes asked for the whole matrix")


def reads_as_the_reduction(a):
    """factored_extremes gives the reduction's bottoms within 1e-14 of the scale
    and no tops, never asks for the whole matrix, and leaves in its RFP
    array the factor of the block B = a[1:, 1:], which reproduces B within
    4 m eps of its scale."""
    want = reduced_ends(a.copy())
    (got, method), r = factored(a, whole_never_built)
    assert method == "cholesky"
    assert got[1] is None and got[3] is None
    bottoms = np.subtract(got[::2], want[::2])
    assert np.abs(bottoms).max() <= 1e-14 * max(np.abs(want).max(), 1.0)
    block, factor = a[1:, 1:], unpacked(r, len(a) - 1)
    eps = np.finfo(float).eps
    assert np.abs(factor @ factor.T - block).max() <= 4 * len(block) * eps * np.abs(block).max()


@needs_lapack
@pytest.mark.parametrize("m", [2, 3, 7, 50, 129, 400, 1000])
def test_factored_extremes_are_the_reductions_on_su2(m):
    reads_as_the_reduction(audit_matrix(SU2, SU2.sample(RngStream(63, m), m)))


@needs_lapack
@pytest.mark.parametrize("bottom", ["cluster", "double"])
@pytest.mark.parametrize("m", [40, 200])
def test_factored_extremes_are_the_reductions_on_planted_spectra(bottom, m):
    # six bottom eigenvalues within 1e-6 relative of each other, or an exact
    # double one; the rest spread over [10, 100]
    values = np.linspace(10.0, 100.0, m)
    if bottom == "cluster":
        values[:6] = 1.0 + 2e-7 * np.arange(6)
    else:
        values[:2] = 1.0
    reads_as_the_reduction(planted(values))


def spy_on_problems(monkeypatch):
    """Record each Lanczos problem of lapack as [apply, start, steps taken,
    result], the start as passed."""
    problems, lanczos = [], lapack._lanczos

    def problem(apply, start, steps):
        seen = [apply, start.copy(), 0, None]
        problems.append(seen)

        def step(x):
            seen[2] += 1
            apply(x)
        seen[3] = lanczos(step, start, steps)
        return seen[3]

    monkeypatch.setattr(lapack, "_lanczos", problem)
    return problems


@needs_lapack
def test_factored_extremes_spend_two_solves_a_bottom_step_and_no_dsymv(monkeypatch):
    # the packed factor's panels and the border's one solve, then the two
    # bottom Lanczos problems, each step a solve with L and one with L^T on
    # the factor's RFP pieces; no product with the matrix or the factor anywhere
    calls = []
    library = lapack._library()
    for name, routine in list(library.items()):
        monkeypatch.setitem(library, name, lambda *args, name=name, routine=routine:
                            calls.append(name[len("scipy_"):-len("_64_")]) or routine(*args))
    lanczos = lapack._lanczos

    def problem(apply, start, steps):
        calls.append("problem")

        def step(x):
            calls.append("step")
            apply(x)
        return lanczos(step, start, steps)

    monkeypatch.setattr(lapack, "_lanczos", problem)
    a = audit_matrix(SU2, SU2.sample(RngStream(66, 300), 300))
    assert factored(a, whole_never_built)[0][1] == "cholesky"
    setup, *problems = " ".join(calls).split("problem")
    solve = ["dtrsv", "dgemv", "dtrsv"]
    # n = 299: five panels down B11 over B21 (150 columns), the last with no
    # trailing columns, then five of _factor on B22 (order 149)
    walk = ["dpotrf", "dtrsm", "dsyrk", "dgemm", "dsyrk"] * 4 + ["dpotrf", "dtrsm", "dsyrk"]
    upper = ["dpotrf", "dtrsm", "dsyrk"] * 4 + ["dpotrf"]
    assert setup.split() == walk + upper + solve
    kinds = []
    for steps in problems:
        before, *each = steps.split("step")
        assert before.split() == [] and len(each) >= 2
        assert len({s.strip() for s in each}) == 1  # every step of a problem alike
        kinds.append(each[0].split())
    assert kinds == [solve * 2] * 2
    assert "dsymv" not in calls and "dtrmv" not in calls


@needs_lapack
@pytest.mark.parametrize("m", [2, 3, 4, 5, 40, 41])
def test_solves_pass_blas_only_pointers_inside_their_arrays(m, monkeypatch):
    # at m = 2 the factor has no L21 or L22 and at m = 3 each piece is one
    # float: every matrix and vector BLAS reads lies inside the RFP array
    # or the solve's vector
    spans, library, solve = {}, lapack._library(), lapack._solve

    def inside(name, pointer, floats):
        start, stop = spans[name]
        assert start <= pointer and pointer + 8 * floats <= stop, name

    def dtrsv(*args):  # UPLO, TRANS, DIAG, N, A, LDA, X, INCX
        n, lda = args[3]._obj.value, args[5]._obj.value
        assert n >= 1
        inside("r", args[4], (n - 1) * (lda + 1) + 1)
        inside("x", args[6], n)
        return trsv(*args)

    def dgemv(*args):  # TRANS, M, N, ALPHA, A, LDA, X, INCX, BETA, Y, INCY
        rows, cols, lda = args[1]._obj.value, args[2]._obj.value, args[5]._obj.value
        assert rows >= 1 and cols >= 1
        inside("r", args[4], (rows - 1) + (cols - 1) * lda + 1)
        read, written = (rows, cols) if args[0] == b"T" else (cols, rows)
        inside("x", args[6], read)
        inside("x", args[9], written)
        return gemv(*args)

    def spied_solve(r, x, transpose):
        spans["r"] = (r.ctypes.data, r.ctypes.data + r.nbytes)
        spans["x"] = (x.ctypes.data, x.ctypes.data + x.nbytes)
        solve(r, x, transpose)

    trsv, gemv = library["scipy_dtrsv_64_"], library["scipy_dgemv_64_"]
    monkeypatch.setitem(library, "scipy_dtrsv_64_", dtrsv)
    monkeypatch.setitem(library, "scipy_dgemv_64_", dgemv)
    monkeypatch.setattr(lapack, "_solve", spied_solve)
    a = audit_matrix(SU2, SU2.sample(RngStream(69, m), m))
    want = reduced_ends(a.copy())
    (got, method), _ = factored(a, whole_never_built)
    assert method == "cholesky"
    assert np.abs(np.subtract(got[::2], want[::2])).max() <= 1e-14 * max(np.abs(want).max(), 1.0)


@needs_lapack
@pytest.mark.parametrize("seed", range(1, 6))
def test_second_bottom_starts_from_the_first_ritz_vector_and_takes_fewer_steps(seed,
                                                                              monkeypatch):
    # L L^T's bottom eigenvector is nearly the tail of M M^T's; from the
    # fixed start's tail the same problem takes more steps to the same value
    m = 400
    problems = spy_on_problems(monkeypatch)
    a = audit_matrix(SU2, SU2.sample(RngStream(seed, 0), m))
    ((k_min, _, c_min, _), method), _ = factored(a)
    assert method == "cholesky"
    whole, block = problems
    fixed = RngStream(0, 0).generator.standard_normal(m)
    assert np.array_equal(whole[1], fixed)
    assert np.array_equal(block[1], whole[3][1][1:])
    assert abs(np.linalg.norm(whole[3][1]) - 1.0) <= 1e-14
    assert (k_min, c_min) == (1.0 / whole[3][0], 1.0 / block[3][0])
    cold = spy_on_problems(monkeypatch)
    value, _ = lapack._lanczos(block[0], fixed[1:], lapack.KRYLOV_BYTES // 8)
    assert block[2] < cold[0][2]
    assert abs(value - block[3][0]) <= 1e-13 * value


@needs_lapack
@pytest.mark.parametrize("tail", ["zero", "nan"])
def test_second_bottom_starts_from_the_fixed_tail_where_the_ritz_tail_is_unusable(tail,
                                                                                 monkeypatch):
    # a Ritz vector of M M^T that is e1, or not finite, gives L L^T no start
    m = 50
    problems, lanczos = [], lapack._lanczos

    def problem(apply, start, steps):
        problems.append(start.copy())
        value, vector = lanczos(apply, start, steps)
        if len(problems) == 1:
            vector = np.zeros(m) if tail == "zero" else np.full(m, np.nan)
            vector[0] = 1.0
        return value, vector

    monkeypatch.setattr(lapack, "_lanczos", problem)
    a = audit_matrix(SU2, SU2.sample(RngStream(67, 0), m))
    want = reduced_ends(a.copy())
    (got, method), _ = factored(a)
    assert method == "cholesky"
    fixed = RngStream(0, 0).generator.standard_normal(m)
    assert len(problems) == 2 and np.array_equal(problems[1], fixed[1:])
    assert abs(got[2] - want[2]) <= 1e-14 * max(np.abs(want).max(), 1.0)


def so3_item_1_set():
    """check --group so3 --points 10 at seed 5: a[1:, 1:] is positive
    definite, a is not, so the border's delta^2 <= 0."""
    a = audit_matrix(SO3, SO3.sample(RngStream(5, 0), 10))
    assert np.linalg.eigvalsh(a[1:, 1:])[0] > 0.0 > np.linalg.eigvalsh(a)[0]
    return a


@needs_lapack
@pytest.mark.parametrize("case", ["indefinite", "so3 seed 5", "identical points"])
def test_factored_extremes_reduce_a_restored_matrix_where_the_factor_fails(case, monkeypatch):
    # the reduction sees the whole matrix as its caller builds it, bit for
    # bit, asked for only once the RFP array the factor spoiled is freed
    if case == "indefinite":
        a = symmetric(64, 30)
    elif case == "so3 seed 5":
        a = so3_item_1_set()
    else:  # K = d(g, e) 1 1^T, of rank one
        a = audit_matrix(SU2, np.stack([SU2.sample(RngStream(64, 0), 1)[0]] * 5))
    seen, packed, pack = [], [], packed_from(a)
    monkeypatch.setattr(lapack, "_reduce", lambda b, m: seen.append((b, b.copy(), m)) or (1.0,) * 4)

    def spy(r):
        packed.append(weakref.ref(r))
        return pack(r)

    def full():
        assert len(packed) == 1 and packed[0]() is None
        return buf

    buf = a.copy()
    assert lapack.factored_extremes(len(a), spy, full) == ((1.0,) * 4, "reduction")
    [(b, copy, m)] = seen
    assert b is buf and m == len(a)
    assert np.array_equal(copy.view(np.uint64), a.view(np.uint64))


@needs_lapack
def test_factored_extremes_where_the_factor_fails_are_the_reductions_bit_for_bit(monkeypatch):
    # and the entry scans nothing: its caller has checked the matrix
    a = so3_item_1_set()
    want = reduced_ends(a.copy())

    def scan(*args):
        raise AssertionError("factored_extremes checks the matrix")

    monkeypatch.setattr(lapack, "_square", scan)
    assert factored(a)[0] == (want, "reduction")


def test_factored_extremes_without_the_library_are_eigvalshs(monkeypatch):
    monkeypatch.setattr(lapack, "available", lambda: False)
    a = audit_matrix(SU2, SU2.sample(RngStream(65, 0), 20))
    before = a.copy()
    # numpy's own spectra, from the upper triangle the reduction would read
    whole, part = (np.linalg.eigvalsh(b, UPLO="U") for b in (before, before[1:, 1:]))
    want = (whole[0], whole[-1], part[0], part[-1])
    assert factored(a) == ((want, "reduction"), None)  # nothing packed
    assert np.array_equal(a, before)


def factors_the_block_as_numpy_does(m, bits):
    """Both backends read the block's lower triangle only, zero its strict
    upper triangle and leave the first row and column as they were; the
    factor is np.linalg.cholesky's bit for bit, or with ``bits`` false
    reproduces the block within 4 m eps of its scale."""
    g = RngStream(61, m).generator.standard_normal((m, m))
    block = g @ g.T + m * np.eye(m)
    lower = np.tril(np.ones((m, m), dtype=bool))
    a = bordered(np.where(lower, block, SENTINEL), SENTINEL)
    assert lapack.cholesky(a) == 0
    factor = a[1:, 1:]
    assert np.array_equal(factor, np.tril(factor))
    if bits:
        assert np.array_equal(factor, np.linalg.cholesky(block))
    eps = np.finfo(float).eps
    assert np.abs(factor @ factor.T - block).max() <= 4 * m * eps * np.abs(block).max()
    untouched = np.ones(a.shape, dtype=bool)
    untouched[1:, 1:] = False
    assert (a[untouched].view(np.uint64) == SENTINEL.view(np.uint64)).all()


@needs_lapack
@pytest.mark.parametrize("m", [1, 2, 5, 130, 300])
def test_potrf_factors_the_block_to_rounding_from_the_lower_triangle(m):
    # _factor's panels agree with numpy's factor to rounding, not in its bits
    factors_the_block_as_numpy_does(m, bits=False)


@pytest.mark.parametrize("m", [1, 2, 5, 130])
def test_cholesky_without_the_library_is_numpys_from_the_lower_triangle(m, monkeypatch):
    monkeypatch.setattr(lapack, "available", lambda: False)
    factors_the_block_as_numpy_does(m, bits=True)


def packed(block):
    """The RFP array of the symmetric block, from its lower triangle."""
    return block[rfp_places(len(block))]


@needs_lapack
@pytest.mark.parametrize("n", [1, 2, 3, 31, 32, 33, 63, 64, 65, 66, 200, 201])
def test_packed_factor_is_numpys_to_rounding(n):
    # both parities, and the edges of the panels and of the halves: the factor
    # left in the RFP array, read as a lower triangle, is np.linalg.cholesky's
    # within n eps of its scale
    g = RngStream(71, n).generator.standard_normal((n, n))
    block = g @ g.T + n * np.eye(n)
    r = packed(block)
    assert lapack._factor_packed(r) == 0
    want = np.linalg.cholesky(block)
    assert np.abs(unpacked(r, n) - want).max() <= n * np.finfo(float).eps * np.abs(want).max()


@needs_lapack
@pytest.mark.parametrize("m, seed", [(20, 0), (20, 1), (20, 2), (50, 0), (100, 1), (300, 2)])
def test_packed_factor_returns_the_failed_minor_on_so3(m, seed):
    # H K H's block on SO(3) points: the order of its first leading minor that
    # is not positive definite, in B11 at m = 50 to 300, in B22 at m = 20
    block = audit_matrix(SO3, SO3.sample(RngStream(seed, m), m))[1:, 1:]
    pivot = lapack._factor_packed(packed(block))
    assert pivot == lapack._first_failed_minor(block.copy()) > 0
    assert (pivot > m // 2) == (m == 20)  # B11's order is ceil((m - 1) / 2)


# the last four at m = 100: at the edges of _factor's panels and past the first
FAILED_PIVOTS = [([1.0, 4.0, -1.0, 1.0], 3), ([-1.0, 1.0], 1), ([1.0] * 6 + [0.0], 7)] + [
    ([1.0] * (p - 1) + [-1.0] * (101 - p), p) for p in (32, 33, 64, 97)]


@needs_lapack
def test_potrf_returns_the_failed_pivot():
    for diagonal, pivot in FAILED_PIVOTS:
        a = bordered(np.diag(diagonal), 0.0)
        assert lapack.cholesky(a) == pivot
        # the columns before the pivot are factored
        assert np.array_equal(a.diagonal()[1:pivot], np.sqrt(diagonal[:pivot - 1]))
        # and the packed factor stops at the same pivot, in B11 or in B22
        assert lapack._factor_packed(packed(np.diag(diagonal))) == pivot


@pytest.mark.parametrize("diagonal, pivot", FAILED_PIVOTS)
def test_cholesky_without_the_library_returns_the_failed_pivot(diagonal, pivot, monkeypatch):
    # the first leading minor that is not positive definite, by bisection
    monkeypatch.setattr(lapack, "available", lambda: False)
    assert lapack.cholesky(bordered(np.diag(diagonal), 0.0)) == pivot


@pytest.mark.parametrize("library", [True, False], ids=["library", "numpy"])
def test_failed_cholesky_leaves_the_upper_triangle_and_the_border_as_given(library, monkeypatch):
    # build_field's jitter ladder restores K's block from these parts: on
    # SO(3)'s K at 1,500 points the factor fails at pivot 12, after writing
    # into the lower triangle, and they stay bit for bit
    if library and not lapack.available():
        pytest.skip("numpy bundles no LAPACK")
    if not library:
        monkeypatch.setattr(lapack, "available", lambda: False)
    x = SO3.sample(RngStream(1, 0), 1500)
    k = kernel_lab.brownian_kernel(SO3, np.concatenate(([SO3.identity], x)))
    given = k.copy()
    assert lapack.cholesky(k) == 12
    kept = np.triu(np.ones(k.shape, dtype=bool), 1)
    kept[:, 0] = True
    assert np.array_equal(k[kept].view(np.uint64), given[kept].view(np.uint64))
    assert not library or not np.array_equal(k, given)


def symbols_never_called(source: str, table: dict) -> list[str]:
    """Keys of ``table`` that no ``_library()[name]`` of ``source`` reaches."""
    called = {node.slice.value for node in ast.walk(ast.parse(source))
              if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Call)
              and getattr(node.value.func, "id", None) == "_library"
              and isinstance(node.slice, ast.Constant)}
    return sorted(set(table) - called)


def test_every_declared_symbol_is_called():
    # _library() requires every symbol of the table, so a dead entry would
    # send a library that lacks it to the fallback
    assert symbols_never_called(inspect.getsource(lapack), lapack._SYMBOLS) == []
    source = 'def f():\n    return _library()["used"](1) + other()["dead"]\n'
    assert symbols_never_called(source, {"used": 0, "dead": 0}) == ["dead"]


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
