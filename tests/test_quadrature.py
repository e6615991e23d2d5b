import math

import pytest

from levy_groups import SO3, SU2, harmonic, quadrature
from levy_groups.harmonic import alpha_quadrature
from levy_groups.quadrature import QuadratureError, simpson_adaptive
from oracles import simpson_recursive


def test_smooth_integrals():
    assert simpson_adaptive(math.sin, 0.0, math.pi, tol=1e-12) == pytest.approx(2.0, abs=1e-11)
    assert simpson_adaptive(lambda x: x ** 3, 0.0, 2.0, tol=1e-12) == pytest.approx(4.0, abs=1e-11)
    assert simpson_adaptive(lambda x: 1.0, -1.0, 3.0) == pytest.approx(4.0, abs=1e-12)


def test_empty_interval():
    assert simpson_adaptive(math.exp, 1.0, 1.0) == 0.0


def test_oscillatory_integrand_to_tight_tolerance():
    # int_0^pi sin(50 t) dt = (1 - cos(50 pi))/50 = 0
    val = simpson_adaptive(lambda t: math.sin(50.0 * t), 0.0, math.pi, tol=1e-11)
    assert abs(val) < 1e-10
    val = simpson_adaptive(lambda t: math.cos(37.0 * t) ** 2, 0.0, math.pi, tol=1e-11)
    assert val == pytest.approx(math.pi / 2.0, abs=1e-10)


def test_rejects_bad_tolerance():
    with pytest.raises(ValueError):
        simpson_adaptive(math.sin, 0.0, 1.0, tol=0.0)


def test_rejects_no_panels():
    for panels in (0, -1):
        with pytest.raises(ValueError, match="panels must be >= 1"):
            simpson_adaptive(math.sin, 0.0, 1.0, panels=panels)


def test_raises_when_subdivision_cap_hit():
    jump = 1.0 / 3.0

    def step(x):
        return 0.0 if x < jump else 1.0

    with pytest.raises(QuadratureError):
        simpson_adaptive(step, 0.0, 1.0, tol=1e-13)


# ---------------------------------------------------------------------------
# the level-order walk against the recursive rule
# ---------------------------------------------------------------------------

def _outcome(rule, f, a, b, tol, panels):
    """The rule's value, or the message of the QuadratureError it raises."""
    try:
        return rule(f, a, b, tol=tol, panels=panels)
    except QuadratureError as exc:
        return str(exc)


def _step(x):
    return 0.0 if x < 1.0 / 3.0 else 1.0


INTEGRANDS = [
    (math.sin, 0.0, math.pi, 1e-12),
    (lambda x: x ** 3, 0.0, 2.0, 1e-12),
    (lambda x: 1.0, -1.0, 3.0, 1e-10),
    (math.exp, 1.0, 1.0, 1e-10),
    (lambda t: math.sin(50.0 * t), 0.0, math.pi, 1e-11),
    (lambda t: math.cos(37.0 * t) ** 2, 0.0, math.pi, 1e-11),
    (lambda t: math.cos(t) ** 2 * (2.0 / math.pi) * math.sin(t) ** 2, 0.0, math.pi, 1e-10),
    (_step, 0.0, 1.0, 1e-13),
]


@pytest.mark.parametrize("panels", range(1, 8))
def test_walk_is_the_recursion_bit_for_bit(panels):
    for f, a, b, tol in INTEGRANDS:  # repr tells -0.0 from 0.0
        walked = repr(_outcome(simpson_adaptive, f, a, b, tol, panels))
        assert walked == repr(_outcome(simpson_recursive, f, a, b, tol, panels)), (f, panels)


@pytest.mark.parametrize("tol", [1e-10, 1e-13])
@pytest.mark.parametrize("group", [SU2, SO3], ids=["su2", "so3"])
def test_coefficient_integrals_are_the_recursion_bit_for_bit(group, tol, monkeypatch):
    walked = [alpha_quadrature(group, l, tol).hex() for l in range(51)]
    monkeypatch.setattr(harmonic, "simpson_adaptive", simpson_recursive)
    assert walked == [alpha_quadrature(group, l, tol).hex() for l in range(51)]


@pytest.mark.parametrize("group", [SU2, SO3], ids=["su2", "so3"])
def test_walk_fails_where_the_recursion_does(group, monkeypatch):
    # at l = 50 and 1e-15 a level holds tens of thousands of intervals, so
    # the walk takes it a block at a time
    def failure():
        with pytest.raises(QuadratureError) as exc:
            alpha_quadrature(group, 50, 1e-15)
        return str(exc.value)

    walked = failure()
    monkeypatch.setattr(harmonic, "simpson_adaptive", simpson_recursive)
    assert walked == failure()
    assert "at depth 20" in walked


def test_narrow_blocks_walk_the_same_tree(monkeypatch):
    # blocks of 2 intervals: every level wider than that is walked a block
    # at a time, each to the bottom before the next
    def f(t):
        return math.sin(9.0 * t) * t

    wide = [simpson_adaptive(f, 0.0, math.pi, tol=1e-12, panels=p) for p in (1, 5)]
    monkeypatch.setattr(quadrature, "FRONTIER", 2)
    assert [simpson_adaptive(f, 0.0, math.pi, tol=1e-12, panels=p) for p in (1, 5)] == wide
    msg = str(pytest.raises(QuadratureError, simpson_adaptive, _step, 0.0, 1.0, tol=1e-13).value)
    assert msg == _outcome(simpson_recursive, _step, 0.0, 1.0, 1e-13, 1)


def test_integrand_is_called_on_floats_once_per_point():
    seen = []

    def f(x):
        seen.append(x)
        return math.sin(x)

    simpson_adaptive(f, 0.0, math.pi, tol=1e-12, panels=4)
    assert all(type(x) is float for x in seen)
    assert len(seen) == len(set(seen))  # panel edges too: once each
