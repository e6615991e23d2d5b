import math

import pytest

from levy_groups import canonical
from levy_groups.field_sim import VariogramRow
from levy_groups.harmonic import CoefficientRow


def test_variogram_rows_exact_text():
    rows = [VariogramRow(0, 1, 0.1, 1.0 / 3.0, 2e-5), VariogramRow(0, 12, math.pi, -0.0, 5e-324)]
    assert canonical.dumps({"rows": rows}) == """{
  "rows": [
    {
      "pair_i": 0,
      "pair_j": 1,
      "distance": 0.10000000000000001,
      "estimate": 0.33333333333333331,
      "stderr": 2.0000000000000002e-05
    },
    {
      "pair_i": 0,
      "pair_j": 12,
      "distance": 3.1415926535897931,
      "estimate": -0,
      "stderr": 4.9406564584124654e-324
    }
  ]
}
"""


def test_coefficient_rows_with_monte_carlo_off_exact_text():
    rows = (CoefficientRow(0, 1, 1.5, 1.5, None, None),
            CoefficientRow(2, 5, 2.0 / (9.0 * math.pi), 0.25, None, None))
    assert canonical.dumps([rows]) == """[
  [
    {
      "l": 0,
      "dim": 1,
      "closed": 1.5,
      "quadrature": 1.5,
      "monte_carlo": null,
      "stderr": null
    },
    {
      "l": 2,
      "dim": 5,
      "closed": 0.070735530263064603,
      "quadrature": 0.25,
      "monte_carlo": null,
      "stderr": null
    }
  ]
]
"""


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_cell_in_a_row_raises(bad):
    rows = [VariogramRow(0, 1, 0.5, 0.5, 0.01), VariogramRow(0, 2, 0.5, bad, 0.01)]
    with pytest.raises(ValueError, match="non-finite"):
        canonical.dumps({"rows": rows})
    with pytest.raises(ValueError, match="non-finite"):
        canonical.dumps({"weights": [0.5, bad, 0.25]})


def walked(obj, monkeypatch):
    """dumps with every list written item by item."""
    with monkeypatch.context() as m:
        m.setattr(canonical, "_rows_template", lambda rows, level: None)
        return canonical.dumps(obj)


def test_float_lists_are_the_walks_bytes(monkeypatch):
    rows = [[0.1, -0.0, 5e-324, 1.0 / 3.0, -1e300], [math.pi], [2.0 ** 0.5, 1e-17]]
    doc = {"points": rows, "weights": rows[0], "deep": [[rows]], "one": [0.5]}
    assert canonical.dumps(doc) == walked(doc, monkeypatch)
    assert canonical.dumps([1.5, 2.25]) == "[\n  1.5,\n  2.25\n]\n"


@pytest.mark.parametrize("mixed", [[1.5, 2], [1.5, True], [1.5, None], [2, 1.5], [1.5, "x"]])
def test_mixed_lists_are_walked(mixed, monkeypatch):
    assert canonical.dumps({"v": [mixed]}) == walked({"v": [mixed]}, monkeypatch)


def test_variogram_row_lists_are_the_walks_bytes(monkeypatch):
    # pair indices past 256, a negative zero and a subnormal, in one % pass
    rows = [VariogramRow(i, 300 + 7 * i, i / 7.0, -0.0 if i % 5 else 1e300, 5e-324 * (i + 1))
            for i in range(1500)]
    doc = {"rows": rows, "one": rows[:1]}
    assert canonical.dumps(doc) == walked(doc, monkeypatch)


def test_coefficient_rows_with_monte_carlo_are_the_walks_bytes(monkeypatch):
    rows = [CoefficientRow(l, 2 * l + 1, 1.0 / (l + 1), -0.0, math.pi * l, 2.5e-310)
            for l in range(60)]
    assert canonical.dumps([rows]) == walked([rows], monkeypatch)
