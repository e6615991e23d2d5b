import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from levy_groups import canonical
from levy_groups.field_sim import VariogramRow
from levy_groups.harmonic import CoefficientRow

SRC = str(Path(canonical.__file__).resolve().parents[1])


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
    # the None columns are object arrays: the rows are walked one at a time
    rows = canonical.Table(CoefficientRow, [0, 2], [1, 5], [1.5, 2.0 / (9.0 * math.pi)],
                           [1.5, 0.25], [None, None], [None, None])
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
    # a list is walked item by item; a 1-D float array, from its template,
    # gives the same text
    rows = [[0.1, -0.0, 5e-324, 1.0 / 3.0, -1e300], [math.pi], [2.0 ** 0.5, 1e-17]]
    doc = {"points": rows, "weights": rows[0], "deep": [[rows]], "one": [0.5]}
    arrays = {"points": list(map(np.array, rows)), "weights": np.array(rows[0]),
              "deep": [[list(map(np.array, rows))]], "one": np.array([0.5])}
    assert canonical.dumps(arrays) == canonical.dumps(doc) == walked(arrays, monkeypatch)
    assert canonical.dumps(np.array([1.5, 2.25])) == "[\n  1.5,\n  2.25\n]\n"


@pytest.mark.parametrize("mixed", [[1.5, 2], [1.5, True], [1.5, None], [2, 1.5], [1.5, "x"]])
def test_mixed_lists_are_walked(mixed, monkeypatch):
    assert canonical.dumps({"v": [mixed]}) == walked({"v": [mixed]}, monkeypatch)


def test_variogram_row_lists_are_the_walks_bytes(monkeypatch):
    # pair indices past 256, a negative zero and a subnormal, in one % pass;
    # a list of the same rows is walked
    rows = variogram_table(1500)
    doc = {"rows": rows, "one": rows[:1]}
    assert canonical.dumps(doc) == walked(doc, monkeypatch)
    assert canonical.dumps(doc) == canonical.dumps({"rows": list(rows), "one": [rows[0]]})


def coefficient_table(n):
    l = np.arange(n)
    return canonical.Table(CoefficientRow, l, 2 * l + 1, 1.0 / (l + 1), np.full(n, -0.0),
                           math.pi * l, np.full(n, 2.5e-310))


def test_coefficient_rows_with_monte_carlo_are_the_walks_bytes(monkeypatch):
    rows = coefficient_table(60)
    assert canonical.dumps([rows]) == walked([rows], monkeypatch)


# ---------------------------------------------------------------------------
# streaming: dump to a handle, dumps, and the item-by-item walk agree
# ---------------------------------------------------------------------------

def variogram_table(n):
    i = np.arange(n)
    return canonical.Table(VariogramRow, i, 300 + 7 * i, i / 7.0,
                           np.where(i % 5, -0.0, 1e300), 5e-324 * (i + 1))


def mixed_doc():
    """Every kind the walk meets: tables past one pass, nested lists,
    named tuples, None, ints, booleans, strings, -0.0 and a subnormal."""
    table = variogram_table(1500)
    samples = np.sin(np.arange(3000.0)).reshape(600, 5) * 1e-300
    return {
        "none": None, "flag": True, "count": -7, "name": "a \"quoted\" %s",
        "zero": -0.0, "tiny": 5e-324, "empty": [], "nothing": {},
        "rows": table, "head": table[:3], "samples": samples, "column": samples[:, 2],
        "coeffs": [CoefficientRow(l, 2 * l + 1, 1.0 / (l + 1), -0.0, None, None)
                   for l in range(5)],
        "coeff_table": canonical.Table(CoefficientRow, range(3), [1, 3, 5], [0.5, -0.0, 5e-324],
                                       [1.0, 2.0, 3.0], [None] * 3, [None] * 3),
        "nested": [[[0.1, -0.0], [5e-324]], [[1, 2], []], [None, 1.5, "x"]],
        "long": [k / 3.0 for k in range(5000)],
        "indices": np.arange(4000),
        "scalars": [np.float64(0.25), np.int64(3), np.bool_(False)],
    }


class Writes:
    """A text handle that records each write."""

    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)


def test_dump_to_a_file_is_dumps_and_the_walk(tmp_path, monkeypatch):
    doc = mixed_doc()
    path = tmp_path / "doc.json"
    with open(path, "w", newline="") as fh:
        canonical.dump(doc, fh)
    text = canonical.dumps(doc)
    assert path.read_bytes() == text.encode()
    assert text == walked(doc, monkeypatch)
    assert json.loads(text)["rows"][1] == {"pair_i": 1, "pair_j": 307, "distance": 1 / 7.0,
                                           "estimate": -0.0, "stderr": 1e-323}


@pytest.mark.parametrize("chunk", [1, 7, 4096])
def test_any_chunk_size_writes_the_same_text(chunk, monkeypatch):
    doc = mixed_doc()
    text = canonical.dumps(doc)
    monkeypatch.setattr(canonical, "_CHUNK", chunk)
    fh = Writes()
    canonical.dump(doc, fh)
    assert "".join(fh.writes) == text
    assert len(fh.writes) > 1


def test_dump_writes_bounded_chunks():
    # a 100,000-row table is 18 MB of text, written a pass of rows at a time:
    # no write holds more rows than a pass of _CHUNK cells, nor 50 bytes a cell
    fh = Writes()
    canonical.dump({"rows": variogram_table(100_000)}, fh)
    sizes = list(map(len, fh.writes))
    assert sum(sizes) > 10 ** 7
    per_pass = -(-canonical._CHUNK // len(VariogramRow._fields))
    first = f'"{VariogramRow._fields[0]}": '
    assert max(w.count(first) for w in fh.writes) <= per_pass
    assert max(sizes) < 50 * canonical._CHUNK


def test_csv_rows_from_a_template_are_the_walks_bytes(monkeypatch):
    # two Tables and a 2-D array, then the same rows a row at a time
    samples = np.sin(np.arange(3000.0)).reshape(600, 5)
    cases = [(VariogramRow._fields, variogram_table(1500)),
             (CoefficientRow._fields, coefficient_table(60)),
             (list("abcde"), samples)]
    for header, rows in cases:
        fh = Writes()
        canonical.dump_csv(header, rows, fh, ["k: v"])
        with monkeypatch.context() as m:
            m.setattr(canonical, "_rows_template", lambda rows, level: None)
            one_at_a_time = Writes()
            canonical.dump_csv(header, rows, one_at_a_time, ["k: v"])
        assert "".join(fh.writes) == "".join(one_at_a_time.writes)
        assert "".join(fh.writes).startswith(f"# k: v\n{','.join(header)}\n")


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_column_raises_before_any_write(bad):
    table = variogram_table(100_000)
    table.estimate[-1] = bad  # the last row, several passes in
    samples = np.zeros((10_000, 4))
    samples[-1, 3] = bad
    for doc in ({"rows": table}, {"samples": samples}, np.array([0.5] * 10_000 + [bad])):
        fh = Writes()
        with pytest.raises(ValueError, match="non-finite"):
            canonical.dump(doc, fh)
        assert fh.writes == []
    fh = Writes()
    with pytest.raises(ValueError, match="non-finite"):
        canonical.dump_csv(VariogramRow._fields, table, fh)
    assert fh.writes == []


def test_table_is_a_sequence_of_rows():
    table = variogram_table(10)
    assert len(table) == 10
    assert table[2] == VariogramRow(2, 314, 2 / 7.0, -0.0, 1.5e-323)
    assert type(table[2].pair_i) is int and type(table[2].distance) is float
    assert list(table[1:3]) == [table[1], table[2]]
    assert np.array_equal(table.pair_j, 300 + 7 * np.arange(10))
    with pytest.raises(AttributeError):
        table.no_such_column
    # an object column, as coefficients with Monte Carlo off hold, indexes to None
    off = canonical.Table(CoefficientRow, [0, 1], [1, 3], [1.5, 0.5], [1.5, 0.5], [None] * 2,
                          [None] * 2)
    assert off[1] == CoefficientRow(1, 3, 0.5, 0.5, None, None) and list(off)[1] == off[1]
    with pytest.raises(ValueError):
        canonical.Table(VariogramRow, np.arange(3), np.arange(4), *np.zeros((3, 3)))


# ---------------------------------------------------------------------------
# the numeric kernel: every table cell's text is format_float's or str()'s
# ---------------------------------------------------------------------------

def property_doubles():
    """About 1.1 million doubles: random bits, so random signs, across every
    binade from the subnormals to 1.8e308; ties at the 17th digit (an
    integer of 12-16 digits plus an odd multiple of 2**-j, 18 digits in
    all); powers of ten and their neighbours; integers; +-0.0 and both
    extremes."""
    rng = np.random.default_rng(45)
    random = rng.integers(0, 1 << 64, 900_000, dtype=np.uint64).view(np.float64)
    digits = rng.integers(12, 17, 100_000)
    j = 18 - digits
    whole = rng.integers(10 ** (digits - 1), np.minimum(10 ** digits, 2 ** (53 - j)))
    ties = whole + (2 * rng.integers(0, 2 ** (j - 1)) + 1) / 2.0 ** j
    tens = np.array([float(f"1e{e}") for e in range(-323, 309)])
    near = np.concatenate([np.nextafter(tens, 0), tens, np.nextafter(tens, np.inf)])
    whole_numbers = rng.integers(-(2 ** 53), 2 ** 53, 50_000).astype(np.float64)
    extremes = np.array([0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
                         1e-4, 9.999999999999999e16, 1e17, 0.99999999999999989])
    doubles = np.concatenate([random[np.isfinite(random)], ties, -ties, near, -near,
                              whole_numbers, extremes, -extremes])
    return doubles


def test_float_cells_are_format_floats_text():
    x = property_doubles()
    assert len(x) > 10 ** 6
    text = canonical.dumps(x)
    want = "[\n  " + ("%.17g,\n  " * len(x) % tuple(x.tolist()))[:-4] + "\n]\n"
    if text != want:
        got = text[4:-3].split(",\n  ")
        bad = [(v, g) for v, g in zip(x.tolist(), got) if g != "%.17g" % v]
        assert bad == []


@pytest.mark.parametrize("dtype", [np.int32, np.int64])
def test_int_cells_are_str_text(dtype):
    info = np.iinfo(dtype)
    rng = np.random.default_rng(int(info.bits))
    v = np.concatenate([rng.integers(info.min, info.max, 200_000, dtype=dtype, endpoint=True),
                        (rng.integers(-10 ** 6, 10 ** 6, 100_000)).astype(dtype),
                        np.array([info.min, info.min + 1, -1, 0, 1, info.max - 1, info.max], dtype)])
    text = canonical.dumps(v)
    assert text == "[\n  " + ",\n  ".join(map(str, v.tolist())) + "\n]\n"


@pytest.mark.parametrize("edge, kernel",
                         [(2 ** 53 - 1, True), (2 ** 53, True), (2 ** 53 + 1, False)])
def test_ints_to_2_53_take_the_kernel_and_beyond_are_walked(edge, kernel):
    # a float64 holds every int within +-2**53, so the kernel writes them;
    # past that an int column or array is walked, and both give str()'s text
    v = np.array([-edge, -1, 0, edge], np.int64)
    table = canonical.Table(VariogramRow, v, v[::-1], v * 0.5, -v * 0.5, np.full(4, 0.25))
    for rows in (v, table, v.reshape(2, 2)):
        assert (canonical._rows_template(rows, 0) is not None) == kernel
        assert (canonical._rows_template(rows, None) is not None) == kernel
    assert canonical.dumps(v) == "[\n  " + ",\n  ".join(map(str, v.tolist())) + "\n]\n"
    text = canonical.dumps(table)
    assert text == canonical.dumps(list(table)) and f'"pair_i": {-edge},\n' in text
    fh = Writes()
    canonical.dump_csv(["a", "b"], v.reshape(2, 2), fh)
    assert "".join(fh.writes) == f"a,b\n{-edge},-1\n0,{edge}\n"


def test_no_double_carries_the_kernels_digits_to_ten_to_the_17():
    # the largest double below 10**j, j = -3..17, the top of each decade in
    # the kernel's fixed range, scales by 10**(17 - j) to more than 8 below
    # 10**17, exactly, so round-half-even never carries it there
    below = []
    for j in range(-3, 18):
        power = Fraction(10) ** j
        t = float(power)
        t = math.nextafter(t, 0.0) if Fraction(t) >= power else t
        assert Fraction(math.nextafter(t, math.inf)) >= power
        assert 10 ** 17 - Fraction(t) * Fraction(10) ** (17 - j) > 8
        below.append(t)
    x = np.array(below + [-t for t in below])
    assert canonical.dumps(x) == "[\n  " + ",\n  ".join("%.17g" % t for t in x.tolist()) + "\n]\n"


def mixed_floats():
    # in the kernel's domain and out of it, within one pass: -0.0, a subnormal,
    # exponent forms below 1e-4 and at 1e17 and above, the last double below
    # 1e17, and 1.0 as parsed from 0.99999999999999999 beside the double below it
    return np.array([-0.0, 5e-324, 1e-5, 9.999999999999999e16, 1e300, -1e-4,
                     0.99999999999999999, 0.99999999999999989, 1e17, 0.1])


def test_a_column_of_kernel_and_fallback_cells_is_the_walks_bytes(monkeypatch):
    x = mixed_floats()
    n = len(x)
    table = canonical.Table(VariogramRow, np.arange(n), -np.arange(n), x, x[::-1], -x)
    for write in (lambda fh: canonical.dump({"rows": table}, fh),
                  lambda fh: canonical.dump_csv(VariogramRow._fields, table, fh)):
        fh = Writes()
        write(fh)
        with monkeypatch.context() as m:
            m.setattr(canonical, "_rows_template", lambda rows, level: None)
            walked_fh = Writes()
            write(walked_fh)
        assert "".join(fh.writes) == "".join(walked_fh.writes)
    assert '"distance": -0,\n' in canonical.dumps(table) and "1.0000000000000001e-05" in \
        canonical.dumps(table)


def test_a_row_wider_than_a_pass_is_the_walks_bytes(monkeypatch):
    wide = (np.sin(np.arange(320_000.0)) * 10.0 ** (np.arange(320_000) % 9 - 4)).reshape(2, -1)
    header = [f"c{j}" for j in range(wide.shape[1])]
    # a pass is one row here: a write holds one row's close ("]" or a line's
    # end), and the array's close or the header's line
    for write, close in ((lambda fh: canonical.dump(wide, fh), "]"),
                         (lambda fh: canonical.dump_csv(header, wide, fh), "\n")):
        fh = Writes()
        write(fh)
        with monkeypatch.context() as m:
            m.setattr(canonical, "_rows_template", lambda rows, level: None)
            walked_fh = Writes()
            write(walked_fh)
        assert "".join(fh.writes) == "".join(walked_fh.writes)
        assert max(w.count(close) for w in fh.writes) <= 2


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads VmHWM from /proc")
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_a_row_wider_than_a_pass_grows_no_more_than_its_charge(fmt):
    code = f"""if True:
        import os
        import numpy as np
        from levy_groups import canonical
        def hwm():
            with open("/proc/self/status") as f:
                return next(int(l.split()[1]) * 1024 for l in f if l.startswith("VmHWM:"))
        wide = np.empty((2, 160_000))
        wide[:] = np.sin(np.arange(160_000.0))
        header = [f"c{{j}}" for j in range(160_000)]
        fh = open(os.devnull, "w")
        before = hwm()
        if {fmt!r} == "json":
            canonical.dump(wide, fh)
        else:
            canonical.dump_csv(header, wide, fh)
        print(hwm() - before, canonical.dump_bytes(160_000))
    """
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": SRC}, timeout=120)
    assert done.returncode == 0, done.stderr
    grown, charged = map(int, done.stdout.split())
    assert grown <= charged


# ---------------------------------------------------------------------------
# one rule for a scalar's text, in JSON and in CSV
# ---------------------------------------------------------------------------

def csv_text(header, rows, comments=()):
    fh = Writes()
    canonical.dump_csv(header, rows, fh, comments)
    return "".join(fh.writes)


@pytest.mark.parametrize("values, text", [
    (np.array([True, False]), "x\ntrue\nfalse\n"),
    (np.array([2 ** 53 + 1, -3], np.int64), f"x\n{2 ** 53 + 1}\n-3\n"),
    (np.array([None, 1.5, "a,b"], dtype=object), 'x\n""\n1.5\n"a,b"\n'),
], ids=["bool", "int64", "object"])
def test_csv_of_a_1d_array_the_kernel_refuses_is_one_cell_rows(values, text):
    # each element is one cell, as in a JSON list and in the kernel's template
    assert canonical._rows_template(values, None) is None
    assert csv_text(["x"], values) == csv_text(["x"], [[v] for v in values.tolist()]) == text


def test_numpy_scalar_cells_are_their_items():
    # in CSV as in JSON: np.float32(0.1) is 0.10000000149011612, np.bool_ true
    rows = [[np.bool_(True), np.float32(0.1), np.int64(-7), np.float64(-0.0), np.str_("s")],
            (np.bool_(False), np.float32(5e-45), np.int64(2 ** 60), np.array(2.5), None)]
    items = [[v.item() if hasattr(v, "item") else v for v in row] for row in rows]
    header = list("abcde")
    assert csv_text(header, rows) == csv_text(header, items)
    assert csv_text(header, rows).splitlines()[1] == "true,0.10000000149011612,-7,-0,s"
    assert canonical.dumps(rows) == canonical.dumps(items)
    grid = np.array([[True, False], [False, True]])
    assert csv_text(["a", "b"], grid) == "a,b\ntrue,false\nfalse,true\n"
    assert json.loads(canonical.dumps(grid)) == grid.tolist()


def test_a_comment_with_a_line_break_stays_one_line():
    text = csv_text(["a"], [[1]], ["command: x --out a\nb.csv", "cr: a\r\nb", "plain: v \\n"])
    assert text == "# command: x --out a\\nb.csv\n# cr: a\\r\\nb\n# plain: v \\n\na\n1\n"
    assert [line[:1] for line in text.split("\n")[:3]] == ["#"] * 3


@pytest.mark.parametrize("shape, dtype", [((3, 0), np.float64), ((1, 0), np.int64),
                                          ((0,), np.float64), ((0, 3), np.int64)])
def test_empty_and_zero_column_arrays_are_the_walks_bytes(shape, dtype, monkeypatch):
    # a zero-column row is "[]" in JSON and an empty line in CSV
    a = np.zeros(shape, dtype)
    doc = {"a": a, "deep": [a]}
    lists = {"a": a.tolist(), "deep": [a.tolist()]}
    assert canonical.dumps(doc) == canonical.dumps(lists) == walked(doc, monkeypatch)
    assert canonical.dumps(a) == canonical.dumps(a.tolist())
    assert csv_text(["h"], a) == csv_text(["h"], a.tolist())
    if shape == (3, 0):
        assert canonical.dumps(a) == "[\n  [],\n  [],\n  []\n]\n"
        assert csv_text(["h"], a) == "h\n\n\n\n"


def test_a_key_that_is_no_string_or_a_value_of_no_known_kind_raises():
    with pytest.raises(TypeError, match="keys must be strings, got int"):
        canonical.dumps({"a": {1: 2}})
    for bad in (object(), {"a": [1, object()]}, np.datetime64("2020-01-01")):
        with pytest.raises(TypeError, match="cannot serialize"):
            canonical.dumps(bad)
    with pytest.raises(TypeError, match="cannot serialize object"):
        csv_text(["a", "b"], [[1, object()]])
