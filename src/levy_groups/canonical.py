"""Canonical text encoding: 17-significant-digit floats, stable key order.

Both the certificate documents and the CLI emit through these helpers so
identical inputs round-trip to byte-identical text across platforms.  The
writers stream: text goes to the handle in chunks, a table a pass of rows
at a time, so no whole-document string is built.  A table's numbers are
turned into text in numpy, a pass at a time, by one kernel (below) that
writes every finite float and every int within +-2**53, as its float,
whose %.17g text is str()'s: each float's digits come from an exact
two-product, and a float outside %.17g's fixed notation takes
format_float's text.
"""

from __future__ import annotations

import csv
import io
import json
import math
from typing import Any, Iterable, Optional

import numpy as np


def format_float(x: float) -> str:
    """Decimal form with 17 significant digits, '.' separator."""
    x = float(x)
    if math.isnan(x) or math.isinf(x):
        raise ValueError(f"non-finite value {x!r} cannot be serialized")
    return f"{x:.17g}"


_INDENT = 2
_CHUNK = 1 << 14  # cells per pass of a table, and pieces held before a write
_WINDOW = 1 << 20  # bytes of a pass's matrix compacted at a time


class Table:
    """Rows of the named tuple class ``row``, held as one array per field.

    ``table.<field>`` is that field's column; ``len``, indexing and iteration
    see rows of ``row``, and a slice is a Table.  The writers take a Table as
    the list of its rows and format it from the columns, a chunk of rows at a
    time, with no object per row; a table with an object column (None cells)
    is walked a row at a time.
    """

    __slots__ = ("row", "columns")

    def __init__(self, row, *columns):
        columns = tuple(map(np.asarray, columns))
        if len(columns) != len(row._fields) or len({c.shape for c in columns}) > 1 \
                or columns[0].ndim != 1:
            raise ValueError(f"need one 1-D column of one length per field of {row.__name__}")
        self.row, self.columns = row, columns

    def __getattr__(self, name):
        fields = () if name in Table.__slots__ else self.row._fields
        if name not in fields:
            raise AttributeError(name)
        return self.columns[fields.index(name)]

    def __len__(self) -> int:
        return len(self.columns[0])

    def __getitem__(self, k):
        if isinstance(k, slice):
            return Table(self.row, *(c[k] for c in self.columns))
        return self.row(*(c.item(k) for c in self.columns))

    def __iter__(self):
        return map(self.row, *(c.tolist() for c in self.columns))


def dump_bytes(row_cells: int = 0) -> int:
    """Bytes :func:`dump` and :func:`dump_csv` hold at their peak beyond the
    object they write, whatever its length, for rows of ``row_cells`` cells:
    one pass of a chunk of cells (its byte matrix, the kernel's arrays and
    its text), the pieces held and their joined copy.  Writing a
    million-row Table and a (250,000, 9) array to os.devnull grew VmHWM by
    2.1-2.9 MiB, in JSON and in CSV; charged 4 MiB.  A row wider than a
    chunk is a pass of its own, its matrix and text a row long, its cells
    formatted a chunk at a time.  Rows of 90,000 to 640,000 cells grew
    60-98 B per cell in JSON and 89-121 B in CSV, with a header of as many
    names; charged 256 B per cell."""
    return 4 * 2 ** 20 + (256 * row_cells if row_cells > _CHUNK else 0)


def dumps(obj: Any) -> str:
    """Canonical JSON of ``obj`` as one string: :func:`dump` into a buffer."""
    buf = io.StringIO()
    dump(obj, buf)
    return buf.getvalue()


def dump(obj: Any, fh) -> None:
    """Write canonical JSON of ``obj`` to the text handle ``fh``:
    insertion-ordered keys, floats via format_float.

    Named tuples are written as objects keyed by their field names, a Table
    as the list of its rows, a numpy array as its nested lists.  A
    non-finite float raises ValueError; one in a table of int and float
    columns or in a 1-D or 2-D array raises before any of it is written, and
    a document whose text before it is under a chunk reaches ``fh`` not at
    all.
    """
    out = _Pieces(fh)
    _walk(obj, out, 0)
    out.append("\n")
    out.spill()


def dump_csv(header: Iterable[str], rows, fh, comments: Iterable[str] = ()) -> None:
    """Write each of ``comments`` as one ``# `` line, CR and LF escaped as
    ``\\r`` and ``\\n``, then ``header`` and ``rows`` as CSV to the text
    handle ``fh``.  A cell is written as :func:`dump` writes it, a numpy
    scalar as its ``.item()``, but None empty and a string as csv quotes
    it; a row that is no list (an element of a 1-D array) is one cell.  A
    Table or a 1-D or 2-D array is written from the same row template as
    :func:`dump`, a chunk of rows at a time; any other ``rows`` (a
    generator, say) a row at a time."""
    out = _Pieces(fh)
    out.extend("# " + c.replace("\r", "\\r").replace("\n", "\\n") + "\n" for c in comments)
    w = csv.writer(out, lineterminator="\n")
    w.writerow(header)
    table = _rows_template(rows, None) if _is_list(rows) and len(rows) else None
    if table is not None:
        _write_rows(out, table, len(rows), "")
    else:
        for row in rows:
            w.writerow([_scalar(x, True) for x in (row if _is_list(row) else (row,))])
            out.spill(_CHUNK)
    out.spill()


class _Pieces(list):
    """Text pieces held for ``fh``, and the count of table cells among them.
    ``write`` lets csv.writer add to them."""

    __slots__ = ("fh", "cells")
    write = list.append

    def __init__(self, fh):
        super().__init__()
        self.fh, self.cells = fh, 0

    def spill(self, least: int = 0) -> None:
        """Write the pieces joined, when they and the cells number ``least``."""
        if self and len(self) + self.cells >= least:
            self.fh.write("".join(self))
            self.clear()
            self.cells = 0


def _is_list(obj) -> bool:
    return isinstance(obj, (list, tuple, Table)) or (type(obj) is np.ndarray and obj.ndim > 0)


def _scalar(obj, csv_cell: bool = False) -> str:
    """The text of the scalar ``obj``, a numpy scalar or 0-d array as its
    ``.item()``'s: null, true or false, str() of an int, format_float of a
    float, a string as JSON; as a CSV cell, None is empty and a string raw.
    Anything else raises TypeError."""
    if isinstance(obj, np.generic) or (isinstance(obj, np.ndarray) and not obj.ndim):
        obj = obj.item()
    if obj is None:
        return "" if csv_cell else "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return format_float(obj)
    if isinstance(obj, str):
        return obj if csv_cell else json.dumps(obj)
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _walk(obj: Any, out: _Pieces, level: int) -> None:
    pad = " " * (_INDENT * (level + 1))
    end_pad = " " * (_INDENT * level)
    if isinstance(obj, dict) or hasattr(obj, "_asdict"):
        obj = obj if isinstance(obj, dict) else obj._asdict()
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        for i, (k, v) in enumerate(obj.items()):
            if not isinstance(k, str):
                raise TypeError(f"keys must be strings, got {type(k).__name__}")
            out.append(f"{pad}{json.dumps(k)}: ")
            _walk(v, out, level + 1)
            out.append(",\n" if i < len(obj) - 1 else "\n")
            out.spill(_CHUNK)
        out.append(end_pad + "}")
    elif _is_list(obj):
        if not len(obj):
            out.append("[]")
            return
        out.append("[\n")
        table = _rows_template(obj, level + 1)
        if table is not None:  # a pass of rows at a time, no string per row
            _write_rows(out, table, len(obj), ",\n")
            out.append("\n")
        else:
            for i, v in enumerate(obj):
                out.append(pad)
                _walk(v, out, level + 1)
                out.append(",\n" if i < len(obj) - 1 else "\n")
                out.spill(_CHUNK)
        out.append(end_pad + "]")
    else:
        out.append(_scalar(obj))


def _write_rows(out: _Pieces, layout, n: int, sep: str) -> None:
    """Rows 0..n of ``layout`` (from :func:`_rows_template`), joined by
    ``sep``, a pass of about a chunk of cells at a time.  Each pass fills
    one (rows, bytes a row) matrix of the row's literal text and, between
    it, each cell's NUL-padded slot, then drops the NULs and decodes, a
    window of _WINDOW bytes at a time.  A row wider than a chunk is a pass
    of its own, its cells formatted a chunk at a time.  Each pass but the
    first spills before it; the caller spills after the last."""
    head, runs, values = layout
    head = (head if runs else head + sep).encode("ascii")
    placed, width, cells = [], len(head), 0
    for r, (count, w, after) in enumerate(runs):
        after = (after + sep if r == len(runs) - 1 else after).encode("ascii")
        placed.append((cells, count, width, w, after))  # its first cell
        cells += count
        width += count * (w + len(after))
    step = min(n, -(-_CHUNK // max(cells, 1)))  # a full pass holds a chunk of cells
    matrix = np.zeros((step, width), np.uint8)
    matrix[:, :len(head)] = np.frombuffer(head, np.uint8)
    for _, count, at, w, after in placed:
        units = matrix[:, at:at + count * (w + len(after))].reshape(step, count, -1)
        units[:, :, w:] = np.frombuffer(after, np.uint8)
    for a in range(0, n, step):
        if a:
            out.spill(_CHUNK)
        rows = matrix[:min(step, n - a)]
        block = values(slice(a, a + len(rows)))  # (rows, cells)
        per = max(1, _CHUNK // len(rows))
        for c in range(0, cells, per):
            text = _float_slots(block[:, c:c + per].ravel()).reshape(len(rows), -1, _SLOT)
            for first, count, at, w, after in placed:
                lo, hi = max(first, c), min(first + count, c + text.shape[1])
                if lo < hi:
                    unit = w + len(after)
                    at += (lo - first) * unit
                    units = rows[:, at:at + (hi - lo) * unit].reshape(len(rows), hi - lo, unit)
                    units[:, :, :w] = text[:, lo - c:hi - c, :w]
        if a + len(rows) == n and sep:
            rows[-1, -len(sep):] = 0
        flat = rows.ravel()
        for at in range(0, flat.size, _WINDOW):
            window = flat[at:at + _WINDOW]
            out.append(window[window != 0].tobytes().decode("ascii"))
        out.cells += len(rows) * cells


def _rows_template(rows, level: Optional[int]):
    """(head, runs, values) of ``rows`` when all of them share one layout of
    ints and finite floats, as the walk above writes them at ``level`` (a
    CSV line when ``level`` is None): ``head`` the literal text of a row
    before its first cell, ``runs`` its cells in runs of (cells, slot bytes,
    the literal text after each), the row's close after the last run's one
    cell, and values(rs) the (rows, cells) block of the cells of the rows
    ``rs`` (a slice).  One kernel, _float_slots, writes every cell: a
    finite float, or an int within +-2**53, which a float64 holds exactly
    and whose %.17g text is str()'s.  Tables and 1-D or 2-D arrays of such
    ints and floats qualify; else None, and the rows are walked one at a
    time.  A non-finite float among the cells raises ValueError."""
    if isinstance(rows, Table):
        names, columns = rows.row._fields, rows.columns
        if any(c.dtype.kind not in "if" for c in columns):
            return None
        for name, c in zip(names, columns):
            _require_finite(c, f"column {name!r}")
        widths = list(map(_slot_bytes, columns))
        if None in widths:
            return None
        head, afters = _template(names, len(columns), level)
        afters = [after for after, count in afters for _ in range(count)]
        return head, [(1, w, after) for w, after in zip(widths, afters)], \
            lambda rs: np.stack([c[rs] for c in columns], 1)
    if not isinstance(rows, np.ndarray) or rows.dtype.kind not in "if" or rows.ndim > 2:
        return None
    _require_finite(rows, "array")
    w = _slot_bytes(rows)
    if w is None:
        return None
    grid = rows[:, None] if rows.ndim == 1 else rows  # a 1-D array: one column of bare values
    head, afters = _template(None if rows.ndim == 1 else (), grid.shape[1], level)
    return head, [(count, w, after) for after, count in afters], lambda rs: grid[rs]


def _require_finite(values: np.ndarray, what: str) -> None:
    # nan and inf pass through min and max, which make no array
    if values.size and not (math.isfinite(values.min()) and math.isfinite(values.max())):
        raise ValueError(f"non-finite value in {what} cannot be serialized")


def _slot_bytes(values: np.ndarray) -> Optional[int]:
    """The leading bytes of a _float_slots slot that hold the text of every
    cell of ``values``: all _SLOT for floats; for ints, from the sign byte
    to the last digit of the largest, whose first digit is at byte 6, as
    for every float of 1 or more (see _masks).  None for an int beyond
    +-2**53, which a float64 may not hold: its rows are walked."""
    if values.dtype.kind == "f" or not values.size:
        return _SLOT
    top = max(-int(values.min()), int(values.max()))
    return 6 + len(str(top)) if top <= 2 ** 53 else None


def _template(names, count: int, level: Optional[int]):
    """The literal text of one row of ``count`` cells: before the first
    cell, and after the cells as (text, cells) runs, the row's close after
    the last one: a bare value (``names`` None), a list (``()``) or an
    object keyed by ``names``, at ``level``; or a CSV line when ``level`` is
    None."""
    if level is None:
        return ("", _runs([(",", count - 1), ("\n", 1)])) if count else ("\n", [])
    pad, end_pad = " " * (_INDENT * (level + 1)), " " * (_INDENT * level)
    if names is None:
        return end_pad, [("", 1)]
    if not count:
        return end_pad + "[]", []
    if names:
        keys = [f",\n{pad}{json.dumps(name)}: " for name in names]
        return f"{end_pad}{{\n{keys[0][2:]}", [(key, 1) for key in keys[1:]] + [(f"\n{end_pad}}}", 1)]
    return f"{end_pad}[\n{pad}", _runs([(f",\n{pad}", count - 1), (f"\n{end_pad}]", 1)])


def _runs(runs):
    return [(text, cells) for text, cells in runs if cells]


# ---------------------------------------------------------------------------
# the numeric kernel: each cell's text as bytes, in numpy
# ---------------------------------------------------------------------------
#
# A float x with 1e-4 <= |x| < 1e17 is written by %.17g in fixed notation:
# its 17 significant digits N = round-half-even(|x| 10**(16 - E)), E the
# decimal exponent of the rounded value, with the point after digit E (or
# "0." and -E - 1 zeros before them when E < 0), trailing zeros and a bare
# point stripped.  10**k is an exact double for k <= 22, so Dekker's
# two-product gives |x| 10**k exactly as hi + lo ("A floating-point
# technique for extending the available precision", Numer. Math. 18, 1971).
# Where that product lies in [1e16, 1e17), hi is an even integer and
# N = hi + rint(lo), ties to even.  N never carries to 1e17: the largest
# double below each power of ten from 1e-3 to 1e17 scales to at least 8.3
# below it.  Every other float (exponent form, subnormals) takes
# format_float's text.

_SLOT = 24  # the longest text format_float writes: "-2.2250738585072014e-308"
_SPLITTER = 134217729.0  # 2**27 + 1: splits a double into two 26-bit halves


def _split(a):
    c = _SPLITTER * a
    high = c - (c - a)
    return high, a - high


_TEN = np.array([float(10 ** k) for k in range(23)])  # exact


def _decades():
    """The least double at or above 10**j, for j = -4..17: a double a is at
    or above 10**j exactly when it is at or above this one."""
    least = []
    for j in range(-4, 18):
        t = float(10 ** j) if j >= 0 else 1 / 10 ** -j
        num, den = t.as_integer_ratio()
        least.append(t if j >= 0 or num * 10 ** -j >= den else math.nextafter(t, math.inf))
    return np.array(least)


_DECADES = _decades()
_TEN_HIGH, _TEN_LOW = _split(_TEN)


def _tables():
    """The four ASCII digits of each of 0..9999, a word each, then a cell's
    first word (three NULs and the first of its four leading zeros); and
    the trailing zero digits of each, 4 for 0000.  Built as bytes, from the
    100 digit pairs."""
    pairs = [b"%02d" % i for i in range(100)]
    zeros = [2] + [int(p.endswith(b"0")) for p in pairs[1:]]  # of a pair
    words = b"".join(a.join([b"", *pairs]) for a in pairs) + b"\0\0\0" + b"0"
    trailing = b"".join(bytes([2 + zeros[i]] + zeros[1:]) for i in range(100))
    return np.frombuffer(words, np.uint32), np.frombuffer(trailing, np.int8).astype(np.intp)


_WORDS, _TRAILING = _tables()
_FLOAT_HEAD = _WORDS[10000]


def _masks():
    """The tables, a row by (k = 16 - E, trailing zeros z, sign): where a
    slot takes the source byte after its own (the digits before the point),
    where its own (those after), and the point and the sign.  The source
    holds "0000" and the 17 digits at bytes 3..23; the text's c-th
    character goes to byte 2 + c, the sign to byte 0, so the first digit of
    a float of 1 or more is at byte 6."""
    before, after, marks = [], [], []
    for k in range(21):
        point, lead = 21 - k, 4 + min(16 - k, 0)
        before.append((bytes(2 + lead) + b"\xff" * (point - lead)).ljust(_SLOT, b"\0") * 36)
        for z in range(18):
            digits = max(22 - z - point - 1, 0)  # after the point; none: no point
            after.append((bytes(3 + point) + b"\xff" * digits).ljust(_SLOT, b"\0") * 2)
            mark = (bytes(2 + point) + (b"." if digits else b"")).ljust(_SLOT, b"\0")
            marks.append(mark + b"-" + mark[1:])
    return [np.frombuffer(b"".join(t), np.uint8).reshape(-1, _SLOT)
            for t in (before, after, marks)]


_BEFORE, _AFTER, _MARKS = _masks()


def _words(lead: np.ndarray, rest: np.ndarray) -> np.ndarray:
    """(5, len) indices of the words of each cell: ``lead`` (under 10,000),
    then the four of the 16 digits of ``rest``."""
    words = np.empty((5, len(rest)), np.intp)
    words[0] = lead
    upper = rest // 10 ** 8
    lower = rest - upper * 10 ** 8
    np.floor_divide(upper, 10 ** 4, out=words[1])
    np.subtract(upper, words[1] * 10 ** 4, out=words[2])
    np.floor_divide(lower, 10 ** 4, out=words[3])
    np.subtract(lower, words[3] * 10 ** 4, out=words[4])
    return words


def _source(words: np.ndarray) -> np.ndarray:
    """The bytes of the word _FLOAT_HEAD and the ``words`` of each cell, six
    words a cell, flat, and one NUL word after."""
    buf = np.empty(words.shape[1] * 6 + 1, np.uint32)
    cells = buf[:-1].reshape(-1, 6)
    cells[:, 0] = _FLOAT_HEAD
    cells[:, 1:] = _WORDS.take(words).T
    buf[-1] = 0
    return buf.view(np.uint8)


def _exponent(a: np.ndarray) -> np.ndarray:
    """16 - E, for the decimal exponent E of each a in [1e-4, 1e17)."""
    e = a.view(np.int64) // 2 ** 52  # the biased binary exponent, 1023 + floor(log2 a)
    e *= 78913
    e -= 1023 * 78913 - 5 * 2 ** 18
    e //= 2 ** 18  # floor(log10 2 * floor(log2 a)) + 5: E + 5, or E + 4
    e += (a >= _DECADES.take(e)).astype(np.int64)
    return 21 - e


def _digits(a: np.ndarray, k: np.ndarray) -> np.ndarray:
    """round-half-even(a * 10**k) where that product is in [1e16, 1e17]:
    Dekker's two-product gives it exactly as product + rest, the product
    an even integer, so ties go to even."""
    high, low = _split(a)
    th, tl = _TEN_HIGH.take(k), _TEN_LOW.take(k)
    product = a * _TEN.take(k)
    rest = high * th
    rest -= product
    rest += high * tl
    rest += low * th
    rest += low * tl
    digits = product.astype(np.int64)
    digits += np.rint(rest).astype(np.int64)
    return digits


def _float_slots(x: np.ndarray) -> np.ndarray:
    """(len(x), _SLOT) bytes: format_float(x) of each cell, NUL-padded; an
    int cell within +-2**53 is written as its float, which is str()'s text."""
    x = x.astype(np.float64, copy=False)
    a = np.abs(x)
    fixed = (a >= 1e-4) & (a < 1e17)
    bad = np.flatnonzero(np.where(fixed, 0.0, a))  # in exponent form, or subnormal
    a = np.where(fixed, a, 1.0)
    k = _exponent(a)  # a * 10**k is in [1e16, 1e17)
    digits = _digits(a, k)
    digits *= fixed  # zeros write "0"
    lead = digits // 10 ** 16
    words = _words(lead, digits - lead * 10 ** 16)
    z = words[0] == 0  # trailing zeros: the lead digit is 0 only in 0
    for word in words[1:]:  # the last word's, and the next's where it is 0000
        t = _TRAILING.take(word)
        z = np.where(t == 4, z + 4, t)
    code = k * 36
    code += z * 2
    code += x.view(np.int64) < 0  # the sign bit, -0.0's too
    source = _source(words)
    del a, fixed, k, digits, lead, words, z, t
    n = len(x) * _SLOT
    slots = _BEFORE.take(code, axis=0).ravel()
    slots &= source[1:n + 1]
    digit = _AFTER.take(code, axis=0).ravel()
    digit &= source[:n]
    slots |= digit
    del source, digit
    slots |= _MARKS.take(code, axis=0).ravel()
    slots = slots.reshape(len(x), _SLOT)
    if bad.size:
        text = "".join(format_float(v).ljust(_SLOT, "\0") for v in x[bad].tolist())
        slots[bad] = np.frombuffer(text.encode("ascii"), np.uint8).reshape(-1, _SLOT)
    return slots
