"""Canonical text encoding: 17-significant-digit floats, stable key order.

Both the certificate documents and the CLI emit through these helpers so
identical inputs round-trip to byte-identical text across platforms.  The
writers stream: text goes to the handle in chunks, a table a chunk of rows
at a time, so no whole-document string is built.
"""

from __future__ import annotations

import csv
import io
import json
import math
from typing import Any, Callable, Iterable, Optional

import numpy as np


def format_float(x: float) -> str:
    """Decimal form with 17 significant digits, '.' separator."""
    x = float(x)
    if math.isnan(x) or math.isinf(x):
        raise ValueError(f"non-finite value {x!r} cannot be serialized")
    return f"{x:.17g}"


_INDENT = 2
_CHUNK = 2048  # cells per % pass of a table, and pieces held before a write: tens of kB


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
    one pass of cells and its text, the pieces held and their joined copy.
    Writing a million-row Table and a (250,000, 9) array to os.devnull grew
    VmHWM by 0.3-0.4 MiB in JSON and 2.7 MiB in CSV; charged 4 MiB.  A row
    wider than a chunk is a pass of its own: its Python floats, their tuple,
    the template and its text, joined and encoded.  Rows of 90,000 to
    640,000 cells grew 101-123 B per cell in JSON and 201-205 B in CSV, with
    a header of as many names; charged 256 B per cell."""
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
    """Write ``comments`` as ``# `` lines, then ``header`` and ``rows`` as CSV
    to the text handle ``fh``: floats via format_float, None empty, booleans
    true/false.  A Table or a 1-D or 2-D array is written from the same row
    template as :func:`dump`, a chunk of rows at a time; any other ``rows``
    (a generator, say) a row at a time."""
    out = _Pieces(fh)
    out.extend(f"# {c}\n" for c in comments)
    w = csv.writer(out, lineterminator="\n")
    w.writerow(header)
    table = _rows_template(rows, None) if _is_list(rows) and len(rows) else None
    if table is not None:
        _write_rows(out, *table, len(rows), "")
    else:
        for row in rows:
            w.writerow(map(_cell, row))
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


def _cell(x) -> str:
    if x is None:
        return ""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return format_float(x)
    return str(x)


def _is_list(obj) -> bool:
    return isinstance(obj, (list, tuple, Table)) or (type(obj) is np.ndarray and obj.ndim > 0)


def _walk(obj: Any, out: _Pieces, level: int) -> None:
    pad = " " * (_INDENT * (level + 1))
    end_pad = " " * (_INDENT * level)
    if obj is None:
        out.append("null")
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        out.append(format_float(obj))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, dict) or hasattr(obj, "_asdict"):
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
        if table is not None:  # one % per chunk of rows, no string per row
            _write_rows(out, *table, len(obj), ",\n")
            out.append("\n")
        else:
            for i, v in enumerate(obj):
                out.append(pad)
                _walk(v, out, level + 1)
                out.append(",\n" if i < len(obj) - 1 else "\n")
                out.spill(_CHUNK)
        out.append(end_pad + "]")
    else:
        # numpy scalars and similar
        if hasattr(obj, "item"):
            _walk(obj.item(), out, level)
        else:
            raise TypeError(f"cannot serialize {type(obj).__name__}")


def _write_rows(out: _Pieces, template: str, cells: Callable, width: int, n: int,
                sep: str) -> None:
    """Rows 0..n of ``template``, joined by ``sep``, a pass of about a chunk of
    cells at a time: one % on ``cells(slice(a, b))``, the flat cells of rows
    a..b.  Each pass but the last spills; the caller spills after the last."""
    step = min(n, -(-_CHUNK // max(width, 1)))  # a full pass holds a chunk of cells
    full = sep.join([template] * step)
    for a in range(0, n, step):
        rows = min(step, n - a)
        if a:
            out.spill(_CHUNK)
            out.append(sep)
        text = full if rows == step else sep.join([template] * rows)
        out.append(text % tuple(cells(slice(a, a + rows))))
        out.cells += rows * width


_FORMATS = {"i": "%d", "f": "%.17g"}  # dtype kind -> the text of str() or format_float


def _rows_template(rows, level: Optional[int]):
    """(template, cells, width) of ``rows`` when all of them share one layout
    of ints and finite floats: the %-template of one row as the walk above
    writes it at ``level`` (a CSV line when ``level`` is None), cells(rs)
    the flat cells of the rows ``rs`` (a slice), and the cells per row.
    Tables and 1-D or 2-D arrays of ints and floats qualify; else None, and
    the rows are walked one at a time.  A non-finite float among the cells
    raises ValueError."""
    if isinstance(rows, Table):
        names, columns = rows.row._fields, rows.columns
        fmts = [_FORMATS.get(c.dtype.kind) for c in columns]
        if None in fmts:
            return None
        for name, c in zip(names, columns):
            _require_finite(c, f"column {name!r}")
        return _template(names, fmts, level), _interleave(columns), len(columns)
    if not isinstance(rows, np.ndarray):
        return None
    fmt = _FORMATS.get(rows.dtype.kind)
    if fmt is None or rows.ndim > 2:
        return None
    _require_finite(rows, "array")
    if rows.ndim == 1:
        return _template(None, [fmt], level), lambda rs: rows[rs].tolist(), 1
    return (_template((), [fmt] * rows.shape[1], level),
            lambda rs: rows[rs].ravel().tolist(), rows.shape[1])


def _require_finite(values: np.ndarray, what: str) -> None:
    # nan and inf pass through min and max, which make no array
    if values.size and not (math.isfinite(values.min()) and math.isfinite(values.max())):
        raise ValueError(f"non-finite value in {what} cannot be serialized")


def _interleave(columns) -> Callable:
    """cells(rs): the rows ``rs`` (a slice) of the columns, flattened row by row."""
    k = len(columns)

    def cells(rs):
        parts = [column[rs].tolist() for column in columns]
        flat = [None] * (len(parts[0]) * k)
        for c, part in enumerate(parts):
            flat[c::k] = part
        return flat
    return cells


def _template(names, fmts: list[str], level: Optional[int]) -> str:
    """One row: a bare value (``names`` None), a list (``()``) or an object
    keyed by ``names``, at ``level``; or a CSV line when ``level`` is None."""
    if level is None:
        return ",".join(fmts) + "\n"
    pad, end_pad = " " * (_INDENT * (level + 1)), " " * (_INDENT * level)
    if names is None:
        return end_pad + fmts[0]
    if not fmts:
        return end_pad + "[]"
    if names:
        keys, brackets = [f"{json.dumps(name).replace('%', '%%')}: " for name in names], "{}"
    else:
        keys, brackets = [""] * len(fmts), "[]"
    cells = ",\n".join(f"{pad}{key}{fmt}" for key, fmt in zip(keys, fmts))
    return f"{end_pad}{brackets[0]}\n{cells}\n{end_pad}{brackets[1]}"
