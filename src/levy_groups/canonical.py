"""Canonical text encoding: 17-significant-digit floats, stable key order.

Both the certificate documents and the CLI emit through these helpers so
identical inputs round-trip to byte-identical text across platforms.
"""

from __future__ import annotations

import json
import math
from itertools import chain
from typing import Any


def format_float(x: float) -> str:
    """Decimal form with 17 significant digits, '.' separator."""
    x = float(x)
    if math.isnan(x) or math.isinf(x):
        raise ValueError(f"non-finite value {x!r} cannot be serialized")
    return f"{x:.17g}"


_INDENT = 2


def dumps(obj: Any) -> str:
    """Canonical JSON: insertion-ordered keys, floats via format_float.

    Named tuples are written as objects keyed by their field names.
    """
    pieces: list[str] = []
    _emit(obj, pieces, 0)
    pieces.append("\n")
    return "".join(pieces)


def _emit(obj: Any, out: list[str], level: int) -> None:
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
            _emit(v, out, level + 1)
            out.append(",\n" if i < len(obj) - 1 else "\n")
        out.append(end_pad + "}")
    elif isinstance(obj, (list, tuple)):
        if not len(obj):
            out.append("[]")
            return
        out.append("[\n")
        template = _rows_template(obj, level + 1)
        if template is not None:  # one % for the whole list, no string per row
            cells = obj if type(obj[0]) is float else chain.from_iterable(obj)
            out.extend((",\n".join([template] * len(obj)) % tuple(cells), "\n"))
        else:
            for i, v in enumerate(obj):
                out.append(pad)
                _emit(v, out, level + 1)
                out.append(",\n" if i < len(obj) - 1 else "\n")
        out.append(end_pad + "]")
    else:
        # numpy scalars and similar
        if hasattr(obj, "item"):
            _emit(obj.item(), out, level)
        else:
            raise TypeError(f"cannot serialize {type(obj).__name__}")


def _rows_template(rows, level: int) -> str | None:
    """The %-template of one row as the walk above writes it, built once for
    all ``rows`` when they are finite floats, or named tuples of one type whose
    columns each hold only ints or only finite floats; else None, and a
    non-finite float raises in the walk."""
    kind = type(rows[0])
    if kind is float:
        if all(type(v) is float for v in rows) and all(map(math.isfinite, rows)):
            return " " * (_INDENT * level) + "%.17g"  # the text of format_float
        return None
    if not getattr(kind, "_fields", None) or any(type(row) is not kind for row in rows):
        return None
    pad, end_pad = " " * (_INDENT * (level + 1)), " " * (_INDENT * level)
    cells = []
    for name, column in zip(kind._fields, zip(*rows)):
        types = set(map(type, column))
        if types == {int}:
            fmt = "%d"  # the text of str()
        elif types == {float} and all(map(math.isfinite, column)):
            fmt = "%.17g"  # the text of format_float
        else:
            return None
        cells.append(f"{pad}{json.dumps(name).replace('%', '%%')}: {fmt}")
    return end_pad + "{\n" + ",\n".join(cells) + "\n" + end_pad + "}"
