"""Deterministic JSON emission.

Numbers are written with 17 significant digits so that emitted files are
byte-stable and round-trip to the same IEEE-754 doubles.  Key order is the
insertion order of the dicts handed in, which the callers keep fixed.

``dumps`` tests the types reports are made of (an exact float, a dict, an exact
float ndarray) before the rest; every path gives ``format_number``'s bytes, and a
non-finite value raises its ``ValueError``.
"""

from __future__ import annotations

import math

import numpy as np


def format_number(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"non-finite number in JSON output: {x!r}")
    return format(x, ".17g")


class _RowFormats(dict):  # "[%.17g, ..., %.17g]" by row length, built on first use
    def __missing__(self, n: int) -> str:
        self[n] = row = "[" + ", ".join(["%.17g"] * n) + "]"
        return row


_ROW = _RowFormats()


def dumps(obj) -> str:
    """Serialize dict/list/str/number/None with fixed float formatting.

    Float arrays up to 2-D are formatted one row at a time, to the same bytes
    as the element-wise path; a finite double never prints an "n".
    """
    kind = type(obj)
    if kind is float:
        text = "%.17g" % obj
        return format_number(obj) if "n" in text else text  # nan or inf: raises
    if isinstance(obj, dict):
        return "{" + ", ".join([f'"{key}": {dumps(value)}' for key, value in obj.items()]) + "}"
    if kind is np.ndarray and obj.dtype.kind == "f" and obj.ndim <= 2:
        if obj.ndim == 0:
            return format_number(obj.item())
        if obj.ndim == 1:
            values = obj.tolist()
            text = _ROW[len(values)] % tuple(values)
        else:
            text = "[" + ", ".join([_ROW[len(row)] % tuple(row) for row in obj.tolist()]) + "]"
        if "n" in text:  # nan or inf
            format_number(obj[~np.isfinite(obj)][0])  # raises format_number's ValueError
        return text
    if obj is None:
        return "null"
    if isinstance(obj, str):
        # no exotic characters are ever emitted here, but escape properly
        escaped = (
            obj.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
        )
        return f'"{escaped}"'
    if isinstance(obj, (list, tuple, np.ndarray)):
        return "[" + ", ".join(dumps(value) for value in obj) + "]"
    return format_number(obj)
