"""Deterministic JSON emission.

Numbers are written with 17 significant digits so that emitted files are
byte-stable and round-trip to the same IEEE-754 doubles.  Key order is the
insertion order of the dicts handed in, which the callers keep fixed.

``dumps`` tests the types reports are made of (an exact float, a dict, a list
or tuple of exact floats) before the rest; every path gives ``format_number``'s
bytes, and a non-finite value raises its ``ValueError``.  numpy types are
recognised once numpy is imported: before that no numpy object can exist, and
this module does not import it.
"""

from __future__ import annotations

import math
import sys

NUMBER = "%.17g"  # the format of every float written


def format_number(x) -> str:
    np = sys.modules.get("numpy")
    if isinstance(x, bool) or np is not None and isinstance(x, np.bool_):
        return "true" if x else "false"
    if isinstance(x, int) or np is not None and isinstance(x, np.integer):
        return str(int(x))
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"non-finite number in JSON output: {x!r}")
    return format(x, ".17g")


class _RowFormats(dict):  # "[%.17g, ..., %.17g]" by row length, built on first use
    def __missing__(self, n: int) -> str:
        self[n] = row = "[" + ", ".join([NUMBER] * n) + "]"
        return row


_ROW = _RowFormats()


def dumps(obj) -> str:
    """Serialize dict/list/tuple/str/number/None, and ndarrays as their lists,
    with fixed float formatting.

    A row of floats is formatted in one step, to the same bytes as the
    element-wise path.
    """
    kind = type(obj)
    if kind is float:
        text = NUMBER % obj
        return format_number(obj) if "n" in text else text  # nan or inf: raises
    if isinstance(obj, dict):
        return "{" + ", ".join([f'"{key}": {dumps(value)}' for key, value in obj.items()]) + "}"
    if isinstance(obj, (list, tuple)):
        if all([type(x) is float for x in obj]):
            text = _ROW[len(obj)] % tuple(obj)
            if "n" in text:  # nan or inf; a finite double never prints an "n"
                format_number(next(x for x in obj if not math.isfinite(x)))  # raises its ValueError
            return text
        return "[" + ", ".join([dumps(value) for value in obj]) + "]"
    if obj is None:
        return "null"
    if isinstance(obj, str):
        # no exotic characters are ever emitted here, but escape properly
        escaped = (
            obj.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
        )
        return f'"{escaped}"'
    np = sys.modules.get("numpy")
    if np is not None and isinstance(obj, np.ndarray):
        return dumps(obj.tolist())
    return format_number(obj)
