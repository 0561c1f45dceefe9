"""Deterministic JSON emission.

Numbers are written with 17 significant digits so that emitted files are
byte-stable and round-trip to the same IEEE-754 doubles.  NUMBER is that
format, the one every number slot of the report formats in cli.py and the
measurement format in probes.py is spelled with; ``dumps`` writes the two
values a report takes whole, the auto tolerance and an error message.
"""

from __future__ import annotations

import math

NUMBER = "%.17g"  # the format of every float written


def dumps(x) -> str:
    """A string, quoted, or a float as NUMBER writes it; a non-finite float raises ValueError."""
    if isinstance(x, str):
        return '"' + x.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n") + '"'
    if not math.isfinite(x):
        raise ValueError("non-finite number in JSON output: %r" % float(x))
    return NUMBER % x
