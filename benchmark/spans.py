"""In-memory spans around the benchmark's calls into lorentzpol.

Every span carries a name, start and end (perf_counter_ns), the index of the
span that caused it (-1 for an op) and the id of the op it belongs to.  The
kind column separates op spans (0), calls the op makes (1) and stage-split
calls timed after the op on the same inputs (2).  Spans stay in memory and
are written out once, at the end of the run.
"""

from __future__ import annotations

from array import array
from pathlib import Path
from time import perf_counter_ns

import numpy as np

OP, CALL, STAGE = 0, 1, 2

# Modules whose share of the traced op time is reported.
LIBRARY_MODULES = ("probes", "algebra", "lorentz", "rotation", "jsonio")


class Tracer:
    """Span columns of one run, appended as the calls happen."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.op_id = array("q")
        self.kind = array("b")
        self._op_index = -1
        self._op_count = 0

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _append(self, name_id, start, end, parent, op_id, kind) -> int:
        self.name_id.append(name_id)
        self.start.append(start)
        self.end.append(end)
        self.parent.append(parent)
        self.op_id.append(op_id)
        self.kind.append(kind)
        return len(self.kind) - 1

    def open_op(self, name: str) -> int:
        """Start an op span; calls recorded until close_op are its children."""
        self._op_count += 1
        self._op_index = self._append(self._id(name), perf_counter_ns(), 0, -1, self._op_count, OP)
        return self.start[self._op_index]

    def close_op(self) -> int:
        end = perf_counter_ns()
        self.end[self._op_index] = end
        return end

    def record(self, name: str, start: int, end: int, kind: int = CALL) -> None:
        self._append(self._id(name), start, end, self._op_index, self._op_count, kind)

    def wrap(self, name: str, fn, kind: int = CALL):
        """fn with a span around every call."""
        name_id = self._id(name)

        def traced(*args, **kwargs):
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                self._append(name_id, start, perf_counter_ns(), self._op_index,
                             self._op_count, kind)

        return traced

    def _columns(self):
        ids = np.array(self.name_id)
        return ids, np.array(self.end) - np.array(self.start), np.array(self.kind)

    def call_metrics(self, names) -> dict[str, tuple[float, str]]:
        """<name>.us (median) and <name>.calls for each named call."""
        ids, duration, _ = self._columns()
        out = {}
        for name in names:
            us = duration[ids == self._ids.get(name, -1)] / 1e3
            out[f"{name}.us"] = (float(np.median(us)) if len(us) else float("nan"), "us")
            out[f"{name}.calls"] = (len(us), "count")
        return out

    def module_shares(self) -> dict[str, tuple[float, str]]:
        """Per library module: its calls' time as a share of library op time."""
        ids, duration, kind = self._columns()
        lib_ops = [i for name, i in self._ids.items() if name.startswith("op.lib")]
        op_total = duration[(kind == OP) & np.isin(ids, lib_ops)].sum()
        module = np.array([name.split(".", 1)[0] for name in self.names])[ids]
        return {f"{m}.share": (duration[(kind == CALL) & (module == m)].sum() / op_total
                               if op_total else float("nan"), "ratio")
                for m in LIBRARY_MODULES}

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path, names=np.array(self.names), name_id=np.array(self.name_id),
            start_ns=np.array(self.start), end_ns=np.array(self.end),
            parent=np.array(self.parent), op_id=np.array(self.op_id), kind=np.array(self.kind))
