"""Spans around calls into the program's public functions, recorded from the
benchmark's own files.

A wrapper is installed under the name the caller looks the function up by:
`density.log_tricomi_u` for the density series, `stein.sample_diff` and
`stein.ncx2diff_pdf` for the Stein harness, the module attribute itself for
the benchmark's direct calls. Each span records its name, start, end and the
span open around it. Spans are kept in memory and written once, when the run
ends. A layer's self time is its spans' time minus their children's time.

Untraced runs install no wrapper.
"""

from __future__ import annotations

import time
from array import array

import numpy as np


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.value = array("d")  # terms used or draws; -1 for a failed call
        self.counts: dict[str, int] = {}
        self._open: list[int] = []
        self._installed: list[tuple] = []

    # -- recording ----------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span(self, name: str, fn, *args, value=None, **kwargs):
        """Call fn(*args, **kwargs) inside a span; value(result) is stored with it."""
        idx = len(self.start)
        self.name.append(self._id(name))
        self.parent.append(self._open[-1] if self._open else -1)
        self.value.append(0.0)
        self.end.append(0.0)
        self._open.append(idx)
        self.start.append(time.perf_counter())
        try:
            out = fn(*args, **kwargs)
        except Exception:
            self.value[idx] = -1.0
            raise
        finally:
            self.end[idx] = time.perf_counter()
            self._open.pop()
        if value is not None:
            self.value[idx] = float(value(out))
        return out

    # -- wrappers -----------------------------------------------------------

    def wrap(self, module, attr: str, name: str, value=None):
        """Replace module.attr by a spanning wrapper until uninstall()."""
        orig = getattr(module, attr)

        def wrapper(*args, **kwargs):
            return self.span(name, orig, *args, value=value, **kwargs)

        self._installed.append((module, attr, orig))
        setattr(module, attr, wrapper)

    def count(self, module, attr: str, name: str):
        """Replace module.attr by a counting wrapper (no span: it is called
        thousands of times per density point)."""
        orig = getattr(module, attr)
        self.counts.setdefault(name, 0)

        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return orig(*args, **kwargs)

        self._installed.append((module, attr, orig))
        setattr(module, attr, wrapper)

    def uninstall(self):
        for module, attr, orig in reversed(self._installed):
            setattr(module, attr, orig)
        self._installed.clear()

    # -- analysis -----------------------------------------------------------

    def arrays(self) -> dict:
        return {"name": np.frombuffer(self.name, dtype=np.int32),
                "start": np.frombuffer(self.start, dtype=np.float64),
                "end": np.frombuffer(self.end, dtype=np.float64),
                "parent": np.frombuffer(self.parent, dtype=np.int32),
                "value": np.frombuffer(self.value, dtype=np.float64)}

    def save(self, path):
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


class SpanTable:
    """Queries over a finished trace."""

    def __init__(self, tracer: Tracer):
        a = tracer.arrays()
        self.names = tracer.names
        self.counts = dict(tracer.counts)
        self.name, self.parent, self.value = a["name"], a["parent"], a["value"]
        self.dur = a["end"] - a["start"]
        child = np.zeros_like(self.dur)
        has = self.parent >= 0
        np.add.at(child, self.parent[has], self.dur[has])
        self.self_time = self.dur - child

    def mask(self, name: str) -> np.ndarray:
        if name not in self.names:
            return np.zeros(len(self.dur), dtype=bool)
        return self.name == self.names.index(name)

    def under(self, name: str) -> np.ndarray:
        """Spans with an ancestor called name."""
        target = self.names.index(name) if name in self.names else -2
        out = np.zeros(len(self.dur), dtype=bool)
        anc = self.parent.copy()
        while (anc >= 0).any():
            live = anc >= 0
            out[live] |= self.name[anc[live]] == target
            anc[live] = self.parent[anc[live]]
        return out
