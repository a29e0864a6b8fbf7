"""In-memory span tracer for the benchmark's traced run.

The tracer wraps the public functions (each module's ``__all__``) of every
loaded ``entdist`` module, and rebinds every module attribute that refers
to one of them: ``chain``, ``hybrid`` and ``efficiency`` each hold their
own ``from .decoder import eval_qec_map``, so patching ``decoder`` alone
would miss most calls.  Nothing inside the package is edited.

Each call of an ordinary public function records one span: a name id, a
parent span index, a start and an end, kept in flat arrays, so the
~175,000 spans of a traced ``repro`` cost a few megabytes.  Functions in
``HOT`` are called up to a million times per run; they only count calls,
attributed to the innermost open span, so that a layer above them can
report how much inner work it caused.  Self time is a span's duration
minus the durations of its direct children (spans never overlap because
the benchmark drives the program from a single thread).
"""

from __future__ import annotations

import os
import sys
import time
from array import array

import numpy as np

# Called per row cell, per purification round or per Pauli product:
# counted, never timed.
HOT = frozenset(
    {
        "_output.format_cell",
        "purify.purify_step",
        "purify.twirl",
        "pauli.multiply",
        "pauli.commutes_with",
        "pauli.weight",
        "pauli.canonical_key",
    }
)


def _points(result) -> int:
    if isinstance(result, list):
        return len(result)
    return int(np.size(result))


def _write_table_tally(args, kwargs, result):
    path = kwargs.get("path", args[0] if args else None)
    rows = kwargs.get("rows", args[2] if len(args) > 2 else ())
    return {"rows": len(rows), "bytes": os.path.getsize(path)}


# Per-call tallies beyond the call count, keyed by layer name.
TALLIES = {
    "decoder.eval_qec_map": lambda a, k, r: {"points": _points(r)},
    "werner.distillable_entanglement": lambda a, k, r: {"points": _points(r)},
    "chain.run_chain": lambda a, k, r: {"points": _points(r)},
    "hybrid.checkpoint_scan": lambda a, k, r: {"points": _points(r)},
    "_output.write_table": _write_table_tally,
}


def _public_functions(module):
    for attr in getattr(module, "__all__", ()):
        obj = getattr(module, attr, None)
        if callable(obj) and not isinstance(obj, type):
            yield attr, obj


class Tracer:
    """Collects spans and hot-call counts while installed."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.tallies: dict[tuple[str, str], int] = {}
        # hot layer -> {innermost open span index (-1: none): calls}
        self.hot: dict[str, dict[int, int]] = {}
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- installing -------------------------------------------------------

    def install(self) -> None:
        """Wrap every public function of every loaded ``entdist`` module."""
        modules = [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "entdist"]
        wrappers = {}
        for module in modules:
            short = module.__name__.rsplit(".", 1)[-1]
            if short == "entdist":
                continue  # the package only re-exports pauli
            for attr, fn in _public_functions(module):
                layer = f"{short}.{attr}"
                wrappers[id(fn)] = self._counter(layer, fn) if layer in HOT else self._span(layer, fn)
        for module in modules:
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def _name_id(self, layer: str) -> int:
        if layer not in self._name_ids:
            self._name_ids[layer] = len(self.names)
            self.names.append(layer)
        return self._name_ids[layer]

    def _span(self, layer, fn):
        nid = self._name_id(layer)
        tally = TALLIES.get(layer)
        stack, names, parents = self._stack, self.span_name, self.span_parent
        starts, ends, clock = self.span_start, self.span_end, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if tally is not None:
                for key, value in tally(args, kwargs, result).items():
                    self.tallies[(layer, key)] = self.tallies.get((layer, key), 0) + value
            return result

        traced.__wrapped__ = fn
        return traced

    def _counter(self, layer, fn):
        counts = self.hot.setdefault(layer, {})
        stack = self._stack

        def counted(*args, **kwargs):
            key = stack[-1] if stack else -1
            counts[key] = counts.get(key, 0) + 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def root(self, label: str):
        """Context manager opening a span that is not a program call
        (``setup``, ``pass``), so program spans nest under it."""
        return _Root(self, label)

    # -- reading ----------------------------------------------------------

    def span_count(self) -> int:
        return len(self.span_start)

    def layer_totals(self, first: int = 0, last: int | None = None):
        """Per layer: calls, inclusive and self seconds over spans
        ``first..last-1`` (a contiguous block such as one root span and
        everything under it)."""
        last = self.span_count() if last is None else last
        starts = np.frombuffer(self.span_start, dtype=np.float64)[first:last]
        ends = np.frombuffer(self.span_end, dtype=np.float64)[first:last]
        name = np.frombuffer(self.span_name, dtype=np.int32)[first:last]
        parent = np.frombuffer(self.span_parent, dtype=np.int32)[first:last].astype(np.int64) - first
        dur = ends - starts
        covered = np.zeros(len(dur))
        inside = parent >= 0
        np.add.at(covered, parent[inside], dur[inside])
        self_s = dur - covered
        n_names = len(self.names)
        calls = np.bincount(name, minlength=n_names)
        incl = np.bincount(name, weights=dur, minlength=n_names)
        excl = np.bincount(name, weights=self_s, minlength=n_names)
        return {
            self.names[i]: {"calls": int(calls[i]), "incl_s": float(incl[i]), "self_s": float(excl[i])}
            for i in range(n_names)
            if calls[i]
        }

    def hot_calls(self, layer: str, under: str | None = None) -> int:
        """Calls of a hot layer, optionally only those made while a span
        of layer ``under`` was open."""
        counts = self.hot.get(layer, {})
        if under is None:
            return sum(counts.values())
        target = self._name_ids.get(under)
        total = 0
        for span, calls in counts.items():
            while span >= 0:
                if self.span_name[span] == target:
                    total += calls
                    break
                span = self.span_parent[span]
        return total


class _Root:
    def __init__(self, tracer: Tracer, label: str):
        self.tracer = tracer
        self.label = label

    def __enter__(self):
        t = self.tracer
        self.index = len(t.span_start)
        t.span_name.append(t._name_id(self.label))
        t.span_parent.append(t._stack[-1] if t._stack else -1)
        t.span_end.append(0.0)
        t._stack.append(self.index)
        t.span_start.append(time.perf_counter())
        return self

    def __exit__(self, *exc):
        t = self.tracer
        t.span_end[self.index] = time.perf_counter()
        t._stack.pop()
        self.end_index = len(t.span_start)
        return False

    @property
    def seconds(self) -> float:
        return self.tracer.span_end[self.index] - self.tracer.span_start[self.index]
