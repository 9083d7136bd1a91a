"""Span tracer that wraps doorlab's layer functions from the outside.

A traced run replaces each layer function listed in ``layer_targets`` with a
wrapper that records one span per call: name, start, end and the span that
caused it.  doorlab modules bind each other's functions with
``from .x import f``, so a function is replaced in every loaded doorlab
module that holds it, not only in the module that defines it.  Spans are
kept in flat in-memory arrays and written out when the run ends.

Self time of a span is its duration minus the part of its interval that its
child spans cover.  A child span started on a worker thread of the raw-scan
thread pool has no parent on its own thread; it is attributed to the span
open on the thread that created the tracer, which is the one that waits on
the pool.
"""

from __future__ import annotations

import contextlib
import inspect
import itertools
import sys
import threading
from array import array
from collections import defaultdict
from pathlib import Path
from time import perf_counter


def _count_true(tracer: "Tracer", key: str, result) -> None:
    tracer.counts[key + "_true"] += bool(result)


def _count_closure(tracer: "Tracer", key: str, result) -> None:
    tracer.counts[key + "_nodes"] += result[1]


def _count_raw_scan(tracer: "Tracer", key: str, result) -> None:
    tracer.counts[key + "_candidates"] += result[1]
    tracer.counts[key + "_found"] += len(result[0])


def _count_solutions(tracer: "Tracer", key: str, result) -> None:
    tracer.counts[key + "_found"] += len(result)


def layer_targets() -> dict[tuple[str, str], tuple[str, object]]:
    """(module, function) -> (span name, optional result hook).

    ``filters`` and ``classify`` are traced whole, every public function;
    the other layers at the functions the per-layer metrics name, plus
    ``enumerate_topologies``, whose self time is the sorting and wrapping of
    the enumerated families.  The two private enumeration routes of
    ``search`` are wrapped because their return values carry the scan
    counts that ``EnumerationReport`` keeps.
    """
    targets: dict[tuple[str, str], tuple[str, object]] = {
        ("doorlab.topology", "space_report"): ("topology.space_report", None),
        ("doorlab.topology", "is_topology_bits"): ("topology.is_topology_bits", None),
        ("doorlab.topology", "occ_satisfied"): ("topology.occ_satisfied", None),
        ("doorlab.topology", "validate_topology"): ("topology.validate_topology", None),
        ("doorlab.topology", "lemma1_check"): ("topology.lemma1_check", None),
        ("doorlab.valuations", "valuation_on_algebra"):
            ("valuations.valuation_on_algebra", _count_true),
        ("doorlab.valuations", "satisfies_valuation"): ("valuations.satisfies_valuation", None),
        ("doorlab.valuations", "check_inclusion_exclusion3"): ("valuations.ie3", None),
        ("doorlab.valuations", "modular_compose"): ("valuations.modular_compose", None),
        ("doorlab.search", "enumerate_topologies"): ("search.enumerate_topologies", None),
        ("doorlab.search", "_closure_dfs"): ("search.closure_dfs", _count_closure),
        ("doorlab.search", "_raw_scan"): ("search.raw_scan", _count_raw_scan),
        ("doorlab.search", "enumerate_solutions"):
            ("search.enumerate_solutions", _count_solutions),
        ("doorlab.search", "counts_report"): ("search.counts_report", None),
    }
    for layer in ("filters", "classify"):
        mod = sys.modules[f"doorlab.{layer}"]
        for name, fn in vars(mod).items():
            if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                    and not name.startswith("_")):
                targets[(mod.__name__, name)] = (f"{layer}.{name}", None)
    return targets


def _union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of (start, end) intervals, sorted by start and
    clipped to [lo, hi]."""
    total = 0.0
    cur_s = cur_e = None
    for s, e in intervals:
        s, e = max(s, lo), min(e, hi)
        if e <= s:
            continue
        if cur_e is not None and s <= cur_e:
            cur_e = max(cur_e, e)
            continue
        if cur_e is not None:
            total += cur_e - cur_s
        cur_s, cur_e = s, e
    if cur_e is not None:
        total += cur_e - cur_s
    return total


class Tracer:
    """Collects spans in memory; ``installed()`` patches the layer functions
    for the duration of a ``with`` block."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack = self._stack()
        self.t0 = perf_counter()
        self.sid = array("q")
        self.name = array("q")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[str, int] = defaultdict(int)

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self) -> tuple[int, int]:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._main_stack[-1] if self._main_stack else -1
        sid = next(self._ids)
        stack.append(sid)
        return sid, parent

    def _close(self, sid: int, name_id: int, parent: int, t0: float, t1: float) -> None:
        self._stack().pop()
        with self._lock:
            self.sid.append(sid)
            self.name.append(name_id)
            self.parent.append(parent)
            self.start.append(t0)
            self.end.append(t1)

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark's own code around a phase."""
        name_id = self._name_id(name)
        sid, parent = self._open()
        t0 = perf_counter()
        try:
            yield
        finally:
            self._close(sid, name_id, parent, t0, perf_counter())

    def _wrap(self, name: str, fn, hook):
        name_id = self._name_id(name)
        tracer = self

        def traced(*args, **kwargs):
            sid, parent = tracer._open()
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(sid, name_id, parent, t0, perf_counter())
            if hook is not None:
                hook(tracer, name, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def installed(self):
        modules = [m for key, m in list(sys.modules.items())
                   if key == "doorlab" or key.startswith("doorlab.")]
        undo = []
        try:
            for (mod_name, attr), (name, hook) in layer_targets().items():
                original = getattr(sys.modules[mod_name], attr)
                wrapper = self._wrap(name, original, hook)
                for mod in modules:
                    for key in [k for k, v in vars(mod).items() if v is original]:
                        setattr(mod, key, wrapper)
                        undo.append((mod, key, original))
            yield self
        finally:
            for mod, key, original in reversed(undo):
                setattr(mod, key, original)

    def summary(self) -> dict[str, dict]:
        """name -> {"calls", "total_s", "self_s"} over every recorded span."""
        n = len(self.sid)
        pos = {self.sid[i]: i for i in range(n)}
        covered = [0.0] * n
        order = sorted(range(n), key=lambda i: (self.parent[i], self.start[i]))
        for parent, children in itertools.groupby(order, key=self.parent.__getitem__):
            if parent in pos:
                k = pos[parent]
                covered[k] = _union_length(
                    ((self.start[c], self.end[c]) for c in children),
                    self.start[k], self.end[k])
        out: dict[str, dict] = {}
        for i in range(n):
            name = self.names[self.name[i]]
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            dur = self.end[i] - self.start[i]
            row["calls"] += 1
            row["total_s"] += dur
            row["self_s"] += dur - covered[i]
        return out

    def write(self, path: Path) -> None:
        """One span a line: id, name, start, end (seconds from the tracer's
        creation) and parent id (-1 for none)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            fh.write("id\tname\tstart_s\tend_s\tparent\n")
            names, t0 = self.names, self.t0
            for i in range(len(self.sid)):
                fh.write(f"{self.sid[i]}\t{names[self.name[i]]}\t"
                         f"{self.start[i] - t0:.9f}\t{self.end[i] - t0:.9f}\t"
                         f"{self.parent[i]}\n")


class NullTracer:
    """Stands in for ``Tracer`` in untraced runs: spans cost nothing."""

    @staticmethod
    def span(name: str):
        return contextlib.nullcontext()
