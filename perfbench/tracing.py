"""Span tracing around the public functions of the qcopula modules.

The program is not edited: ``install`` replaces every binding of a public
qcopula function, in every qcopula module namespace, by a timing wrapper
and puts the originals back on ``uninstall``. A span is (name, start, end,
parent, operation id); self time is a span's duration minus the time of
the wrapped spans it directly contains.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array

MODULES = ("copula", "choi", "pmetric", "states", "matcore", "sinkhorn", "jsonio", "cli")
OP_SPAN = "bench.op"
SPAN_FIELDS = ("index", "parent", "name_id", "op_id", "start", "end")


class Tracer:
    """In-memory span store plus per-name call counts and self times."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.keep_spans = True
        # Flat span records, SPAN_FIELDS values per span, in closing order.
        self.span_data = array("d")
        self.fixed_point_iterations: list[int] = []
        self.not_converged = 0
        self.sinkhorn_iterations: list[int] = []
        self._stack: list[list] = []
        self._next_index = 0
        self._op = -1

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
        return nid

    def reset_totals(self) -> None:
        """Zero the counts, self times and return-value counters; spans
        already kept stay."""
        self.calls[:] = [0] * len(self.names)
        self.self_s[:] = [0.0] * len(self.names)
        self.fixed_point_iterations = []
        self.not_converged = 0
        self.sinkhorn_iterations = []

    def wrap(self, fn, name: str, on_return=None):
        """``fn`` inside a span named ``name``. The body is inlined: it runs
        on every call of every wrapped function, and its cost is the
        tracing overhead."""
        nid = self.name_id(name)
        stack = self._stack
        calls, self_s = self.calls, self.self_s
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = tracer._next_index
            tracer._next_index = index + 1
            entry = [index, stack[-1][0] if stack else -1, 0.0, clock()]
            stack.append(entry)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - entry[3]
                calls[nid] += 1
                self_s[nid] += duration - entry[2]
                if stack:
                    stack[-1][2] += duration
                if tracer.keep_spans:
                    tracer.span_data.extend((index, entry[1], nid, tracer._op, entry[3], end))
            if on_return is not None:
                on_return(result)
            return result

        return wrapper

    def run_op(self, op_id: int, fn):
        """Call ``fn()`` inside an operation span; its self time is the part
        of the operation that no wrapped function covers."""
        self._op = op_id
        try:
            return self.wrap(fn, OP_SPAN)()
        finally:
            self._op = -1

    def _record_fixed_point(self, report) -> None:
        self.fixed_point_iterations.append(int(report.iterations))
        self.not_converged += 0 if report.converged else 1

    def _record_sinkhorn(self, pair) -> None:
        self.sinkhorn_iterations.append(int(pair.iterations))


class Installation:
    """The bindings ``install`` replaced, and the code objects it wraps."""

    def __init__(self):
        self.patches: list[tuple[object, str, object]] = []
        self.code_names: dict = {}

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self.patches):
            setattr(owner, attr, original)
        self.patches.clear()


def public_functions(module) -> list[tuple[str, object]]:
    """Public functions defined in ``module`` itself, in definition order."""
    return [
        (attr, obj)
        for attr, obj in vars(module).items()
        if not attr.startswith("_")
        and inspect.isfunction(obj)
        and obj.__module__ == module.__name__
    ]


def install(tracer: Tracer) -> Installation:
    """Wrap every public function of ``MODULES`` plus DensityMatrix
    construction, rebinding each wrapped function in every qcopula
    namespace that holds it."""
    inst = Installation()
    wrappers: dict[int, tuple[object, object]] = {}
    for short in MODULES:
        module = importlib.import_module(f"qcopula.{short}")
        for attr, fn in public_functions(module):
            on_return = None
            if (short, attr) == ("copula", "fixed_point_iterate"):
                on_return = tracer._record_fixed_point
            elif (short, attr) == ("sinkhorn", "sinkhorn_scale"):
                on_return = tracer._record_sinkhorn
            name = f"{short}.{attr}"
            wrappers[id(fn)] = (fn, tracer.wrap(fn, name, on_return))
            inst.code_names[fn.__code__] = name
    namespaces = [
        mod
        for key, mod in sorted(sys.modules.items())
        if mod is not None and (key == "qcopula" or key.startswith("qcopula."))
    ]
    for ns in namespaces:
        for attr, obj in list(vars(ns).items()):
            hit = wrappers.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(ns, attr, hit[1])
                inst.patches.append((ns, attr, obj))
    dm = importlib.import_module("qcopula.states").DensityMatrix
    init = dm.__init__
    dm.__init__ = tracer.wrap(init, "states.DensityMatrix")
    inst.patches.append((dm, "__init__", init))
    inst.code_names[init.__code__] = "states.DensityMatrix"
    return inst
