"""Spans around the library's public functions, installed from outside.

:meth:`Tracer.install` replaces every public function of the traced
``leibcrit`` modules by a wrapper, on each name under which a loaded
``leibcrit`` module (the package included) holds it, so calls between
modules are traced too.  :meth:`Tracer.uninstall` puts the originals back.
Untraced runs never install anything.

Each span records its layer name (``module.function``) and the dimension
n of the algebra it works on.  Aggregates are kept in memory per
``(name, n)``: calls, total time and self time (total minus the time its
child spans cover).  Two spans also record the peak of memory allocated
inside them, through ``tracemalloc`` switched on only while they run.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import sys
import tracemalloc
from time import perf_counter

TRACED_MODULES = (
    "bracket", "linalg", "moment", "structure", "flow",
    "extensions", "catalog", "fileio", "cli",
)
PEAK_SPANS = ("linalg.derivation_space", "moment.criticality_decompose")
SOLVE_SPANS = ("linalg.derivation_space", "moment.hermitian_derivations")
ROOT = "bench.op"


def _dim_of(x) -> int | None:
    dim = getattr(x, "dim", None)  # Bracket
    if isinstance(dim, int):
        return dim
    shape = getattr(x, "shape", None)  # matrices
    if shape is not None and len(shape) == 2:
        return int(shape[0])
    core = getattr(x, "core", None)  # ExtensionSpec: the dimension it builds
    if core is not None:
        return core.dim + x.d1
    return None


class Tracer:
    def __init__(self) -> None:
        self.stack: list[list] = []  # [name, start, child_time, n, largest child n]
        self.agg: dict[tuple[str, int], list[float]] = {}
        self.edges: dict[tuple[str, str], int] = {}
        self.peak_mb: dict[tuple[str, int], float] = {}
        self.steps = 0  # descent steps returned by flow.descend
        self.solve_s = 0.0  # time under the outermost derivation-solve span
        self._solve_depth = 0
        self._mem: list[list[float]] = []  # [base, carried peak] per open peak span
        self._saved: list[tuple[object, str, object]] = []
        self.self_s = 0.0  # sum of the self times of the library spans closed so far
        self.root_self_s = 0.0  # time of the ROOT spans outside every library span

    # -- recording ---------------------------------------------------------

    def _enter(self, name: str, n: int | None) -> list:
        frame = [name, 0.0, 0.0, n, 0]
        self.stack.append(frame)
        if name in SOLVE_SPANS:
            self._solve_depth += 1
        frame[1] = perf_counter()
        return frame

    def _exit(self, frame: list, result) -> None:
        end = perf_counter()
        name, start, child, n, child_n = frame
        self.stack.pop()
        total = end - start
        if n is None:
            # no algebra among the arguments: take the one returned, else
            # the largest one a child span worked on
            if isinstance(result, tuple) and result:
                n = _dim_of(result[0])
            n = frame[3] = n if n is not None else child_n
        if self.stack:
            parent = self.stack[-1]
            parent[2] += total
            if parent[4] < n:
                parent[4] = n
            key = (parent[0], name)
            self.edges[key] = self.edges.get(key, 0) + 1
        a = self.agg.get((name, n))
        if a is None:
            a = self.agg[(name, n)] = [0, 0.0, 0.0]
        a[0] += 1
        a[1] += total
        a[2] += total - child
        if name == ROOT:
            self.root_self_s += total - child
        else:
            self.self_s += total - child
        if name in SOLVE_SPANS:
            self._solve_depth -= 1
            if self._solve_depth == 0:
                self.solve_s += total
        if name == "flow.descend" and result is not None:
            self.steps += result.iterations

    def wrap(self, name: str, fn):
        enter, exit_ = self._enter, self._exit
        if name in PEAK_SPANS:
            return self._wrap_peak(name, fn)

        def traced(*args, **kwargs):
            frame = enter(name, _dim_of(args[0]) if args else None)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                exit_(frame, result)

        traced.__wrapped__ = fn
        return traced

    def _wrap_peak(self, name: str, fn):
        def traced(*args, **kwargs):
            mem = self._mem
            started = not tracemalloc.is_tracing()
            if started:
                tracemalloc.start()
            cur, peak = tracemalloc.get_traced_memory()
            if mem:
                mem[-1][1] = max(mem[-1][1], peak)
            tracemalloc.reset_peak()
            mem.append([cur, cur])
            frame = self._enter(name, _dim_of(args[0]) if args else None)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self._exit(frame, result)
                base, carried = mem.pop()
                peak = max(carried, tracemalloc.get_traced_memory()[1])
                key = (name, frame[3])
                self.peak_mb[key] = max(self.peak_mb.get(key, 0.0), (peak - base) / 2**20)
                if mem:
                    mem[-1][1] = max(mem[-1][1], peak)
                if started:
                    tracemalloc.stop()

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def span(self, name: str = ROOT, n: int | None = None):
        """A benchmark-side span, such as the root of one operation."""
        frame = self._enter(name, n)
        try:
            yield frame
        finally:
            self._exit(frame, None)

    # -- installation ------------------------------------------------------

    def install(self) -> int:
        """Wrap the public functions of the traced modules; returns the count."""
        wrappers = {}
        for short in TRACED_MODULES:
            mod = importlib.import_module(f"leibcrit.{short}")
            for attr, fn in vars(mod).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(fn)
                    and fn.__module__ == mod.__name__
                ):
                    wrappers[id(fn)] = self.wrap(f"{short}.{attr}", fn)
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "leibcrit" or modname.startswith("leibcrit.")):
                continue
            for attr, value in list(vars(mod).items()):
                w = wrappers.get(id(value))
                if w is not None and w.__wrapped__ is value:
                    self._saved.append((mod, attr, value))
                    setattr(mod, attr, w)
        return len(wrappers)

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._saved):
            setattr(mod, attr, value)
        self._saved.clear()

    # -- reading -----------------------------------------------------------

    def totals(self) -> dict[str, list[float]]:
        """[calls, total_s, self_s] per span name, summed over n."""
        out: dict[str, list[float]] = {}
        for (name, _n), (calls, total, self_t) in self.agg.items():
            a = out.setdefault(name, [0, 0.0, 0.0])
            a[0] += calls
            a[1] += total
            a[2] += self_t
        return out

    def snapshot(self) -> dict:
        return {
            "agg": [[name, n, *v] for (name, n), v in self.agg.items()],
            "edges": [[p, c, k] for (p, c), k in self.edges.items()],
            "peak_mb": [[name, n, v] for (name, n), v in self.peak_mb.items()],
            "steps": self.steps,
            "solve_s": self.solve_s,
            "self_s": self.self_s,
            "root_self_s": self.root_self_s,
        }

    def merge(self, snap: dict) -> None:
        """Add a snapshot taken in another process."""
        for name, n, calls, total, self_t in snap["agg"]:
            a = self.agg.setdefault((name, n), [0, 0.0, 0.0])
            a[0] += calls
            a[1] += total
            a[2] += self_t
        for p, c, k in snap["edges"]:
            self.edges[(p, c)] = self.edges.get((p, c), 0) + k
        for name, n, v in snap["peak_mb"]:
            self.peak_mb[(name, n)] = max(self.peak_mb.get((name, n), 0.0), v)
        self.steps += snap["steps"]
        self.solve_s += snap["solve_s"]
        self.self_s += snap["self_s"]
        self.root_self_s += snap["root_self_s"]

