"""Outside-in tracer for the blochmap package.

Every public function of every ``blochmap.*`` module is replaced, by object
identity, in every ``blochmap.*`` namespace that holds it.  Consumers import
names directly (``from .mapping import lambda_set``), and Python resolves a
module global at call time, so patching each namespace catches calls made
inside the package as well as calls from the benchmark.  The tracer also
wraps ``HarmonicMapping.__call__`` (reported as ``mapping.f_eval``) and the
``evaluate`` callback handed to ``compass_maximize`` (reported as
``optimize.compass_maximize.objective``).

Aggregates (calls, total and self time, per-function counters) are exact for
the whole run.  Raw spans are kept in memory up to ``span_cap`` and written as
JSON lines when the run ends; spans beyond the cap are counted, not kept.
"""

from __future__ import annotations

import inspect
import io
from collections import Counter, defaultdict
import json
import os
import sys
import time

import numpy as np

from probe import INIT_BYTES, STEP_BYTES

F_EVAL = "mapping.f_eval"
OBJECTIVE = "optimize.compass_maximize.objective"
COMPASS = "optimize.compass_maximize"


class FunctionStats:
    __slots__ = ("calls", "total_s", "self_s", "counters")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.counters: dict[str, float] = {}

    def add(self, key, value):
        self.counters[key] = self.counters.get(key, 0) + value


class Tracer:
    """Span recorder; ``install`` patches the package, ``uninstall`` restores it."""

    def __init__(self, span_cap: int = 50_000):
        self.span_cap = span_cap
        self.stats: dict[str, FunctionStats] = defaultdict(FunctionStats)
        self.edges: Counter[tuple[str, str]] = Counter()  # (parent, child) span counts
        self.spans: list[tuple] = []
        self.spans_dropped = 0
        self.task_id = -1
        self._stack: list[list] = []  # [span_id, name, child_seconds]
        self._next_id = 0
        self._patched: list[tuple[object, str, object]] = []

    # -- span bookkeeping -------------------------------------------------
    def _enter(self, name):
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            self.edges[parent[1], name] += 1
        self._stack.append([self._next_id, name, 0.0])
        return parent, time.perf_counter()

    def _exit(self, name, parent, start):
        end = time.perf_counter()
        span_id, _, child_s = self._stack.pop()
        duration = end - start
        st = self.stats[name]
        st.calls += 1
        st.total_s += duration
        st.self_s += duration - child_s
        if parent is not None:
            parent[2] += duration
        if len(self.spans) < self.span_cap:
            self.spans.append((span_id, parent[0] if parent else 0, self.task_id,
                               name, start, end))
        else:
            self.spans_dropped += 1
        return st

    # -- wrappers -----------------------------------------------------------
    def _wrap(self, name, fn, after=None):
        tracer = self

        def traced(*args, **kwargs):
            parent, start = tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                st = tracer._exit(name, parent, start)
            if after is not None:
                after(st, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _wrap_compass(self, fn):
        tracer = self
        signature = inspect.signature(fn)
        st = self.stats[COMPASS]

        def traced(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            evaluate = bound.arguments["evaluate"]
            rounds = 0

            def objective(z, walkers):
                nonlocal rounds
                rounds += 1
                st.add("evaluations", int(np.size(z)))
                parent, start = tracer._enter(OBJECTIVE)
                try:
                    return evaluate(z, walkers)
                finally:
                    tracer._exit(OBJECTIVE, parent, start)

            bound.arguments["evaluate"] = objective
            st.add("starts", int(np.size(bound.arguments["starts"])))
            parent, start = tracer._enter(COMPASS)
            try:
                return fn(*bound.args, **bound.kwargs)
            finally:
                tracer._exit(COMPASS, parent, start)
                # the callback runs once for the starting points, then once per iteration
                iterations = max(rounds - 1, 0)
                st.add("iterations", iterations)
                st.add("capped", int(iterations >= bound.arguments["max_iter"]))

        traced.__wrapped__ = fn
        return traced

    def _wrap_cli(self, fn):
        tracer = self

        def traced(argv=None):
            # stdout bytes come off the capture buffer the caller installed;
            # --out files are measured on disk
            out = sys.stdout
            before = out.tell() if isinstance(out, io.StringIO) else None
            parent, start = tracer._enter("cli.main")
            try:
                return fn(argv)
            finally:
                st = tracer._exit("cli.main", parent, start)
                written = 0 if before is None else out.tell() - before
                args = list(argv or [])
                if "--out" in args:
                    try:
                        written += os.path.getsize(args[args.index("--out") + 1])
                    except (OSError, IndexError):
                        pass
                st.add("output_bytes", written)

        traced.__wrapped__ = fn
        return traced

    @staticmethod
    def _polyval_after(st, args, kwargs, result):
        coefficients = args[0] if args else kwargs["coefficients"]
        k = np.shape(coefficients)[-1] if np.ndim(coefficients) else 1
        points = int(np.size(result))
        st.add("points", points)
        st.add("terms", points * (k - 1))
        # the Horner bytes model is documented in probe.py
        st.add("bytes_computed", points * (STEP_BYTES * (k - 1) + INIT_BYTES))

    @staticmethod
    def _lambda_after(st, args, kwargs, result):
        st.add("points", int(result.points.size))
        st.add("curve_like", int(result.classification.value == "CURVE_LIKE"))

    @staticmethod
    def _certificate_after(st, args, kwargs, result):
        st.add("samples", 0 if result is None else int(result.samples))

    @staticmethod
    def _verify_sharpening_after(signature):
        def after(st, args, kwargs, result):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            st.add("points", int(bound.arguments["n_radii"]) * int(bound.arguments["n_angles"]))
        return after

    # -- install ------------------------------------------------------------
    def install(self):
        import blochmap
        from blochmap import cli, disk, extremal, mapping, optimize, series, support

        modules = [series, disk, optimize, mapping, extremal, support, cli]
        replacements: dict[int, object] = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[-1]
            names = list(getattr(mod, "__all__", ())) or ["main"]
            for attr in names:
                fn = getattr(mod, attr, None)
                if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                name = f"{short}.{attr}"
                if fn is optimize.compass_maximize:
                    wrapped = self._wrap_compass(fn)
                elif fn is cli.main:
                    wrapped = self._wrap_cli(fn)
                elif fn is series.polyval_batch:
                    wrapped = self._wrap(name, fn, after=self._polyval_after)
                elif fn is mapping.lambda_set:
                    wrapped = self._wrap(name, fn, after=self._lambda_after)
                elif fn is support.support_certificate:
                    wrapped = self._wrap(name, fn, after=self._certificate_after)
                elif fn is extremal.verify_sharpening:
                    wrapped = self._wrap(name, fn, after=self._verify_sharpening_after(
                        inspect.signature(fn)))
                else:
                    wrapped = self._wrap(name, fn)
                replacements[id(fn)] = wrapped

        namespaces = [blochmap] + [m for n, m in sorted(sys.modules.items())
                                   if n.startswith("blochmap.") and m is not None]
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                wrapped = replacements.get(id(value))
                if wrapped is not None:
                    self._patched.append((ns, attr, value))
                    setattr(ns, attr, wrapped)

        call = mapping.HarmonicMapping.__call__
        self._patched.append((mapping.HarmonicMapping, "__call__", call))
        mapping.HarmonicMapping.__call__ = self._wrap(F_EVAL, call)

    def uninstall(self):
        for ns, attr, value in reversed(self._patched):
            setattr(ns, attr, value)
        self._patched.clear()

    # -- output -------------------------------------------------------------
    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent_id, task_id, name, start, end in self.spans:
                fh.write(json.dumps({"span": span_id, "parent": parent_id, "task": task_id,
                                     "name": name, "start": start, "end": end}) + "\n")

    def table(self) -> dict:
        """``{name: {calls, total_s, self_s, <counters>}}`` for every traced function."""
        out = {}
        for name, st in sorted(self.stats.items()):
            out[name] = {"calls": st.calls, "total_s": st.total_s, "self_s": st.self_s,
                         **st.counters}
        return out
