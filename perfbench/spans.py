"""Per-layer tracing from outside the library.

`Tracer.install()` replaces, in every loaded `hadamard_powers` module, each
binding of a public function of `graphs`, `chordal`, `cones` and
`exponents`, plus `cli.main`, `numpy.linalg.eigvalsh`/`eigh` and the
`scipy.optimize.minimize` that `exponents` imported, with a wrapper that
records a span: name, start, end, parent span and op id. Spans stay in
memory (flat arrays) until `save`. No library code changes.
"""

from __future__ import annotations

import math
import sys
import time
from array import array

import numpy as np

LAYER_MODULES = ("graphs", "chordal", "cones", "exponents")


class Tracer:
    def __init__(self):
        self.names = []
        self.name_id = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = []
        self.op = -1
        self.linalg_matrices = 0
        self.linalg_flops = 0
        self.nfev = 0
        self.samples_in_search = 0
        self.enumerated_graphs = set()
        self._searching = 0
        self._patched = []

    # -- recording ----------------------------------------------------------

    def _wrap(self, name, fn, after=None):
        nid = self.name_id.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        clock = time.perf_counter
        stack = self.stack

        def traced(*args, **kwargs):
            idx = len(self.start)
            self.span_name.append(nid)
            self.span_parent.append(stack[-1] if stack else -1)
            self.span_op.append(self.op)
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _count_linalg(self, args, _result):
        shape = np.shape(args[0])
        n = shape[-1] if shape else 0
        batch = math.prod(shape[:-2])
        self.linalg_matrices += batch
        self.linalg_flops += batch * n ** 3

    def _count_minimize(self, _args, result):
        self.nfev += int(getattr(result, "nfev", 0))

    def _count_sample(self, _args, _result):
        self.samples_in_search += self._searching > 0

    def _note_graph(self, args, _result):
        self.enumerated_graphs.add(args[0])

    def _search(self, fn):
        def searching(*args, **kwargs):
            self._searching += 1
            try:
                return fn(*args, **kwargs)
            finally:
                self._searching -= 1
        return searching

    # -- installation -------------------------------------------------------

    def install(self):
        import numpy.linalg
        import hadamard_powers.cli as cli
        import hadamard_powers.exponents as exponents

        after = {"cones.random_psd_for_graph": self._count_sample,
                 "chordal.maximal_cliques_chordal": self._note_graph,
                 "chordal.maximal_cliques_general": self._note_graph}
        wrappers = {}
        for short in LAYER_MODULES:
            mod = sys.modules[f"hadamard_powers.{short}"]
            for attr, fn in vars(mod).items():
                if (attr.startswith("_") or isinstance(fn, type) or not callable(fn)
                        or getattr(fn, "__module__", None) != mod.__name__):
                    continue
                name = f"{short}.{attr}"
                wrapped = self._wrap(name, fn, after.get(name))
                if name == "exponents.find_counterexample":
                    wrapped = self._search(wrapped)
                wrappers[id(fn)] = (fn, wrapped)
        wrappers[id(cli.main)] = (cli.main, self._wrap("cli.main", cli.main))
        for mod in [m for k, m in sys.modules.items() if k.startswith("hadamard_powers")]:
            for attr, fn in list(vars(mod).items()):
                if id(fn) in wrappers and wrappers[id(fn)][0] is fn:
                    self._patch(mod, attr, wrappers[id(fn)][1])
        for attr in ("eigvalsh", "eigh"):
            fn = getattr(numpy.linalg, attr)
            self._patch(numpy.linalg, attr,
                        self._wrap(f"linalg.{attr}", fn, self._count_linalg))
        self._patch(exponents, "minimize",
                    self._wrap("scipy.minimize", exponents.minimize, self._count_minimize))

    def _patch(self, obj, attr, value):
        self._patched.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def uninstall(self):
        for obj, attr, value in reversed(self._patched):
            setattr(obj, attr, value)
        self._patched.clear()

    # -- summaries ----------------------------------------------------------

    def self_times(self):
        """Per span name: (calls, self seconds), self = duration minus the
        durations of direct child spans."""
        names = np.frombuffer(self.span_name, dtype=np.int32)
        parents = np.frombuffer(self.span_parent, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        child = np.zeros_like(dur)
        has_parent = parents >= 0
        np.add.at(child, parents[has_parent], dur[has_parent])
        own = dur - child
        calls = np.bincount(names, minlength=len(self.names))
        self_s = np.bincount(names, weights=own, minlength=len(self.names))
        return {nm: (int(calls[i]), float(self_s[i])) for i, nm in enumerate(self.names)}

    def summary(self):
        """Every counted layer figure, keyed by metric name."""
        out = {}
        for nm, (calls, self_s) in self.self_times().items():
            out[f"{nm}.calls"] = calls
            out[f"{nm}.self_s"] = self_s
        searches = out.get("exponents.find_counterexample.calls", 0)
        enumerations = (out.get("chordal.maximal_cliques_chordal.calls", 0)
                        + out.get("chordal.maximal_cliques_general.calls", 0))
        out.update({
            "linalg.matrices": self.linalg_matrices,
            "linalg.flops_computed": self.linalg_flops,
            "scipy.minimize.nfev": self.nfev,
            "exponents.samples_per_search": (self.samples_in_search / searches
                                             if searches else 0.0),
            "chordal.enumerations_per_graph": (enumerations / len(self.enumerated_graphs)
                                               if self.enumerated_graphs else 0.0),
            "trace.spans": len(self.start),
        })
        return out

    def save(self, path):
        """Write every span to an .npz file: names, and per span its name
        index, parent span index (-1 for none), op id, start and end."""
        np.savez(path, names=np.array(self.names),
                 name=np.frombuffer(self.span_name, dtype=np.int32),
                 parent=np.frombuffer(self.span_parent, dtype=np.int32),
                 op=np.frombuffer(self.span_op, dtype=np.int32),
                 start=np.frombuffer(self.start), end=np.frombuffer(self.end))


def span_cost(n=100_000):
    """Seconds one traced call adds, measured on a no-op function behind the
    costliest wrapper (the eigensolver one, which also counts matrices).
    Times the span count, this bounds the tracing overhead of a pass from
    above."""
    def noop(_m):
        return None

    tracer = Tracer()
    traced = tracer._wrap("noop", noop, tracer._count_linalg)
    m = np.eye(8)
    t0 = time.perf_counter()
    for _ in range(n):
        noop(m)
    t1 = time.perf_counter()
    for _ in range(n):
        traced(m)
    t2 = time.perf_counter()
    return max(0.0, (t2 - t1) - (t1 - t0)) / n
