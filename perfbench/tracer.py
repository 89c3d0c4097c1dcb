"""Outside-in tracer: wraps the library's public functions from the benchmark.

Nothing under `src/` knows about it. `Tracer.install(sq)` replaces every
public function of the layer modules with a wrapper and rebinds the wrapper
at every binding site inside `sqfree` (module globals such as the names
`autos` imported from `twring`, and module-level dicts such as the CLI's
command table), and wraps the listed methods on their classes.

Two kinds of wrapper:

- timed: keeps exact per-name call counts, self time (time in the call
  minus the time of wrapped calls made from it) and total time, and records
  a span (id, parent span id, name, start, end) when the call crosses a
  layer boundary, that is when the caller is not a wrapped function of the
  same layer;
- counted: hot leaves (coefficient element and automorphism dunders,
  `SquareFreeSemigroup.mul`, `RingAut.apply`, the ring vector maps) only
  bump a counter, so their cost lands in the caller's self time.

Spans stay in memory until `write_spans` at the end of the run.
"""

import gzip
import inspect
import time
from array import array

LAYERS = ("coeff", "sgrp", "cohom", "twring", "linalg", "autos", "jsonio", "cli")

# (module, class, method) -> metric name; None keeps the default name
TIMED_METHODS = {
    ("coeff", "FiniteField", "__init__"): "coeff.FiniteField",
    ("sgrp", "SquareFreeSemigroup", "validate"): None,
    ("sgrp", "SquareFreeSemigroup", "tuples"): None,
    ("twring", "TwistedRing", "__init__"): "twring.TwistedRing",
}
_ELEM_OPS = ("__add__", "__sub__", "__neg__", "__mul__", "__truediv__", "__pow__", "inverse")
COUNTED_METHODS = {
    **{("coeff", cls, m): "coeff.elem_ops" for cls in ("FFElement", "QuatElement") for m in _ELEM_OPS},
    **{("coeff", cls, "__call__"): "coeff.aut_apply" for cls in ("FieldAutomorphism", "QuaternionAutomorphism")},
    **{("coeff", cls, "__mul__"): "coeff.aut_compose" for cls in ("FieldAutomorphism", "QuaternionAutomorphism")},
    ("sgrp", "SquareFreeSemigroup", "mul"): "sgrp.mul",
    ("autos", "RingAut", "apply"): "autos.RingAut.apply",
}
COUNTED_FUNCTIONS = {"twring.to_vector", "twring.from_vector"}


class Tracer:
    def __init__(self):
        self.calls = {}  # name -> call count, timed and counted alike
        self.self_s = {}  # name -> seconds
        self.total_s = {}  # name -> seconds
        self.tally = {}  # observer counters, e.g. "cohom.cohomologous.found"
        self.names = []
        self._ids = array("q")  # span id, parent id, name index; per span
        self._times = array("d")  # start, end; per span
        self._stack = []  # open calls: [span id or nearest recorded ancestor's, child seconds, layer]
        self._next = [1]
        self._undo = []

    # ------------------------------------------------------------ wrappers

    def _observer(self, name):
        tally = self.tally

        def bump(key, by=1):
            tally[key] = tally.get(key, 0) + by

        if name == "cohom.cohomologous":
            return lambda args, out: bump("cohom.cohomologous.found", out is not None)
        if name == "autos.check_ring_automorphism":
            return lambda args, out: bump("autos.check_ring_automorphism.ok", out.ok)
        if name == "sgrp.tuples":
            return lambda args, out: bump("sgrp.tuples.chains", len(out))
        if name in ("twring.enumerate_units", "twring.enumerate_idempotents"):

            def ring_yield(args, out):
                R = args[0]
                bump(name + ".found", len(out))
                bump(name + ".elements", R.D.q ** len(R.S.support))

            return ring_yield
        return None

    def timed(self, name, fn):
        calls, self_s, total_s = self.calls, self.self_s, self.total_s
        calls.setdefault(name, 0)
        self_s.setdefault(name, 0.0)
        total_s.setdefault(name, 0.0)
        code = len(self.names)
        self.names.append(name)
        layer = name.split(".")[0]
        ids, times, stack, nxt = self._ids, self._times, self._stack, self._next
        observe = self._observer(name)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            boundary = parent is None or parent[2] != layer
            if boundary:
                sid = nxt[0]
                nxt[0] = sid + 1
            else:
                sid = parent[0]
            frame = [sid, 0.0, layer]
            stack.append(frame)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                span = end - start
                if parent is not None:
                    parent[1] += span
                calls[name] += 1
                self_s[name] += span - frame[1]
                total_s[name] += span
                if boundary:
                    ids.extend((sid, parent[0] if parent is not None else 0, code))
                    times.extend((start, end))
            if observe is not None:
                observe(args, out)
            return out

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def counted(self, name, fn):
        calls = self.calls
        calls.setdefault(name, 0)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    # ------------------------------------------------------------- install

    def install(self, sq):
        """Wrap and rebind; `uninstall` restores every replaced binding."""
        originals = {}  # id(original) -> wrapper
        for layer in LAYERS:
            mod = getattr(sq, layer)
            for attr, fn in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                wrap = self.counted if name in COUNTED_FUNCTIONS else self.timed
                originals[id(fn)] = (fn, wrap(name, fn))
        for table, wrap in ((TIMED_METHODS, self.timed), (COUNTED_METHODS, self.counted)):
            for (layer, cls_name, meth), metric in table.items():
                cls = getattr(getattr(sq, layer), cls_name)
                fn = cls.__dict__[meth]
                if id(fn) not in originals:
                    originals[id(fn)] = (fn, wrap(metric or f"{layer}.{meth}", fn))
                for attr, value in list(vars(cls).items()):
                    if value is fn:
                        self._rebind(cls, attr, fn, originals[id(fn)][1])
        for mod in sq.all_modules:
            for attr, value in list(vars(mod).items()):
                if id(value) in originals and originals[id(value)][0] is value:
                    self._rebind(mod, attr, value, originals[id(value)][1])
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if id(item) in originals and originals[id(item)][0] is item:
                            self._undo.append((value.__setitem__, key, item))
                            value[key] = originals[id(item)][1]

    def _rebind(self, owner, attr, old, new):
        self._undo.append((lambda k, v, o=owner: setattr(o, k, v), attr, old))
        setattr(owner, attr, new)

    def uninstall(self):
        while self._undo:
            put, key, old = self._undo.pop()
            put(key, old)

    # -------------------------------------------------------------- output

    def span_count(self):
        return len(self._times) // 2

    def busy_s(self):
        """Time inside any wrapped span: the sum of all self times."""
        return sum(self.self_s.values())

    def layer_self_s(self, layer):
        return sum(v for k, v in self.self_s.items() if k.split(".")[0] == layer)

    def write_spans(self, path):
        """One tab-separated line per span: id, parent, name, start, end."""
        ids, times, names = self._ids, self._times, self.names
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id\tparent\tname\tstart_s\tend_s\n")
            for a in range(len(times) // 2):
                sid, parent, code = ids[3 * a], ids[3 * a + 1], ids[3 * a + 2]
                fh.write(f"{sid}\t{parent}\t{names[code]}\t{times[2 * a]:.9f}\t{times[2 * a + 1]:.9f}\n")
