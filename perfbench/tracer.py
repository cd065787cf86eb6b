"""Span tracer that wraps the library's public functions from outside.

``Tracer.install()`` replaces every public function of the traced modules by
a wrapper that records one span per call, and rebinds the wrapper in every
namespace that holds the original (``from .rmatrix import compose`` copies
the function into ``orbit``, ``repn``, ``reflect`` and ``suites``).  Three
methods are wrapped on their class: ``Matrix.__matmul__``, ``RMap.__init__``
and ``RMap.__add__``.  ``uninstall()`` puts every original back, so untraced
passes run the library exactly as shipped.

A span is ``[name, start, end, parent, case, outermost]``; spans stay in
memory and ``write`` dumps them as JSON lines.  Span times are read from a
clock that stops while tracer code runs (span bookkeeping and the hooks that
count operations), so no span is charged for the tracing inside it; only
the wall-time overhead reported by the runner shows that cost.  Self time is
a span's duration minus the durations of its direct children, which are
disjoint because the library is single-threaded.

``GaussQ`` arithmetic is not wrapped: a wrapper per scalar operation would
swamp the run.  Its work shows in the matmul and elimination operation
counts instead.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import sys
import time
import types
from collections import Counter, defaultdict

LAYERS = ("scalars", "linalg", "rmatrix", "repn", "orbit", "reflect", "weyl",
          "regularize", "quiver", "serialize", "cli")

# Span names that differ from "<module>.<function>".
RENAMED = {
    ("linalg", "_echelon"): "linalg.echelon",
    ("orbit", "orbit_membership"): "orbit.membership",
    ("rmatrix", "extend_scalars"): "rmatrix.extend",
    ("rmatrix", "extend_scalars_rev"): "rmatrix.extend",
    ("rmatrix", "restrict_scalars"): "rmatrix.extend",
}
# The linearity check inside RMap.__init__; left unwrapped so that it counts
# as the constructor's own time.
UNWRAPPED = {("rmatrix", "eps_shift_left"), ("rmatrix", "eps_shift_right")}

MEMBERSHIP = "orbit.membership"


def _is_gaussian_integer(x):
    return x.re.denominator == 1 and x.im.denominator == 1


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.case = -1
        self._stack = [-1]
        self._depth = Counter()
        self._skew = [0.0]   # time spent in tracer code so far
        self._restore = []
        self.wrapped = set()   # names of the spans install() can record

    # -- hooks computing operation counts ---------------------------------------

    def _pre_matmul(self, a, b):
        c = self.counts
        c["linalg.matmul.mkn"] += a.nrows * a.ncols * b.ncols
        entries = [x for m in (a, b) for row in m.rows for x in row]
        c["linalg.matmul.integral"] += all(map(_is_gaussian_integer, entries))
        c["linalg.matmul.nonreal"] += any(x.im for x in entries)

    def _pre_compose(self, f, g):
        self.counts["rmatrix.compose.order_gt1"] += math.gcd(f.base, g.base) > 1
        self.counts["orbit.membership.composes"] += self._depth[MEMBERSHIP] > 0

    def _post_echelon(self, args, pivots):
        rows = args[0]
        width = len(rows[0]) if rows else 0
        self.counts["linalg.echelon.ops"] += len(pivots) * len(rows) * width

    # -- wrapping ----------------------------------------------------------------

    def _wrap(self, name, fn, pre=None, post=None):
        self.wrapped.add(name)
        spans, stack, depth, skew = self.spans, self._stack, self._depth, self._skew
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = clock()
            if pre is not None:
                pre(*args)
            depth[name] += 1
            span = [name, 0.0, 0.0, stack[-1], tracer.case, depth[name] == 1]
            stack.append(len(spans))
            spans.append(span)
            t1 = clock()
            skew[0] += t1 - t0
            span[1] = t1 - skew[0]
            try:
                result = fn(*args, **kwargs)
            finally:
                t2 = clock()
                span[2] = t2 - skew[0]
                stack.pop()
                depth[name] -= 1
            if post is not None:
                post(args, result)
            skew[0] += clock() - t2
            return result

        return wrapper

    def install(self):
        from qschemes.linalg import Matrix
        from qschemes.rmatrix import RMap

        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"qschemes.{layer}")
            for attr, fn in vars(mod).items():
                if not isinstance(fn, types.FunctionType) or fn.__module__ != mod.__name__:
                    continue
                key = (layer, attr)
                if key in UNWRAPPED or (attr.startswith("_") and key not in RENAMED):
                    continue
                name = RENAMED.get(key, f"{layer}.{attr}")
                pre = self._pre_compose if key == ("rmatrix", "compose") else None
                post = self._post_echelon if key == ("linalg", "_echelon") else None
                wrappers[fn] = self._wrap(name, fn, pre, post)
        namespaces = [m for n, m in sys.modules.items()
                      if n == "qschemes" or n.startswith("qschemes.")]
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                if isinstance(value, types.FunctionType) and value in wrappers:
                    self._restore.append((ns, attr, value))
                    setattr(ns, attr, wrappers[value])
        for cls, attr, name, pre in (
            (Matrix, "__matmul__", "linalg.matmul", self._pre_matmul),
            (RMap, "__init__", "rmatrix.rmap_new", None),
            (RMap, "__add__", "rmatrix.add", None),
        ):
            original = cls.__dict__[attr]
            self._restore.append((cls, attr, original))
            setattr(cls, attr, self._wrap(name, original, pre))

    def uninstall(self):
        while self._restore:
            ns, attr, value = self._restore.pop()
            setattr(ns, attr, value)

    # -- results -------------------------------------------------------------------

    def summary(self, case_kinds):
        """Per-name calls, inclusive and self seconds, and membership calls per case kind.

        ``case_kinds[i]`` is the kind of case ``i``; inclusive time sums only
        outermost spans of a name, so recursion is not counted twice.
        """
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls, incl, self_s = Counter(), defaultdict(float), defaultdict(float)
        per_kind = Counter()
        for k, (name, start, end, _, case, outer) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += end - start - child[k]
            if outer:
                incl[name] += end - start
                if name == MEMBERSHIP and case >= 0:
                    per_kind[case_kinds[case]] += 1
        return calls, incl, self_s, per_kind

    def shape(self):
        """Everything a traced pass counts: the call tree (name, parent and
        case of every span) and the operation counts.  Two passes over the
        same inputs must give equal shapes."""
        return [(name, parent, case) for name, _, _, parent, case, _ in self.spans], self.counts

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, case, _ in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "case": case}) + "\n")
