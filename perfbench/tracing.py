"""Spans around calls into the freeconv layers, recorded from outside the library.

A :class:`Tracer` replaces public functions at the module names their callers
bind (``freeconv.bench.solve_Zn_grid``, ``freeconv.transforms.measure_cauchy``,
...) with wrappers that record one span per call: name, start, end, parent and
a few machine-independent counts.  Spans stay in memory; :func:`layer_metrics`
turns them into the per-layer figures.  Nothing in the library is edited, and
:meth:`Tracer.installed` restores every replaced name on exit.

The wrappers keep a stack of open spans, so they assume one thread; the
benchmark runs with ``FREECONV_THREADS=1``.
"""

from __future__ import annotations

import functools
import importlib
import sys
import warnings
from contextlib import contextmanager
from time import perf_counter

import numpy as np


class Span:
    __slots__ = ("name", "start", "end", "parent", "counts")

    def __init__(self, name, start, end=0.0, parent=None, counts=None):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent          # index of the enclosing span, or None
        self.counts = counts or {}

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_json(self) -> dict:
        return {"name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, **self.counts}


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


class Tracer:
    """Records spans for calls made while :meth:`installed` is active."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []

    def clear(self) -> None:
        self.spans = []
        self._open = []

    def call(self, name, fn, args, kwargs):
        """Run fn inside a new span; returns (result, span)."""
        span = Span(name, perf_counter(), parent=self._open[-1] if self._open else None)
        self._open.append(len(self.spans))
        self.spans.append(span)
        try:
            out = fn(*args, **kwargs)
        finally:
            span.end = perf_counter()
            self._open.pop()
        return out, span

    def wrap(self, name, fn, note=None):
        """fn wrapped in a span; note(span, args, kwargs, out) fills its counts."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            out, span = self.call(name, fn, args, kwargs)
            if note is not None:
                note(span, args, kwargs, out)
            return out
        return traced

    # -- per-target notes ----------------------------------------------------

    @staticmethod
    def _note_kernel(span, args, kwargs, out):
        m = _arg(args, kwargs, 0, "m")
        d = m.density
        # the kernel integrates the segments with a nonzero endpoint
        terms = m.atom_positions.size + (np.count_nonzero((d[:-1] != 0) | (d[1:] != 0))
                                         if d.size else 0)
        points = int(np.size(_arg(args, kwargs, 1, "z")))
        span.counts = {"points": points, "work": points * int(terms)}

    @staticmethod
    def _note_points(span, args, kwargs, out):
        span.counts = {"points": int(np.size(args[0]))}

    @staticmethod
    def _note_solve_Zn(span, args, kwargs, out):
        span.counts = {"points": int(np.size(_arg(args, kwargs, 2, "z"))),
                       "iterations": int(out[1])}

    @staticmethod
    def _note_solve_pair(span, args, kwargs, out):
        span.counts = {"points": int(np.size(_arg(args, kwargs, 2, "z")))}

    @staticmethod
    def _note_rates(span, args, kwargs, out):
        span.counts = {"rows": len(out.rows) + len(out.failed)}

    def _wrap_cdf(self, fn):
        """stieltjes_cdf with its g traced and its mass warnings counted."""
        @functools.wraps(fn)
        def traced(g, xs, *args, **kwargs):
            g = self.wrap("inversion.g", g, self._note_points)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                out, span = self.call("inversion.cdf", fn, (g, xs, *args), kwargs)
            lost = [w for w in caught if "total mass" in str(w.message)]
            span.counts = {"nodes": int(np.size(xs)),
                           "atoms": int(np.count_nonzero(out.values > out.left_limits)),
                           "mass_warnings": len(lost)}
            for w in caught:
                warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
            return out
        return traced

    def _wrap_family_transform(self, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            G, Gp = fn(*args, **kwargs)
            return (self.wrap("idlaws.G", G, self._note_points),
                    self.wrap("idlaws.G", Gp, self._note_points))
        return traced

    def _span(self, name, note=None):
        return lambda fn: self.wrap(name, fn, note)

    def _targets(self):
        """(module, attribute, wrapper factory) for every traced name."""
        span = self._span
        return (
            ("freeconv.transforms", "measure_cauchy", span("transforms.G", self._note_kernel)),
            ("freeconv.transforms", "measure_cauchy_prime", span("transforms.G", self._note_kernel)),
            ("freeconv.idlaws", "newton_invert", span("transforms.newton")),
            ("freeconv.bench", "solve_Zn_grid", span("subordination.solve", self._note_solve_Zn)),
            ("freeconv.subordination", "solve_pair_grid",
             span("subordination.solve", self._note_solve_pair)),
            ("freeconv.bench", "stieltjes_cdf", self._wrap_cdf),
            ("freeconv.inversion", "stieltjes_cdf", self._wrap_cdf),
            ("freeconv.idlaws", "family_transform", self._wrap_family_transform),
            ("freeconv.idlaws", "is_free_id_sampled", span("idlaws.idcheck")),
            ("freeconv.bench", "run_rate_experiment", span("bench.rates", self._note_rates)),
            ("freeconv.bench", "kolmogorov", span("bench.kolmogorov")),
            ("freeconv.bench", "fit_loglog_slope", span("bench.fit")),
            ("freeconv.measures", "make_atomic", span("measures.make_atomic")),
            ("freeconv.measures", "from_density", span("measures.from_density")),
            ("freeconv.measures", "semicircle_measure", span("measures.semicircle_measure")),
            ("freeconv.measures", "bernoulli_measure", span("measures.bernoulli_measure")),
        )

    @contextmanager
    def installed(self):
        """Replace the traced names for the duration of the block."""
        saved = []
        try:
            for module_name, attr, factory in self._targets():
                module = importlib.import_module(module_name)
                fn = getattr(module, attr, None)
                if fn is None:
                    print(f"perfbench: {module_name}.{attr} not found; not traced",
                          file=sys.stderr)
                    continue
                saved.append((module, attr, fn))
                setattr(module, attr, factory(fn))
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)


# -- deriving the per-layer figures ----------------------------------------

def covered(span: Span, kids) -> float:
    """Length of the part of span's interval that the kids' intervals cover."""
    ivs = sorted((max(k.start, span.start), min(k.end, span.end)) for k in kids)
    total, reach = 0.0, span.start
    for lo, hi in ivs:
        lo = max(lo, reach)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans) -> list[float]:
    """Per span: its duration minus the time its child spans cover."""
    kids = [[] for _ in spans]
    for s in spans:
        if s.parent is not None:
            kids[s.parent].append(s)
    return [s.duration - covered(s, k) for s, k in zip(spans, kids)]


def ancestor_layers(spans) -> list[frozenset]:
    """Per span: the layers of all spans enclosing it (parents precede children)."""
    out = []
    for s in spans:
        p = s.parent
        out.append(frozenset() if p is None else out[p] | {spans[p].layer})
    return out


# per-layer metric name -> unit; the order is the order they are printed
PER_LAYER_UNITS = {
    "transforms.G_calls": "count", "transforms.G_points": "count",
    "transforms.G_work": "count", "transforms.G_s": "s",
    "transforms.newton_calls": "count", "transforms.newton_s": "s",
    "subordination.solves": "count", "subordination.points": "count",
    "subordination.iterations": "count", "subordination.G_calls_per_solve": "calls/solve",
    "subordination.s": "s", "subordination.self_s": "s",
    "inversion.cdfs": "count", "inversion.g_calls": "count", "inversion.g_points": "count",
    "inversion.g_points_per_node": "points/node", "inversion.atoms": "count",
    "inversion.mass_warnings": "count", "inversion.s": "s", "inversion.self_s": "s",
    "idlaws.G_calls": "count", "idlaws.G_points": "count", "idlaws.G_s": "s",
    "idlaws.idcheck_s": "s", "idlaws.verdicts": "count",
    "bench.rows": "count", "bench.kolmogorov_s": "s", "bench.fit_s": "s",
    "bench.self_s": "s",
    "measures.calls": "count", "measures.s": "s",
    "trace.overhead_s": "s",
}
COUNT_METRICS = tuple(k for k, u in PER_LAYER_UNITS.items() if u != "s")


def layer_metrics(spans) -> dict:
    """Per-layer counts and times of one traced pass (all but trace.overhead_s).

    ``*_s`` is the summed duration of the layer's outermost spans, ``*_self_s``
    the summed self time of all its spans, so time spent in a layer it calls
    is not counted twice.
    """
    own = self_times(spans)
    anc = ancestor_layers(spans)

    def pick(name):
        return [i for i, s in enumerate(spans) if s.name == name]

    def outer(layer):
        return [i for i, s in enumerate(spans) if s.layer == layer and layer not in anc[i]]

    def count(idx, key):
        return sum(spans[i].counts.get(key, 0) for i in idx)

    def secs(idx):
        return sum(spans[i].duration for i in idx)

    def self_s(layer):
        return sum(t for s, t in zip(spans, own) if s.layer == layer)

    kernel, newton = pick("transforms.G"), pick("transforms.newton")
    closed, cdf, g = pick("idlaws.G"), pick("inversion.cdf"), pick("inversion.g")
    solves = outer("subordination")
    in_solve = sum(1 for i in kernel + closed if "subordination" in anc[i])
    nodes = count(cdf, "nodes")
    return {
        "transforms.G_calls": len(kernel),
        "transforms.G_points": count(kernel, "points"),
        "transforms.G_work": count(kernel, "work"),
        "transforms.G_s": secs(kernel),
        "transforms.newton_calls": len(newton),
        "transforms.newton_s": secs(newton),
        "subordination.solves": len(solves),
        "subordination.points": count(solves, "points"),
        "subordination.iterations": count(solves, "iterations"),
        "subordination.G_calls_per_solve": in_solve / len(solves) if solves else 0.0,
        "subordination.s": secs(solves),
        "subordination.self_s": self_s("subordination"),
        "inversion.cdfs": len(cdf),
        "inversion.g_calls": len(g),
        "inversion.g_points": count(g, "points"),
        "inversion.g_points_per_node": count(g, "points") / nodes if nodes else 0.0,
        "inversion.atoms": count(cdf, "atoms"),
        "inversion.mass_warnings": count(cdf, "mass_warnings"),
        "inversion.s": secs(outer("inversion")),
        "inversion.self_s": self_s("inversion"),
        "idlaws.G_calls": len(closed),
        "idlaws.G_points": count(closed, "points"),
        "idlaws.G_s": secs(closed),
        "idlaws.idcheck_s": secs(pick("idlaws.idcheck")),
        "idlaws.verdicts": len(pick("idlaws.idcheck")),
        "bench.rows": count(pick("bench.rates"), "rows"),
        "bench.kolmogorov_s": secs(pick("bench.kolmogorov")),
        "bench.fit_s": secs(pick("bench.fit")),
        "bench.self_s": self_s("bench"),
        "measures.calls": len(outer("measures")),
        "measures.s": secs(outer("measures")),
    }
