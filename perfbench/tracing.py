"""Spans around the package's layer boundaries, recorded from outside.

``install(tracer)`` wraps public functions of ``cuspcubes`` and rebinds
each one under the name its caller looks up: ``cuspcubes.decide.flype``
for the classifier, ``cuspcubes.cubing.verify_npc`` for the CLI (which
reaches it as ``cli.CB.verify_npc``), ``is_prime`` in ``cuspcubes.diagram``,
``cuspcubes.decide`` and ``cuspcubes.polyhedra`` (each imported it by name)
for the flype search, the cubing builder, the classifier and the polyhedra,
and so on.  Nothing in the package changes; a run without ``install``
executes the package untouched.

A span is ``[name, start, end, parent, op, attrs]``: the parent is the
index of the enclosing span (on the same thread, or the operation's root
span for work the CLI hands to a thread pool), ``op`` is the operation
number.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import threading
import time


class Tracer:
    """Spans and counters of one worker; ``op`` is the current operation."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self.op = -1
        self.root = None
        self._local = threading.local()
        self._lock = threading.Lock()
        self._open: dict[str, int] = {}

    def _stack(self) -> list:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def open(self, name: str, attrs=None) -> int:
        st = self._stack()
        parent = st[-1] if st else self.root
        with self._lock:
            idx = len(self.spans)
            self.spans.append([name, time.perf_counter(), None, parent, self.op, attrs or {}])
            self._open[name] = self._open.get(name, 0) + 1
        st.append(idx)
        if name == "cli.main":
            self.root = idx
        return idx

    def close(self, idx: int, **attrs) -> None:
        span = self.spans[idx]
        span[2] = time.perf_counter()
        span[5].update(attrs)
        self._stack().pop()
        with self._lock:
            self._open[span[0]] -= 1
        if span[0] == "cli.main":
            self.root = None

    def is_open(self, name: str) -> bool:
        return self._open.get(name, 0) > 0

    def count(self, name: str) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + 1


def _wrap(tracer: Tracer, name: str, fn, before=None, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = tracer.open(name, before(*args, **kwargs) if before else None)
        try:
            result = fn(*args, **kwargs)
        except BaseException as err:
            tracer.close(idx, error=type(err).__name__)
            raise
        tracer.close(idx, **(after(result) if after else {}))
        return result
    return wrapper


def install(tracer: Tracer) -> None:
    """Rebind the traced functions of cuspcubes to span-recording wrappers."""
    from cuspcubes import cli, cubing, decide, diagram, farey, pingpong, polyhedra

    def rebind(module, attr, name, **hooks):
        setattr(module, attr, _wrap(tracer, name, getattr(module, attr), **hooks))

    for attr in ("parse_slope", "farey_distance", "cf_expand", "cf_value", "covering_slope",
                 "two_bridge_equivalent", "rational_p3_classify", "two_bridge_hyperbolic",
                 "rational_p3_hyperbolic"):
        rebind(farey, attr, "farey")

    Diagram = diagram.AlternatingDiagram
    Diagram.from_json = staticmethod(_wrap(tracer, "diagram.load", Diagram.from_json))
    rebind(cli, "two_bridge_diagram", "diagram.load")
    rebind(decide, "two_bridge_diagram", "diagram.load")
    init = Diagram.__init__

    @functools.wraps(init)
    def counted_init(self, *args, **kwargs):
        if tracer.is_open("diagram.flype"):
            tracer.count("diagram.flype.trial_diagrams")
        init(self, *args, **kwargs)
    Diagram.__init__ = counted_init

    for module in (diagram, decide, polyhedra):
        for attr in ("is_prime", "is_reduced", "alternating_determinant"):
            if hasattr(module, attr):
                rebind(module, attr, "diagram.checks")
    rebind(decide, "flype", "diagram.flype",
           before=lambda tb, *a, **k: {"n": tb.diagram.n},
           after=lambda res: {"steps": res.trace["flype_steps"]})

    n_of_complex = lambda cx, *a, **k: {"n": cx.diagram.n}      # noqa: E731
    rebind(cubing, "build_cubing", "cubing.build_cubing")
    rebind(cubing, "verify_npc", "cubing.verify_npc", before=n_of_complex,
           after=lambda rep: {"links": len(rep["vertices"])})
    rebind(cubing, "boundary_cubings", "cubing.boundary_cubings")
    cubing.CubedComplex.to_json = _wrap(tracer, "cubing.to_json", cubing.CubedComplex.to_json)

    rebind(decide, "build_polyhedra", "polyhedra.build_polyhedra")
    rebind(polyhedra, "circle_pattern_svg", "polyhedra.svg")
    rebind(decide, "classify_2bridge_pair", "decide.classify")
    rebind(decide, "classify_alternating_pair", "decide.classify")
    rebind(decide, "witness_spare_region", "decide.witness_spare_region")

    rebind(pingpong, "pingpong_certificate", "pingpong.certificate")
    rebind(pingpong, "pingpong_certificate_float", "pingpong.certificate_float")
    rebind(pingpong, "free_word_sanity", "pingpong.free_word_sanity")
