"""In-memory span tracing of the gfft layers, installed from outside the package.

The tracer replaces the module attributes the package calls through with
timing wrappers, so spans sit at the layer boundaries without any change to
the library: algorithms calls ``binmat.binmatvec_*`` and the ``structure``
helpers through names it looks up at call time, and ``algorithms.build``
dispatches through the module-level ``build_*`` functions.

A span is ``(name, start, end, parent, call, tag)``: ``parent`` is the index
of the enclosing span (-1 at top level) and ``call``/``tag`` identify the
benchmark call (one build, apply or oracle call) that caused it.
``LinearSolver.coords`` runs over a million times per m=12 set-up, so it is
counted rather than spanned.
"""

from __future__ import annotations

import functools
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

from gfft import algorithms, binmat, field, reference, structure

# (owner, attribute, span name).  The structure helpers are wrapped where
# algorithms looks them up, but their spans belong to the structure layer.
SPANNED = (
    (field, "build_field", "field.build_field"),
    (algorithms, "build_goertzel", "algorithms.build_goertzel"),
    (algorithms, "build_blahut2008", "algorithms.build_blahut2008"),
    (algorithms, "build_ft2002", "algorithms.build_ft2002"),
    (algorithms, "build_tf2003", "algorithms.build_tf2003"),
    (algorithms, "build_fed2006", "algorithms.build_fed2006"),
    (algorithms, "cyclotomic_cosets", "structure.cyclotomic_cosets"),
    (algorithms, "minimal_polynomial", "structure.minimal_polynomial"),
    (algorithms, "find_normal_basis", "structure.find_normal_basis"),
    (algorithms, "apply", "algorithms.apply"),
    (algorithms, "apply_batch", "algorithms.apply_batch"),
    (binmat, "binmatvec_naive", "binmat.naive"),
    (binmat, "binmatvec_four_russians", "binmat.four_russians"),
    (reference, "naive_dft_batch", "reference.naive_dft_batch"),
)
COUNTED = ((structure.LinearSolver, "coords", "structure.coord_solves"),)


class Tracer:
    """Collects spans and call counts while installed; one caller, no threads."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: Counter[str] = Counter()
        self._stack: list[int] = []
        self._call = 0
        self._tag: str | None = None

    @contextmanager
    def call(self, tag: str):
        """Attribute every span recorded inside to one new benchmark call."""
        self._call += 1
        self._tag = tag
        try:
            yield
        finally:
            self._tag = None

    def _spanned(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            idx = len(self.spans)
            self.spans.append(None)
            self._stack.append(idx)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                self.spans[idx] = (name, start, end, parent, self._call, self._tag)

        return wrapper

    def _counted(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    @contextmanager
    def installed(self):
        """Wrap every boundary that exists in this version of the package."""
        saved = []
        try:
            for owner, attr, name in SPANNED:
                if hasattr(owner, attr):
                    saved.append((owner, attr, getattr(owner, attr)))
                    setattr(owner, attr, self._spanned(name, saved[-1][2]))
            for owner, attr, name in COUNTED:
                if hasattr(owner, attr):
                    saved.append((owner, attr, getattr(owner, attr)))
                    setattr(owner, attr, self._counted(name, saved[-1][2]))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def self_times(self) -> list[float]:
        """Per span: duration minus the durations of its direct children."""
        own = [end - start for _, start, end, *_ in self.spans]
        for _, start, end, parent, *_ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def as_json(self) -> list[dict]:
        return [
            {"name": n, "start": s, "end": e, "parent": p, "call": c, "tag": t}
            for n, s, e, p, c, t in self.spans
        ]
