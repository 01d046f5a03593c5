"""Spans and counts recorded around declat's public names, from outside ``src/``.

A :class:`Patch` rebinds one public callable everywhere declat holds it:
``from .maxwell import stable_timestep`` in ``cli.py`` makes a second
binding of the same function object, so every ``declat.*`` module
attribute that *is* the current object gets the wrapper, and
:meth:`Patch.remove` puts the same object back.  Methods are patched on
their class.

:class:`Tracer` keeps spans in memory as ``[name, parent, start, end]``
(parent is the index of the enclosing span, -1 at the root) plus plain
counters and gauges (every value a gauge took, in call order);
:func:`perfbench.layers.iteration_metrics` turns them into per-name self
times.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter

__all__ = ["Patch", "Tracer"]


def _resolve(target: str):
    """``'declat.maxwell:stable_timestep'`` or ``'declat.whitney:WhitneyBasis.bary'``."""
    modname, _, attr = target.partition(":")
    obj = sys.modules[modname]
    owner_path, _, leaf = attr.rpartition(".")
    owner = obj
    for part in filter(None, owner_path.split(".")):
        owner = getattr(owner, part)
    return owner, leaf


class Patch:
    """Replace one callable by ``make(current)`` at every binding, until removed.

    ``scope='all'`` rebinds the object in every loaded ``declat`` module
    (functions imported by name); ``scope='module'`` only in the named
    module (e.g. ``declat.maxwell:splu`` without touching ``hodge.splu``).
    Class attributes are always patched on the class itself.
    """

    def __init__(self, target: str, make, scope: str = "all"):
        self.target = target
        self.make = make
        self.scope = scope
        self._undo: list[tuple[object, str, object]] = []

    def apply(self) -> None:
        owner, leaf = _resolve(self.target)
        current = owner.__dict__[leaf] if isinstance(owner, type) else getattr(owner, leaf)
        wrapper = self.make(current)
        if isinstance(owner, type) or self.scope == "module":
            holders = [owner]
        else:
            holders = [m for name, m in list(sys.modules.items())
                       if m is not None and (name == "declat" or name.startswith("declat."))]
        for holder in holders:
            for attr, value in list(vars(holder).items()):
                if value is current:
                    setattr(holder, attr, wrapper)
                    self._undo.append((holder, attr, current))
        if not self._undo:
            raise LookupError(f"no binding of {self.target} found")

    def remove(self) -> None:
        while self._undo:
            holder, attr, value = self._undo.pop()
            setattr(holder, attr, value)


class _LUProxy:
    """A SuperLU factor whose ``solve`` is a span; everything else delegates."""

    def __init__(self, lu, tracer: "Tracer", name: str):
        self._lu = lu
        self._solve = tracer.wrap(lu.solve, name)

    def solve(self, *args, **kwargs):
        return self._solve(*args, **kwargs)

    def __getattr__(self, attr):
        return getattr(self._lu, attr)


class Tracer:
    """In-memory spans, counters and gauges, fed by wrappers it installs.

    Span times come from ``clock``: the benchmark passes
    :meth:`perfbench.reference.Reference.clock`, which leaves out the
    reference kernel's passes.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.t0 = clock()
        self.spans: list[list] = []  # [name, parent, start, end]
        self.counts: Counter = Counter()
        self.gauges: dict[str, list[float]] = {}
        self._stack: list[int] = []
        self._patches: list[Patch] = []

    # -- recording ---------------------------------------------------------

    def wrap(self, fn, name):
        """Wrap ``fn`` in a span; ``name`` may be a callable of (args, kwargs)."""
        spans, stack, clock = self.spans, self._stack, self.clock
        naming = name if callable(name) else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append([naming(args, kwargs) if naming else name,
                          stack[-1] if stack else -1, clock(), None])
            stack.append(sid)
            try:
                return fn(*args, **kwargs)
            finally:
                spans[sid][3] = clock()
                stack.pop()

        return traced

    def counter(self, fn, name):
        """Wrap ``fn`` so that each call only bumps ``counts[name]``."""
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def factoriser(self, fn, name: str, solve_name: str, fill_name: str):
        """Span around an ``splu``-like call; its factor's solves become spans."""
        traced = self.wrap(fn, name)

        @functools.wraps(fn)
        def factorise(A, *args, **kwargs):
            lu = traced(A, *args, **kwargs)
            self.gauges.setdefault(fill_name, []).append((lu.L.nnz + lu.U.nnz) / max(A.nnz, 1))
            return _LUProxy(lu, self, solve_name)

        return factorise

    def gauge_result(self, fn, name, gauge):
        """Span around ``fn``; ``gauge(args, kwargs, result)`` -> {name: value}."""
        traced = self.wrap(fn, name)

        @functools.wraps(fn)
        def measured(*args, **kwargs):
            out = traced(*args, **kwargs)
            for key, value in gauge(args, kwargs, out).items():
                self.gauges.setdefault(key, []).append(value)
            return out

        return measured

    # -- installation --------------------------------------------------------

    def install(self, patches: list[Patch]) -> None:
        for p in patches:
            p.apply()
            self._patches.append(p)

    def uninstall(self) -> None:
        while self._patches:
            self._patches.pop().remove()

    def to_json_spans(self) -> list[list]:
        return [[i, name, parent, round(start - self.t0, 9), round(end - self.t0, 9)]
                for i, (name, parent, start, end) in enumerate(self.spans)]

