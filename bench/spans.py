"""Spans around the program's functions, and the self-time arithmetic.

A Tracer replaces a function in every module namespace where callers look
it up: ``emdclf.emd.decompose`` and ``emdclf.cli.decompose`` hold the same
object, so both names get the same wrapper, and one call gives one span.
The originals come back when the tracer exits. Spans are kept in memory as
``(name, start, end, parent)`` rows, ``parent`` being the index of the span
that was open when the call began.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict

#: span name of the time spent in counting hooks and output checks; it is
#: subtracted from the self time of the span it sits in
HOOK = "bench.hook"


class Tracer:
    """Wraps functions in the given modules and records a span per call."""

    def __init__(self, modules):
        self.modules = tuple(modules)
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def wrap(self, func, name, on_return=None, span=True):
        """Route every call of `func` through a recording wrapper.

        `name` is the span name, or a callable that makes it from the call's
        ``(args, kwargs)``. ``on_return(counts, args, kwargs, result)`` runs
        after the call inside a HOOK span. With ``span=False`` the call gets
        no span of its own: only the hook runs, for functions that are
        counted but too small to time.
        """
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def hook(args, kwargs, result):
            start = clock()
            on_return(self.counts, args, kwargs, result)
            spans.append((HOOK, start, clock(), stack[-1] if stack else None))

        def traced(*args, **kwargs):
            if not span:
                result = func(*args, **kwargs)
                hook(args, kwargs, result)
                return result
            label = name(args, kwargs) if callable(name) else name
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(index)
            start = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                spans[index] = (label, start, clock(), parent)
                stack.pop()
            if on_return is not None:
                hook(args, kwargs, result)
            return result

        places = [(module, attr) for module in self.modules
                  for attr, value in vars(module).items() if value is func]
        if not places:
            raise LookupError(f"{getattr(func, '__qualname__', func)!r} is in none "
                              "of the traced modules")
        for module, attr in places:
            self._patches.append((module, attr, func))
            setattr(module, attr, traced)

    def restore(self):
        while self._patches:
            module, attr, func = self._patches.pop()
            setattr(module, attr, func)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()


def covered(start, end, intervals) -> float:
    """Length of [start, end] that the union of `intervals` covers."""
    total, reach = 0.0, start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans) -> dict:
    """Summed self time per span name: each span's duration minus the part
    of it that the union of its child spans covers."""
    children = defaultdict(list)
    for _, start, end, parent in spans:
        if parent is not None:
            children[parent].append((start, end))
    totals: dict = defaultdict(float)
    for index, (name, start, end, _) in enumerate(spans):
        totals[name] += end - start - covered(start, end, children[index])
    return dict(totals)


def call_counts(spans) -> Counter:
    return Counter(name for name, *_ in spans)
