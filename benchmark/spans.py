"""In-memory spans recorded around the program's public functions, and the
arithmetic the benchmark reports from them.

Spans are recorded by replacing a module (or class) attribute with a thin
wrapper, so only calls that look the attribute up at call time are seen.
A caller that bound the function earlier (``from .x import y``) bypasses
the wrapper; the runner therefore checks that every span it expects fired.

This module uses the standard library only, so its arithmetic can be tested
without the program.
"""

from __future__ import annotations

import functools
import math
import time
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float = math.nan
    parent: int | None = None  # index of the enclosing span in Tracer.spans
    error: str | None = None   # exception class name when the call raised
    note: object = None        # value taken from the call's result


class Tracer:
    """Records spans in call order; a span's parent is the innermost span
    open when it started (the program is single-threaded)."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._patched: list[tuple] = []

    @contextmanager
    def span(self, name):
        sp = Span(name, self.clock(), parent=self._open[-1] if self._open else None)
        self._open.append(len(self.spans))
        self.spans.append(sp)
        try:
            yield sp
        except BaseException as exc:
            sp.error = type(exc).__name__
            raise
        finally:
            sp.end = self.clock()
            self._open.pop()

    def patch(self, owner, attr, name, note=None):
        """Replace ``owner.attr`` with a wrapper recording one span per call.

        ``name`` is a string or a callable (args, kwargs) -> str; ``note``
        maps the call's result to the value stored on the span.  A missing
        attribute raises AttributeError, so a renamed function fails loudly.
        """
        original = getattr(owner, attr)
        namer = name if callable(name) else (lambda args, kwargs: name)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self.span(namer(args, kwargs)) as sp:
                result = original(*args, **kwargs)
                if note is not None:
                    sp.note = note(result)
                return result

        setattr(owner, attr, traced)
        self._patched.append((owner, attr, original))

    def restore(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)


def union_length(intervals, lo=-math.inf, hi=math.inf) -> float:
    """Length of the union of (start, end) intervals clipped to [lo, hi]."""
    total = 0.0
    cur_start = cur_end = None
    for s, e in sorted((max(s, lo), min(e, hi)) for s, e in intervals):
        if e <= s:
            continue
        if cur_end is None or s > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = s, e
        else:
            cur_end = max(cur_end, e)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def children(spans) -> list[list[int]]:
    out = [[] for _ in spans]
    for i, sp in enumerate(spans):
        if sp.parent is not None:
            out[sp.parent].append(i)
    return out


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it covered by its children."""
    kids = children(spans)
    return [(sp.end - sp.start)
            - union_length([(spans[k].start, spans[k].end) for k in kids[i]],
                           sp.start, sp.end)
            for i, sp in enumerate(spans)]


def roots(spans) -> list[int]:
    """Index of the outermost enclosing span of every span."""
    out = []
    for i, sp in enumerate(spans):
        out.append(i if sp.parent is None else out[sp.parent])
    return out


def tail_percentile(values, q) -> float:
    """The q-th percentile (linear interpolation between order statistics),
    only when at least ten samples rank above it; otherwise ValueError."""
    xs = sorted(values)
    n = len(xs)
    beyond = n - math.ceil(q / 100 * n)
    if n == 0 or beyond < 10:
        raise ValueError(f"p{q:g} of {n} samples leaves {max(beyond, 0)} beyond it; "
                         "need at least 10")
    pos = (n - 1) * q / 100
    lo = math.floor(pos)
    hi = min(lo + 1, n - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)
