"""Spans and counters recorded from outside the program under test.

A ``Tracer`` replaces chosen attributes (module functions, methods,
classmethods) with wrappers that record one span per call: name, start,
end, thread id and the span that caused it. One tracer serves one mapper
call (request), so all its spans belong to that call. Counters are bumped
from the call's arguments and result at the same boundary. Everything
stays in memory; the caller aggregates after the call, and ``restore``
puts the original attributes back.

A span opened on a thread with no open span of its own (a pool worker)
takes as parent the innermost open span of the thread that opened the
request, which is the span that submitted the work and is blocked on it.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from functools import wraps


@dataclass
class Span:
    name: str
    start: float
    end: float
    thread: int
    parent: int | None  # index into Tracer.spans

    @property
    def duration(self) -> float:
        return self.end - self.start


def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> list[float]:
    """Per span: its duration minus the union of its children's intervals
    (clipped to the span), so children that overlap on several threads are
    not subtracted twice."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out = []
    for i, s in enumerate(spans):
        covered = union_length(
            (max(c.start, s.start), min(c.end, s.end))
            for c in children[i] if c.end > s.start and c.start < s.end
        )
        out.append(s.duration - covered)
    return out


def layer_totals(spans) -> dict[str, dict[str, float]]:
    """Per span name: ``busy`` (sum of durations), ``self`` (sum of self
    times) and ``calls``."""
    selfs = self_times(spans)
    by_name = defaultdict(list)
    for s, own in zip(spans, selfs):
        by_name[s.name].append((s, own))
    return {
        name: {
            "busy": sum(s.duration for s, _ in items),
            "self": sum(own for _, own in items),
            "calls": len(items),
        }
        for name, items in by_name.items()
    }


class Tracer:
    """Records spans and counters at wrapped call boundaries."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._stacks: dict[int, list[int]] = defaultdict(list)
        self._root_thread: int | None = None
        self._lock = threading.Lock()
        self._patched = []

    def _open(self, name: str) -> int:
        tid = threading.get_ident()
        with self._lock:
            stack = self._stacks[tid]
            if stack:
                parent = stack[-1]
            else:
                root = self._stacks.get(self._root_thread)
                parent = root[-1] if root else None
                if parent is None:
                    self._root_thread = tid
            idx = len(self.spans)
            now = time.perf_counter()
            self.spans.append(Span(name, now, now, tid, parent))
            stack.append(idx)
        return idx

    def _close(self, idx: int):
        end = time.perf_counter()
        with self._lock:
            self.spans[idx].end = end
            self._stacks[threading.get_ident()].pop()

    def count(self, name: str, value: float = 1.0):
        with self._lock:
            self.counters[name] += value

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span named ``name``."""
        idx = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(idx)

    def wrap(self, owner, attr: str, name: str, counter=None):
        """Replace ``owner.attr`` by a spanned wrapper.

        ``counter(tracer, args, kwargs, result)`` runs after a successful
        call and may bump counters. Classmethods stay classmethods.
        """
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        is_cm = isinstance(raw, classmethod)
        fn = raw.__func__ if is_cm else raw

        @wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if counter is not None:
                counter(self, args, kwargs, result)
            return result

        setattr(owner, attr, classmethod(wrapper) if is_cm else wrapper)
        self._patched.append((owner, attr, raw))

    def restore(self):
        """Put every wrapped attribute back, last wrapped first."""
        while self._patched:
            owner, attr, raw = self._patched.pop()
            setattr(owner, attr, raw)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()
        return False
