"""Self time is a span's duration minus the union of its children's
intervals, also when children overlap on several threads."""

import threading
import time
from types import SimpleNamespace

import pytest

from spans import Span, Tracer, layer_totals, self_times, union_length


def test_union_length_merges_overlaps_and_gaps():
    assert union_length([]) == 0.0
    assert union_length([(0.0, 1.0)]) == 1.0
    assert union_length([(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)]) == 4.0
    assert union_length([(4.0, 5.0), (0.0, 10.0), (2.0, 3.0)]) == 10.0
    assert union_length([(0.0, 1.0), (1.0, 2.0)]) == 2.0


def test_self_time_subtracts_union_of_overlapping_thread_spans():
    # A 2.10 s vote whose two workers each sweep ~1.5 s side by side: the
    # children sum to 3.09 s, but cover only [0.2, 1.9] of the parent.
    spans = [
        Span("vote", 0.0, 2.10, thread=1, parent=None),
        Span("sweep", 0.20, 1.75, thread=2, parent=0),
        Span("sweep", 0.36, 1.90, thread=3, parent=0),
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(2.10 - 1.70)
    assert own[1] == pytest.approx(1.55)
    assert own[2] == pytest.approx(1.54)
    assert 2.10 - (own[1] + own[2]) < 0.0  # what subtracting sums would give

    tot = layer_totals(spans)
    assert tot["sweep"]["busy"] == pytest.approx(3.09)
    assert tot["sweep"]["calls"] == 2
    assert tot["vote"]["self"] == pytest.approx(0.40)


def test_self_time_clips_children_to_the_parent():
    spans = [
        Span("a", 1.0, 2.0, thread=1, parent=None),
        Span("b", 0.5, 1.5, thread=2, parent=0),
    ]
    assert self_times(spans)[0] == pytest.approx(0.5)


def test_tracer_wraps_restores_and_parents_worker_threads():
    ns = SimpleNamespace()

    def leaf(x):
        time.sleep(0.01)
        return x

    def fan_out(n):
        threads = [threading.Thread(target=ns.leaf, args=(i,)) for i in range(n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        assert not any(t.is_alive() for t in threads)
        return n

    ns.leaf, ns.fan_out = leaf, fan_out
    with Tracer() as tr:
        tr.wrap(ns, "leaf", "leaf", lambda t, a, k, r: t.count("leaves"))
        tr.wrap(ns, "fan_out", "fan_out")
        assert tr.call("root", ns.fan_out, 3) == 3
    assert ns.leaf is leaf and ns.fan_out is fan_out

    names = [s.name for s in tr.spans]
    assert names.count("leaf") == 3
    root, fan = names.index("root"), names.index("fan_out")
    assert tr.spans[fan].parent == root
    assert all(s.parent == fan for s in tr.spans if s.name == "leaf")
    assert tr.counters["leaves"] == 3
    assert all(s.end >= s.start for s in tr.spans)
    assert min(self_times(tr.spans)) >= 0.0


def test_tracer_keeps_classmethods_bound_to_the_class():
    class Grid:
        @classmethod
        def create(cls, n):
            return cls, n

    with Tracer() as tr:
        tr.wrap(Grid, "create", "create")
        assert Grid.create(2) == (Grid, 2)
    assert isinstance(Grid.__dict__["create"], classmethod)
    assert [s.name for s in tr.spans] == ["create"]
