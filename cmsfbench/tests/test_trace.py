"""Span recording, self-time arithmetic and attribute wrapping."""

import threading

import pytest

from cmsfbench.trace import (Patches, Span, SpanIndex, SpanRecorder, children_index,
                             covered, self_time, spanning)


def span(id, name, start, end, parent=None, op=1, **attrs):
    return Span(id=id, name=name, start=start, end=end, parent=parent,
                thread=0, op=op, attrs=attrs)


def test_covered_merges_overlaps_and_clips():
    assert covered([(1, 3), (2, 4), (9, 12)], 0, 10) == 4
    assert covered([], 0, 10) == 0
    assert covered([(5, 6), (5, 6)], 0, 10) == 1
    assert covered([(-5, 20)], 0, 10) == 10


def test_self_time_subtracts_direct_children_only():
    spans = [span(1, "a", 0.0, 10.0),
             span(2, "b", 1.0, 3.0, parent=1),
             span(3, "b", 2.0, 4.0, parent=1),
             span(4, "c", 5.0, 8.0, parent=1),
             span(5, "d", 5.5, 7.5, parent=4)]
    children = children_index(spans)
    assert self_time(spans[0], children) == pytest.approx(10 - 3 - 3)
    assert self_time(spans[3], children) == pytest.approx(1.0)
    assert self_time(spans[4], children) == pytest.approx(2.0)


def test_per_op_sums_outermost_spans_per_operation():
    spans = [span(1, "op", 0, 10, op=1),
             span(2, "x", 1, 4, parent=1, op=1),
             span(3, "x", 2, 3, parent=2, op=1),   # nested in x: not again
             span(4, "x", 5, 6, parent=1, op=1),
             span(5, "op", 20, 30, op=2),
             span(6, "y", 21, 22, parent=5, op=2),
             span(7, "x", 40, 41, op=None)]        # outside any operation
    index = SpanIndex(spans)
    assert index.per_op("x") == {1: pytest.approx(4.0)}
    assert index.per_op("x", "self") == {1: pytest.approx(2.0 + 1.0)}
    assert index.per_op("op", "self") == {1: pytest.approx(6.0), 2: pytest.approx(9.0)}
    assert index.per_op(("x", "y"), ops={2}) == {2: pytest.approx(1.0)}


def test_recorder_nests_per_thread_and_tags_ops():
    recorder = SpanRecorder()

    def work(name):
        with recorder.op(f"{name}.op"):
            with recorder.span(f"{name}.inner"):
                pass

    threads = [threading.Thread(target=work, args=(n,)) for n in ("a", "b")]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10)
        assert not thread.is_alive()
    by_name = {s.name: s for s in recorder.spans}
    for name in ("a", "b"):
        root, inner = by_name[f"{name}.op"], by_name[f"{name}.inner"]
        assert inner.parent == root.id and inner.op == root.op
        assert root.parent is None
    assert by_name["a.op"].op != by_name["b.op"].op


class Widget:
    def plain(self, x):
        return x + 1

    @classmethod
    def build(cls, x):
        return x * 2

    @staticmethod
    def helper(x):
        return x - 1


def test_patches_wrap_and_restore_every_kind_of_attribute():
    recorder = SpanRecorder()
    originals = {name: Widget.__dict__[name] for name in ("plain", "build", "helper")}
    patches = Patches()
    for name in originals:
        patches.wrap(Widget, name, spanning(recorder, f"w.{name}"))
    assert (Widget().plain(1), Widget.build(2), Widget.helper(3)) == (2, 4, 2)
    assert [s.name for s in recorder.spans] == ["w.plain", "w.build", "w.helper"]
    patches.restore()
    assert all(Widget.__dict__[name] is raw for name, raw in originals.items())
    with pytest.raises(AttributeError):
        Patches().wrap(type("Sub", (Widget,), {}), "plain", spanning(recorder, "x"))
