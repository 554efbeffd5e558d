"""Sequence operators: map, filter, scan, fold, window, tee, last, forward."""

import pytest

from conftest import run_op

from flo.core import B, INT, STR, Payload, concat
from flo.nested import NestedSeqValue
from flo.seq import (
    SeqValue,
    SingletonNat,
    fold,
    forward,
    last,
    scan,
    seq,
    seq_filter,
    seq_map,
    seq_tag,
    tee,
    window,
)
from flo.sets import SetValue, set_tag, sset


def test_map_uppercase():
    assert run_op(seq_map("uppercase", STR, STR), seq("a")) == (seq("a").__class__(False, ("A",)),)


def test_map_empty_input_stuck():
    assert run_op(seq_map("inc", INT, INT), SeqValue(False, ())) == (SeqValue(False, ()),)


def test_map_forwards_terminator():
    (out,) = run_op(seq_map("inc", INT, INT), SeqValue(True, ()))
    assert out == SeqValue(True, ())


def test_map_preserves_arrival_order():
    (out,) = run_op(seq_map("inc", INT, INT), seq(1, 2, 3))
    assert out == seq(2, 3, 4)


def test_filter_drops_and_keeps():
    op = seq_filter({"name": "ge", "c": 5}, INT)
    (out,) = run_op(op, seq(3, 7, 4, 9))
    assert out == seq(7, 9)


def test_scan_running_sums():
    # Value [2,1] (newest leftmost) arrived as 1 then 2: sums 1 then 3.
    (out,) = run_op(scan(0, "add", INT, INT), SeqValue(False, (2, 1)))
    assert out == SeqValue(False, (3, 1))


def test_scan_terminator_does_not_reemit():
    (out,) = run_op(scan(0, "add", INT, INT), seq(1, 2, terminated=True))
    assert out == SeqValue(True, (3, 1))


def test_fold_sums_then_releases():
    (out,) = run_op(fold(0, "add", INT, INT), seq(1, 2, 3, terminated=True))
    assert out == SeqValue(True, (6,))


def test_fold_immediate_terminator_releases_init():
    (out,) = run_op(fold(0, "add", INT, INT), SeqValue(True, ()))
    assert out == SeqValue(True, (0,))


def test_fold_withholds_until_fixed():
    (out,) = run_op(fold(0, "add", INT, INT), seq(1, 2))
    assert out == SeqValue(False, ())


def test_scan_then_last_equals_fold():
    from flo.graph import node, seq_chain
    from conftest import run_graph

    data = seq(4, 1, 5, terminated=True)
    pipeline = seq_chain(node(scan(0, "add", INT, INT, B)), node(last(seq_tag(INT))))
    assert run_graph(pipeline, (data,)) == run_op(fold(0, "add", INT, INT), data)


class TestWindow:
    def test_buffers_then_emits_on_far_timestamp(self):
        # interval 10: (a,0),(b,5) buffered; (c,12) closes the window.
        op = window(10, STR)
        (out,) = run_op(op, seq(("a", 0), ("b", 5), ("c", 12)))
        assert isinstance(out, NestedSeqValue)
        assert len(out.tuples) == 1
        (inner,) = out.tuples[0]
        assert inner == SeqValue(True, ("b", "a"))
        assert not out.terminated  # c is still buffered

    def test_first_arrival_only_buffers(self):
        (out,) = run_op(window(10, STR), seq(("a", 0)))
        assert out.tuples == ()

    def test_terminator_flushes_partial_window(self):
        (out,) = run_op(window(10, STR), seq(("a", 0), ("b", 5), terminated=True))
        assert out.terminated
        assert len(out.tuples) == 1
        assert out.tuples[0][0] == SeqValue(True, ("b", "a"))


def test_tee_duplicates():
    a, b = run_op(tee(seq_tag(INT)), seq(1, 2, terminated=True))
    assert a == b == SeqValue(True, (2, 1))


def test_tee_over_sets():
    a, b = run_op(tee(set_tag(INT)), sset((1, 2), fixed=True))
    assert a == b == SetValue(frozenset({1, 2}), True)


def test_last_takes_final_element():
    (out,) = run_op(last(seq_tag(INT)), seq(7, 9, terminated=True))
    assert out == SeqValue(True, (9,))


def test_last_empty_emits_terminator_only():
    (out,) = run_op(last(seq_tag(INT)), SeqValue(True, ()))
    assert out == SeqValue(True, ())


def test_last_over_sets_is_final_set():
    (out,) = run_op(last(set_tag(INT)), sset((1, 2), fixed=True))
    assert out == SetValue(frozenset({1, 2}), True)


def test_forward_is_identity():
    (out,) = run_op(forward(seq_tag(INT)), seq(1, 2, terminated=True))
    assert out == SeqValue(True, (2, 1))


def test_singleton_nat_rejects_second_value():
    from flo.core import PayloadShapeMismatch

    one = SingletonNat(1, False)
    with pytest.raises(PayloadShapeMismatch):
        concat(one, Payload(SingletonNat(2, False)))
    assert concat(one, Payload(SingletonNat(1, True))) == SingletonNat(1, True)


def test_only_seq_builds_sequence_values():
    # A new sequence layout then changes only seq.py: other modules build
    # sequences through its builders.
    import pathlib
    import re

    import flo

    src = pathlib.Path(flo.__file__).parent
    callers = [p.name for p in src.glob("*.py") if p.name != "seq.py" and re.search(r"\bSeqValue\(", p.read_text())]
    assert callers == []
