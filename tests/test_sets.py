"""Set operators and the nested-stream producers."""

import pytest

from conftest import run_op

from flo.core import B, INT, U, ElemType, Payload, concat, member, pair
from flo.graph import node, run_to_stuck, set_inputs
from flo.nested import NestedSeqValue
from flo.seq import SeqValue, SingletonNat, seq_tag
from flo.sets import (
    edge_join,
    nest_once,
    repeat_nested,
    set_tag,
    set_union,
    sset,
    zip_nested,
)
from flo.core import StreamType


def test_union_of_two_sets():
    (out,) = run_op(set_union(INT), sset((1,)), sset((2,)))
    assert out == sset((1, 2))


def test_union_with_empty_is_identity():
    (out,) = run_op(set_union(INT), sset((1, 2)), sset(()))
    assert out == sset((1, 2))


def test_union_terminates_when_both_fixed():
    (out,) = run_op(set_union(INT), sset((1,), fixed=True), sset((2,), fixed=True))
    assert out == sset((1, 2), fixed=True)


class TestEdgeJoin:
    def test_basic(self):
        (out,) = run_op(edge_join(INT), sset((0,)), sset(((0, 1),)))
        assert out == sset((1,))

    def test_brute_force_definition(self):
        nodes = (0, 1)
        edges = ((0, 1), (1, 2))
        (out,) = run_op(edge_join(INT), sset(nodes), sset(edges))
        expected = frozenset(d for (s, d) in edges if s in nodes)
        assert out.elems == expected

    def test_incremental_equals_batch(self):
        op = edge_join(INT)
        g = node(op, (sset(()), sset(((0, 1), (1, 2)))))
        g, outs, _ = run_to_stuck(g, (sset(()),))
        assert outs[0].elems == frozenset()
        g = set_inputs(g, (sset((1,)), sset(())))
        g, outs, _ = run_to_stuck(g, outs)
        assert outs[0].elems == frozenset({2})


class TestRepeatNested:
    def test_duplicates_fixed_input_k_times(self):
        data = sset((0, 1), fixed=True)
        (out,) = run_op(repeat_nested(set_tag(INT)), data, SingletonNat(2, True))
        assert out.terminated
        assert len(out.tuples) == 2
        assert all(tup[0] == data for tup in out.tuples)

    def test_zero_count_terminates_immediately(self):
        (out,) = run_op(repeat_nested(set_tag(INT)), sset((5,)), SingletonNat(0, False))
        assert out == NestedSeqValue(True, (), (StreamType(set_tag(INT), B),))

    def test_unfixed_input_stays_pending(self):
        (out,) = run_op(repeat_nested(set_tag(INT)), sset((5,)), SingletonNat(2, True))
        assert out.tuples == () and not out.terminated


class TestZip:
    def _mk(self, tuples, terminated, inner):
        return NestedSeqValue(terminated, tuples, inner)

    def test_pairs_inner_streams(self):
        li = (StreamType(seq_tag(INT), B),)
        ri = (StreamType(set_tag(INT), B),)
        left = self._mk(((SeqValue(True, (1,)),),), True, li)
        right = self._mk(((sset((2,), fixed=True),),), True, ri)
        (out,) = run_op(zip_nested(li, ri, B), left, right)
        assert out.terminated
        assert len(out.tuples) == 1
        a, b = out.tuples[0]
        assert a == SeqValue(True, (1,))
        assert b == sset((2,), fixed=True)

    def test_unequal_progress_buffers_longer_side(self):
        li = (StreamType(seq_tag(INT), B),)
        ri = (StreamType(set_tag(INT), B),)
        two = self._mk(
            ((SeqValue(True, (2,)),), (SeqValue(True, (1,)),)), False, li
        )
        one = self._mk(((sset((9,), fixed=True),),), False, ri)
        (out,) = run_op(zip_nested(li, ri, B), two, one)
        # Only the first pair forms; the second left tuple waits.
        assert len(out.tuples) == 1
        assert not out.terminated

    def test_terminators_on_both_terminate(self):
        li = (StreamType(seq_tag(INT), B),)
        ri = (StreamType(set_tag(INT), B),)
        left = self._mk((), True, li)
        right = self._mk((), True, ri)
        (out,) = run_op(zip_nested(li, ri, B), left, right)
        assert out == NestedSeqValue(True, (), li + ri)


class TestNestOnce:
    def test_first_inner_carries_input(self):
        (out,) = run_op(nest_once(set_tag(INT), B, limit=2), sset((5,), fixed=True))
        assert out.terminated
        assert len(out.tuples) == 3  # first inner plus two empties
        assert out.tuples[-1][0] == sset((5,), fixed=True)
        assert all(t[0] == sset((), fixed=True) for t in out.tuples[:-1])

    def test_empty_input_first_inner_empty(self):
        (out,) = run_op(nest_once(set_tag(INT), B, limit=0), sset((), fixed=True))
        assert out.terminated
        assert out.tuples[-1][0] == sset((), fixed=True)

    def test_unfixed_input_keeps_outer_open(self):
        (out,) = run_op(nest_once(set_tag(INT), U, limit=0), sset((5,)))
        assert not out.terminated
        assert out.tuples[0][0] == sset((5,))

    def test_unbounded_binding_requires_zero_limit(self):
        from flo.core import FloError

        with pytest.raises(FloError):
            nest_once(set_tag(INT), U, limit=3)


def test_a_pushed_set_is_checked_once_per_element_type(monkeypatch):
    from flo import core
    from flo.core import Push, TERMINATOR
    from flo.programs import reachability_dynamic
    from flo.scheduler import InputBatch, RoundRobin, TraceStep, run_trace

    checks = {"n": 0}
    compile_elem = core._compile_elem

    def counting(t):
        check = compile_elem(t)

        def counted(v):
            checks["n"] += 1
            return check(v)

        return counted

    # Element types built from here on (the graph's edge type) count each
    # element they check.
    monkeypatch.setattr(core, "_compile_elem", counting)
    edges = [(i, i + 1) for i in range(10)] + [(0, 20), (20, 21)]
    batches = [
        (Push((sset(es, fixed=True),)), Push((SingletonNat(4, True),)))
        for es in (edges[:4], edges[:8], edges)
    ]
    trace = [TraceStep(InputBatch(b), None) for b in batches]
    trace.append(TraceStep(InputBatch((TERMINATOR, TERMINATOR)), None))
    res = run_trace(reachability_dynamic(0, 4), trace, RoundRobin())
    (out,) = res.totals
    assert out.tuples[0][0].elems == frozenset(range(11)) | {20, 21}
    # Each edge set is checked once, when it is fed (24 checks). Rebuilding
    # a set with the same elements keeps its memo; rechecking every push,
    # four per set from repeat_nested, made 120.
    assert checks["n"] <= 30


def test_the_checked_memo_is_outside_the_value():
    edges = set_tag(pair(INT, INT))
    a, b = sset([(1, 2)]), sset([(1, 2)])
    assert member(a, edges)
    assert not member(a, set_tag(pair(INT, ElemType("bool"))))
    assert a == b and hash(a) == hash(b) and repr(a) == repr(b) == "{(1, 2)}"
    # new elements are checked again
    assert not member(concat(a, Payload(sset([("x", 1)]))), edges)
