"""Nested streams: concatenation invariants, defer plumbing, nest itself."""

import pytest

from conftest import bfs_closure, run_graph, run_op

from flo.core import (
    B,
    BoundednessInvariantViolation,
    EMPTY,
    Extend,
    INT,
    Payload,
    Push,
    StreamType,
    TERMINATOR,
    U,
    concat,
    is_fixed,
    member,
)
from flo.graph import FlatGraph, Par, compile_graph, node, seq_chain, step_first
from flo.nested import (
    NestedSeqValue,
    collect_defer,
    make_nest,
    nested_tag,
    read_defer,
    set_defer,
    write_defer,
)
from flo.seq import SeqValue, SingletonNat, fold, seq_map, seq_tag, forward
from flo.sets import set_tag, sset
from flo.core import NestOutputUnbounded, DeferContextMismatch, MissingKey


SEQ_B = (StreamType(seq_tag(INT), B),)


def nv(tuples, terminated=False, inner=SEQ_B):
    return NestedSeqValue(terminated, tuples, inner)


class TestNestedConcat:
    def test_push_onto_empty(self):
        out = concat(nv(()), Push((SeqValue(True, (1,)),)))
        assert out.tuples == ((SeqValue(True, (1,)),),)

    def test_terminated_absorbs(self):
        v = nv(((SeqValue(True, (1,)),),), terminated=True)
        assert concat(v, Push((SeqValue(True, (2,)),))) == v
        assert concat(v, TERMINATOR) == v

    def test_extend_touches_newest_tuple(self):
        v = nv(((SeqValue(False, (1,)),),))
        out = concat(v, Extend((Payload(SeqValue(False, (2,))),)))
        assert out.tuples == ((SeqValue(False, (2, 1)),),)

    def test_push_over_unfixed_bounded_component_rejected(self):
        v = nv(((SeqValue(False, (1,)),),))
        with pytest.raises(BoundednessInvariantViolation):
            concat(v, Push((SeqValue(True, ()),)))

    def test_terminator_over_unfixed_bounded_component_rejected(self):
        v = nv(((SeqValue(False, (1,)),),))
        with pytest.raises(BoundednessInvariantViolation):
            concat(v, TERMINATOR)

    def test_membership_tracks_invariant(self):
        good = nv(((SeqValue(False, (2,)),), (SeqValue(True, (1,)),)))
        bad = NestedSeqValue(
            False,
            ((SeqValue(False, (2,)),), (SeqValue(False, (1,)),)),
            SEQ_B,
        )
        tag = nested_tag(SEQ_B)
        assert member(good, tag)
        assert not member(bad, tag)

    def test_fix_closes_newest_and_terminates(self):
        from flo.core import fix

        v = nv(((SeqValue(False, (2,)),),))
        out = fix(v)
        assert out.terminated and is_fixed(out.tuples[0][0])


class TestDeferPlumbing:
    def test_collect_defer_reads_write_buffers(self):
        t = set_tag(INT)
        g = Par(
            node(write_defer("a", t), (sset((1,)),)),
            node(write_defer("b", t), (sset((2,)),)),
        )
        assert collect_defer(g) == {"a": sset((1,)), "b": sset((2,))}

    def test_collect_defer_ignores_other_nodes(self):
        g = node(seq_map("inc", INT, INT))
        assert collect_defer(g) == {}

    def test_set_defer_replaces_pending(self):
        t = set_tag(INT)
        rd = node(read_defer("k", t, sset((0,), fixed=True)))
        g2 = set_defer(rd, {"k": sset((0, 1), fixed=True)})
        assert g2.nodes[0].state.pending == sset((0, 1), fixed=True)

    def test_set_defer_lowers_the_hint_to_the_first_read_defer(self):
        t = set_tag(INT)
        g = compile_graph(seq_chain(node(forward(t, B)), Par(node(read_defer("k", t)), node(forward(t, B)))))
        g2 = set_defer(FlatGraph(g.plan, g.nodes, 3), {"k": sset((1,), fixed=True)})
        assert g2.hint == 1

    def test_set_defer_leaves_other_nodes(self):
        from flo.graph import compile_graph

        g = compile_graph(node(seq_map("inc", INT, INT)))
        assert set_defer(g, {}) is g

    def test_set_defer_missing_key(self):
        t = set_tag(INT)
        rd = node(read_defer("k", t, sset((), fixed=True)))
        with pytest.raises(MissingKey):
            set_defer(rd, {})

    def test_read_defer_emits_once(self):
        (out,) = run_op(read_defer("k", set_tag(INT), sset((0,), fixed=True)))
        assert out == sset((0,), fixed=True)

    def test_read_defer_without_value_is_stuck(self):
        from flo.graph import enabled_steps

        g = node(read_defer("k", set_tag(INT)))
        assert enabled_steps(g) == []

    def test_write_defer_never_steps(self):
        from flo.graph import enabled_steps

        g = node(write_defer("k", set_tag(INT)), (sset((1, 2)),))
        assert enabled_steps(g) == []


class TestMakeNest:
    def test_inner_fold_accepted(self):
        make_nest(node(fold(0, "add", INT, INT)), outer_bound=U)

    def test_unbounded_inner_output_rejected(self):
        from flo.seq import scan

        with pytest.raises(NestOutputUnbounded):
            make_nest(node(scan(0, "add", INT, INT, U)), outer_bound=U)

    def test_mismatched_defer_types_rejected(self):
        t1, t2 = set_tag(INT), seq_tag(INT)
        g = Par(
            seq_chain(node(read_defer("k", t1, sset((), fixed=True))), node(forward(t1, B))),
            seq_chain(node(seq_map("inc", INT, INT, B)), node(write_defer("k", t2))),
        )
        with pytest.raises(DeferContextMismatch):
            make_nest(g, outer_bound=U)


class TestNestRuns:
    def mk_nest_fold(self):
        return make_nest(node(fold(0, "add", INT, INT)), outer_bound=U)

    def test_empty_terminated_input_terminates(self):
        op = self.mk_nest_fold()
        (out,) = run_op(op, NestedSeqValue(True, (), SEQ_B))
        assert out.terminated and out.tuples == ()

    def test_single_iteration_fold(self):
        op = self.mk_nest_fold()
        value = NestedSeqValue(True, ((SeqValue(True, (2, 1)),),), SEQ_B)
        (out,) = run_op(op, value)
        assert out.terminated
        assert out.tuples == ((SeqValue(True, (3,)),),)

    def test_two_iterations_restart_state(self):
        op = self.mk_nest_fold()
        value = NestedSeqValue(
            True,
            ((SeqValue(True, (5,)),), (SeqValue(True, (2, 1)),)),
            SEQ_B,
        )
        (out,) = run_op(op, value)
        # Oldest (rightmost) runs first: sums 3 then 5.
        assert [t[0] for t in reversed(out.tuples)] == [
            SeqValue(True, (3,)),
            SeqValue(True, (5,)),
        ]

    def test_open_input_keeps_iteration_open(self):
        op = self.mk_nest_fold()
        value = NestedSeqValue(False, ((SeqValue(False, (1,)),),), SEQ_B)
        (out,) = run_op(op, value)
        assert not out.terminated
        # fold holds its sum until the inner stream terminates
        assert out.tuples == ((SeqValue(False, ()),),)

    def test_an_inner_step_that_consumes_and_emits_nothing_keeps_buffer_and_outputs(self):
        fwd = lambda: node(forward(seq_tag(INT), B))
        op = make_nest(seq_chain(fwd(), fwd(), fwd()))
        g = compile_graph(node(op, (nv(((SeqValue(True, (2, 1)),),)),)))
        for _ in range(3):  # start the iteration; the input leaf forwards its items, then its end
            g = step_first(g)[0]
        n = g.nodes[0]
        (r,) = op.steps(n.buffers, n.state)
        assert r.state.current.hint == 1  # the middle forward stepped
        assert r.buffers[0] is n.buffers[0] and r.state.iter_outputs is n.state.iter_outputs
        assert r.deltas == (EMPTY,)


class TestNestRank:
    def test_rank_outside_a_run_does_not_recompile(self, monkeypatch):
        from flo import graph
        from flo.graph import compile_graph, graph_rank, run_to_stuck
        from flo.nested import BEFORE, DONE_PHASE

        def inner():
            return seq_chain(node(seq_map("inc", INT, INT, B)), node(fold(0, "add", INT, INT)))

        # A separate template, so a run ends on it rather than on the first graph.
        op = make_nest(inner(), inner(), outer_bound=U)
        before = node(op)
        ran = run_to_stuck(node(op, (nv(((SeqValue(True, (2, 1)),),), terminated=True),)), (nv(()),))[0]
        closed = run_to_stuck(node(op, (nv((), terminated=True),)), (nv(()),))[0]
        assert before.state.phase == BEFORE
        assert ran.nodes[0].state.phase == closed.nodes[0].state.phase == DONE_PHASE
        graphs = [compile_graph(n) for n in (before, ran, closed)]
        want = [graph_rank(g) for g in graphs]
        calls = []
        plan = graph._plan
        monkeypatch.setattr(graph, "_plan", lambda e: calls.append(e) or plan(e))
        assert [graph_rank(g) for g in graphs] == want
        assert calls == []


class TestReachability:
    def edges(self):
        return ((0, 1), (1, 2), (2, 3))

    def run_radius(self, radius):
        from flo.programs import reachability_fixed

        g = reachability_fixed(root=0)
        data = (sset(self.edges(), fixed=True), SingletonNat(radius, True))
        return run_graph(g, data, budget=50_000)

    def test_radius_two_layers(self):
        (out,) = self.run_radius(2)
        assert out.terminated
        layers = [t[0].elems for t in reversed(out.tuples)]
        assert layers == [frozenset({0, 1}), frozenset({0, 1, 2})]

    def test_layers_match_bfs_oracle(self):
        (out,) = self.run_radius(3)
        for depth, tup in enumerate(reversed(out.tuples), start=1):
            assert tup[0].elems == bfs_closure(self.edges(), 0, depth)


class TestNestRunStepGate:
    """Advancing to the next tuple waits on fixed outputs and fixed defers."""

    def _nest_parts(self):
        from flo.seq import tee
        from flo.nested import write_defer
        from flo.sets import set_union

        t = set_tag(INT)
        inner = seq_chain(
            node(tee(t, B)),
            Par(node(forward(t, B)), node(write_defer("k", t))),
        )
        return t, inner, make_nest(inner, outer_bound=U)

    def _running_state(self, op, inner, write_buffer):
        # Hand-build a mid-run state: inner graph stuck, outputs fixed,
        # write_defer holding `write_buffer`.
        from flo.graph import Node
        from flo.nested import NestState, RUNNING_PHASE
        from flo.core import FINISHED

        done = FINISHED
        tee_node = Node((sset((), fixed=True),), inner.left.op, done)
        fwd_node = Node((sset((), fixed=True),), inner.right.left.op, done)
        wd_node = Node((write_buffer,), inner.right.right.op, None)
        current = seq_chain(tee_node, Par(fwd_node, wd_node))
        return NestState(RUNNING_PHASE, current, (sset((1,), fixed=True),))

    def _input_two_tuples(self, t):
        inner_types = (StreamType(t, B),)
        return NestedSeqValue(
            False,
            ((sset((), fixed=True),), (sset((), fixed=True),)),
            inner_types,
        )

    def test_blocked_while_defer_value_unfixed(self):
        t, inner, op = self._nest_parts()
        state = self._running_state(op, inner, sset((1,), fixed=False))
        assert op.steps((self._input_two_tuples(t),), state, False) == []

    def test_advances_once_defer_value_fixed(self):
        t, inner, op = self._nest_parts()
        state = self._running_state(op, inner, sset((1,), fixed=True))
        outcomes = op.steps((self._input_two_tuples(t),), state, False)
        assert [o.rule for o in outcomes] == ["nest-run-step"]
        # the next iteration's read would see nothing here (no read_defer),
        # but the tuple was consumed
        assert len(outcomes[0].buffers[0].tuples) == 1


class TestWindowedAggregation:
    def test_multiple_windows_each_folded(self):
        from flo.programs import window_fold_pipeline
        from flo.seq import seq

        # interval 3: windows close at gaps in the timestamps
        data = seq((1, 0), (2, 1), (3, 5), (4, 6), (5, 12), terminated=True)
        g = window_fold_pipeline(3)
        (out,) = run_graph(g, (data,))
        assert out.terminated
        sums = [t[0] for t in reversed(out.tuples)]
        assert sums == [SeqValue(True, (3,)), SeqValue(True, (7,)), SeqValue(True, (5,))]

    def test_pipeline_satisfies_graph_level_properties(self):
        import random

        from flo.core import gen_atom
        from flo.harness import OpCase, check_eager, check_progress
        from flo.programs import window_fold_pipeline
        from flo.core import ElemType, NAT, Payload

        pair_elem = ElemType("pair", (INT, NAT))
        rng = random.Random(12)

        def sorted_pairs(fixed):
            ts, items = 0, []
            for _ in range(rng.randint(0, 4)):
                ts += rng.randint(0, 4)
                items.append((rng.randint(0, 9), ts))
            return SeqValue(fixed, tuple(reversed(items)))

        g = window_fold_pipeline(3)
        eager_cases = []
        progress_cases = []
        for _ in range(60):
            base = sorted_pairs(rng.random() < 0.3)
            extra = sorted_pairs(rng.random() < 0.5)
            eager_cases.append(
                OpCase(buffers=(base,), delta=(Payload(extra),), presteps=rng.randint(0, 3))
            )
            progress_cases.append(OpCase(buffers=(sorted_pairs(True),)))
        assert check_eager(g, eager_cases).passed
        assert check_progress(g, progress_cases).passed
