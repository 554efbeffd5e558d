"""Graph composition: typechecking, exterior inputs, small steps, stuck runs."""

from collections import deque

import pytest

from conftest import run_graph

from flo.core import (
    ArityMismatch,
    B,
    BoundednessViolation,
    DeferKeyReusedOrUnused,
    DeferKeyUnbound,
    EMPTY,
    INT,
    OperatorDef,
    Payload,
    Rank,
    RankViolation,
    StepBudgetExceeded,
    StreamType,
    SubtypeMismatch,
    U,
    bottom,
)
from flo.graph import (
    Par,
    Seq,
    apply_outputs,
    compile_graph,
    enabled_steps,
    explore_all,
    graph_rank,
    inputs,
    node,
    out_types,
    run_to_stuck,
    seq_chain,
    set_inputs,
    step_graph,
    typecheck,
)
from flo.nested import write_defer, make_nest
from flo.seq import SeqValue, fold, scan, seq, seq_map, seq_tag, tee, forward
from flo.sets import set_tag
from flo.zset import zset, zset_join, zset_map


def scan_map():
    return seq_chain(node(scan(0, "add", INT, INT, U)), node(seq_map("inc", INT, INT, U)))


class TestTypecheck:
    def test_scan_then_map_types(self):
        gt = typecheck(scan_map())
        assert gt.inputs == (StreamType(seq_tag(INT), U),)
        assert gt.outputs == (StreamType(seq_tag(INT), U),)

    def test_fold_fed_unbounded_rejected(self):
        g = seq_chain(node(seq_map("inc", INT, INT, U)), node(fold(0, "add", INT, INT)))
        with pytest.raises(BoundednessViolation):
            typecheck(g)

    def test_bounded_feeds_unbounded_by_subtyping(self):
        g = seq_chain(node(seq_map("inc", INT, INT, B)), node(seq_map("inc", INT, INT, U)))
        gt = typecheck(g)
        assert gt.inputs[0].bound is B
        assert gt.outputs[0].bound is U

    def test_collection_mismatch_is_subtype_error(self):
        from flo.sets import set_union

        g = seq_chain(node(seq_map("inc", INT, INT, U)), node(forward(set_tag(INT), U)))
        with pytest.raises(SubtypeMismatch):
            typecheck(g)

    def test_arity_mismatch(self):
        g = seq_chain(node(seq_map("inc", INT, INT, U)), node(tee(seq_tag(INT), U)))
        typecheck(g)  # 1 -> 1 feeding 1 -> 2 is fine
        g2 = seq_chain(node(tee(seq_tag(INT), U)), node(seq_map("inc", INT, INT, U)))
        with pytest.raises(ArityMismatch):
            typecheck(g2)

    def test_defer_outside_nest_rejected(self):
        g = node(write_defer("k", set_tag(INT)))
        with pytest.raises(DeferKeyUnbound):
            typecheck(g)

    def test_duplicate_write_defer_rejected(self):
        t = set_tag(INT)
        g = Par(node(write_defer("k", t)), node(write_defer("k", t)))
        with pytest.raises(DeferKeyReusedOrUnused):
            make_nest(
                seq_chain(node(tee(t, B)), g),
                outer_bound=U,
            )


class TestInputs:
    def test_node_inputs_are_buffers(self):
        n = node(seq_map("inc", INT, INT), (seq(1),))
        assert inputs(n) == (seq(1),)

    def test_par_concatenates(self):
        g = Par(node(seq_map("inc", INT, INT), (seq(1),)), node(seq_map("inc", INT, INT), (seq(2),)))
        assert inputs(g) == (seq(1), seq(2))

    def test_seq_takes_left(self):
        g = Seq(node(seq_map("inc", INT, INT), (seq(1),)), node(seq_map("inc", INT, INT), (seq(2),)))
        assert inputs(g) == (seq(1),)

    def test_set_inputs_respects_structure(self):
        g = Seq(node(seq_map("inc", INT, INT), (seq(1),)), node(seq_map("inc", INT, INT), (seq(2),)))
        g2 = set_inputs(g, (seq(5),))
        assert g2.nodes[0].buffers == (seq(5),)
        assert g2.nodes[1].buffers == (seq(2),)  # right untouched

    def test_set_inputs_arity_checked(self):
        n = node(seq_map("inc", INT, INT))
        with pytest.raises(ArityMismatch):
            set_inputs(n, (seq(1), seq(2)))


class TestSteps:
    def test_stuck_graph_has_no_steps(self):
        assert enabled_steps(node(seq_map("inc", INT, INT))) == []

    def test_seq_left_feeds_right_and_emits_empty(self):
        g = Seq(node(seq_map("inc", INT, INT), (seq(1),)), node(scan(0, "add", INT, INT)))
        choices = enabled_steps(g)
        assert len(choices) == 1
        g2, deltas = step_graph(g, choices[0])
        assert deltas == (EMPTY,)
        assert g2.plan.where(choices[0].leaf)[1] == ("sequence-left", "operator")
        assert g2.nodes[1].buffers == (SeqValue(False, (2,)),)

    def test_sequence_left_preserves_right_state(self):
        g = Seq(node(seq_map("inc", INT, INT), (seq(1),)), node(scan(0, "add", INT, INT)))
        g2, _ = step_graph(g, enabled_steps(g)[0])
        assert g2.nodes[1].state is g.right.state

    def test_par_pads_other_side(self):
        g = Par(node(seq_map("inc", INT, INT), (seq(1),)), node(seq_map("inc", INT, INT)))
        g2, deltas = step_graph(g, enabled_steps(g)[0])
        assert g2.plan.where(0)[1][0] == "par-left"
        assert deltas == (Payload(SeqValue(False, (2,))), EMPTY)

    def test_two_sides_give_two_choices(self):
        g = Par(node(seq_map("inc", INT, INT), (seq(1),)), node(seq_map("inc", INT, INT), (seq(2),)))
        assert len(enabled_steps(g)) == 2


class TestRunToStuck:
    def test_scan_spec_example(self):
        (out,) = run_graph(node(scan(0, "add", INT, INT)), (SeqValue(False, (2, 1)),))
        assert out == SeqValue(False, (3, 1))

    def test_already_stuck_unchanged(self):
        g = compile_graph(node(seq_map("inc", INT, INT)))
        g2, outs, steps = run_to_stuck(g, (SeqValue(False, ()),))
        assert steps == 0 and g2 is g

    def test_schedules_agree(self):
        import random

        g0 = scan_map()
        g0 = set_inputs(g0, (seq(1, 2, 3, terminated=True),))
        outs0 = (SeqValue(False, ()),)
        base = run_to_stuck(g0, outs0)[:2]
        rng = random.Random(7)

        def random_picker(n):
            return rng.randrange(n)

        for _ in range(20):
            assert run_to_stuck(g0, outs0, picker=random_picker)[:2] == base

    def test_graph_rank_decreases_along_run(self):
        g = set_inputs(scan_map(), (seq(1, 2, terminated=True),))
        outs = (SeqValue(False, ()),)
        prev = graph_rank(g)
        while True:
            choices = enabled_steps(g)
            if not choices:
                break
            g, deltas = step_graph(g, choices[0])
            cur = graph_rank(g)
            assert cur < prev
            prev = cur


def test_both_sides_of_seq_steppable_give_two_choices():
    g = Seq(
        node(seq_map("inc", INT, INT), (seq(1),)),
        node(scan(0, "add", INT, INT), (seq(9),)),
    )
    assert len(enabled_steps(g)) == 2


def test_invalid_choice_rejected():
    from flo.core import InvalidChoice
    from flo.graph import StepChoice

    g = node(seq_map("inc", INT, INT), (seq(1),))
    for index in (5, -1):  # a negative index is no choice, not one counted from the end
        with pytest.raises(InvalidChoice):
            step_graph(g, StepChoice(0, index))
    for leaf in (1, -1):
        with pytest.raises(InvalidChoice):
            step_graph(g, StepChoice(leaf, 0))


def test_budget_exhaustion_on_a_valid_pipeline_reports_the_cap():
    # 6 000 items through two maps need 12 000 steps: more than the default
    # cap, though every rank descends. The error must say so, not blame ranks.
    g = seq_chain(node(seq_map("inc", INT, INT, U)), node(seq_map("inc", INT, INT, U)))
    g = set_inputs(g, (seq(*range(6000)),))
    with pytest.raises(StepBudgetExceeded) as err:
        run_to_stuck(g, (SeqValue(False, ()),))
    msg = str(err.value)
    assert "step budget of 10000" in msg and "after 10001 steps" in msg
    assert "graph rank is still" in msg
    assert "violation" not in msg.lower() and "rank bug" not in msg


def toy_op(rank_components, rank_arity):
    return OperatorDef(
        name="toy",
        inputs=(StreamType(seq_tag(INT), U),),
        outputs=(),
        initial_state=None,
        steps_fn=lambda buffers, state, exhaustive: [],
        rank_fn=lambda buffers, state: Rank(rank_components),
        rank_arity=rank_arity,
    )


class TestGraphRankArity:
    def test_short_rank_is_padded(self):
        g = Par(node(toy_op((3,), 2)), node(toy_op((5,), 1)))
        assert graph_rank(g).components == (3, 0, 5)

    def test_over_long_rank_rejected(self):
        with pytest.raises(RankViolation, match=r"toy: rank has 2 components, rank_arity is 1"):
            graph_rank(node(toy_op((1, 2), 1)))


def bfs_depths(g, outs):
    """Oracle: the length of a shortest schedule to every reachable configuration."""
    start = (g, outs)
    depth = {start: 0}
    queue = deque([start])
    while queue:
        cfg = queue.popleft()
        for ch in enabled_steps(cfg[0], exhaustive=True):
            g2, deltas = step_graph(cfg[0], ch, exhaustive=True)
            nxt = (g2, apply_outputs(cfg[1], deltas))
            if nxt not in depth:
                depth[nxt] = depth[cfg] + 1
                queue.append(nxt)
    return depth


def test_explore_all_returns_shortest_schedules():
    # zset_join drains its buffers in one canonical step or one key at a
    # time, so the same configurations lie on schedules of different lengths.
    scale = {"name": "scale", "c": 2}
    g = seq_chain(Par(node(zset_map(scale, INT)), node(zset_map(scale, INT))), node(zset_join(INT)))
    g = set_inputs(g, (zset({1: 1, 2: 1}), zset({1: 1})))
    outs = tuple(bottom(st.collection) for st in out_types(g))
    res = explore_all(g, outs)
    depth = bfs_depths(g, outs)
    assert res.visited == len(depth) and not res.capped
    assert res.stuck
    for stuck in res.stuck:
        path = res.path_to(stuck)
        assert len(path) == depth[stuck]
        cur_g, cur_o = g, outs
        for ch in path:
            cur_g, deltas = step_graph(cur_g, ch, exhaustive=True)
            cur_o = apply_outputs(cur_o, deltas)
        assert (cur_g, cur_o) == stuck
