"""Operator families: the shared skeletons and the one sequence-layout method.

The sequence operators consume their input only through
``SeqLanguage.take_oldest``, and each skeleton (per-item, pass-through,
two-input drain) keeps every outcome, rule name and rank of the operators
built on it. Every registered operator but the ones ``EVALUATED`` names
declares ``enabled_fn``, and it counts exactly the outcomes its
``steps_fn`` returns in fast mode.
"""

from dataclasses import replace

import pytest

from flo.core import EMPTY, FINISHED, INT, RUNNING, TERMINATOR, FloError, Payload, Rank, StepResult, concat
from flo.graph import Node, _kernel, compile_graph, node, run_steps, step_first
from flo.lvar import LVarValue, fold_lattice
from flo.opcatalog import REGISTRY, coin, sample_cases
from flo.scheduler import RandomSched, RoundRobin, make_picker
from flo.seq import (
    SEQ,
    AccState,
    SeqLanguage,
    fold,
    forward,
    scan,
    seq,
    seq_filter,
    seq_map,
    seq_tag,
    tee,
    window,
)
from flo.sets import EdgeJoinState, edge_join, set_tag, set_union, sset


def test_take_oldest_splits_off_the_oldest_item():
    assert SEQ.take_oldest(seq(1, 2, 3)) == (1, seq(2, 3))
    assert SEQ.take_oldest(seq(4, terminated=True)) == (4, seq(terminated=True))
    assert SEQ.take_oldest(seq()) is None
    assert SEQ.take_oldest(seq(terminated=True)) is None


CONSUMERS = {
    "map": (lambda: seq_map("inc", INT, INT), seq(1, 2)),
    "filter": (lambda: seq_filter({"name": "ge", "c": 5}, INT), seq(1, 7)),
    "scan": (lambda: scan(0, "add", INT, INT), seq(1, 2)),
    "fold": (lambda: fold(0, "add", INT, INT), seq(1, 2)),
    "window": (lambda: window(5, INT), seq((1, 0), (2, 1))),
    "fold_lattice": (lambda: fold_lattice("id", "max_nat", INT), seq(1, 2)),
    "coin": (lambda: coin(INT), seq(1, 2)),
}


@pytest.mark.parametrize("name", sorted(CONSUMERS))
def test_sequence_consumers_take_through_the_language(monkeypatch, name):
    calls = {"n": 0}
    original = SeqLanguage.take_oldest

    def counting(self, value):
        calls["n"] += 1
        return original(self, value)

    monkeypatch.setattr(SeqLanguage, "take_oldest", counting)
    build, buf = CONSUMERS[name]
    hit = step_first(node(build(), (buf,)))
    assert hit is not None
    assert hit[0].nodes[0].buffers == (original(SEQ, buf)[1],)
    assert calls["n"] == 1


def out(*items, terminated=False):
    return Payload(seq(*items, terminated=terminated))


DONE_SEQ = (seq(terminated=True),)
DONE_SETS = (sset((), fixed=True), sset((), fixed=True))
GRAPH = EdgeJoinState(frozenset({1}), frozenset({(2, 3)}), False)

# (operator, buffers, state) -> (outcomes, rank): an item step and the closing step of each.
TABLE = [
    (
        "map item",
        lambda: seq_map("inc", INT, INT),
        (seq(1, 2),),
        RUNNING,
        [StepResult((seq(2),), RUNNING, (out(2),), "map")],
        (3,),
    ),
    (
        "map close",
        lambda: seq_map("inc", INT, INT),
        DONE_SEQ,
        RUNNING,
        [StepResult(DONE_SEQ, FINISHED, (TERMINATOR,), "map-terminator")],
        (1,),
    ),
    (
        "filter drops",
        lambda: seq_filter({"name": "ge", "c": 5}, INT),
        (seq(3, 7),),
        RUNNING,
        [StepResult((seq(7),), RUNNING, (EMPTY,), "filter")],
        (3,),
    ),
    (
        "filter keeps",
        lambda: seq_filter({"name": "ge", "c": 5}, INT),
        (seq(7),),
        RUNNING,
        [StepResult((seq(),), RUNNING, (out(7),), "filter")],
        (2,),
    ),
    (
        "filter close",
        lambda: seq_filter({"name": "ge", "c": 5}, INT),
        DONE_SEQ,
        RUNNING,
        [StepResult(DONE_SEQ, FINISHED, (TERMINATOR,), "filter-terminator")],
        (1,),
    ),
    (
        "scan item",
        lambda: scan(0, "add", INT, INT),
        (seq(2, 3),),
        AccState(1, False),
        [StepResult((seq(3),), AccState(3, False), (out(3),), "scan")],
        (3,),
    ),
    (
        "scan close",
        lambda: scan(0, "add", INT, INT),
        DONE_SEQ,
        AccState(3, False),
        [StepResult(DONE_SEQ, AccState(3, True), (TERMINATOR,), "scan-terminator")],
        (1,),
    ),
    (
        "fold item",
        lambda: fold(0, "add", INT, INT),
        (seq(2, 3),),
        AccState(1, False),
        [StepResult((seq(3),), AccState(3, False), (EMPTY,), "fold")],
        (3,),
    ),
    (
        "fold close",
        lambda: fold(0, "add", INT, INT),
        DONE_SEQ,
        AccState(3, False),
        [StepResult(DONE_SEQ, AccState(3, True), (out(3, terminated=True),), "fold-terminator")],
        (1,),
    ),
    (
        "fold_lattice item",
        lambda: fold_lattice("id", "max_nat", INT),
        (seq(4, 1),),
        RUNNING,
        [StepResult((seq(1),), RUNNING, (Payload(LVarValue("max_nat", 4, False)),), "fold-lattice")],
        (3,),
    ),
    (
        "fold_lattice close",
        lambda: fold_lattice("id", "max_nat", INT),
        DONE_SEQ,
        RUNNING,
        [StepResult(DONE_SEQ, FINISHED, (TERMINATOR,), "fold-lattice-terminated")],
        (1,),
    ),
    (
        "tee item",
        lambda: tee(seq_tag(INT)),
        (seq(1, 2),),
        RUNNING,
        [StepResult((seq(),), RUNNING, (out(1, 2), out(1, 2)), "tee")],
        (3,),
    ),
    (
        "tee close",
        lambda: tee(seq_tag(INT)),
        DONE_SEQ,
        RUNNING,
        [StepResult(DONE_SEQ, FINISHED, (TERMINATOR, TERMINATOR), "tee-terminator")],
        (1,),
    ),
    (
        "forward item",
        lambda: forward(set_tag(INT)),
        (sset({1, 2}),),
        RUNNING,
        [StepResult((sset(()),), RUNNING, (Payload(sset({1, 2})),), "forward")],
        (3,),
    ),
    (
        "forward close",
        lambda: forward(set_tag(INT)),
        (sset((), fixed=True),),
        RUNNING,
        [StepResult((sset((), fixed=True),), FINISHED, (TERMINATOR,), "forward-terminator")],
        (1,),
    ),
    (
        "set_union items",
        lambda: set_union(INT),
        (sset({1}), sset({2}, fixed=True)),
        RUNNING,
        [
            StepResult((sset(()), sset({2}, fixed=True)), RUNNING, (Payload(sset({1})),), "union-left"),
            StepResult((sset({1}), sset((), fixed=True)), RUNNING, (Payload(sset({2})),), "union-right"),
        ],
        (3,),
    ),
    (
        "set_union close",
        lambda: set_union(INT),
        DONE_SETS,
        RUNNING,
        [StepResult(DONE_SETS, FINISHED, (TERMINATOR,), "union-terminated")],
        (1,),
    ),
    (
        "edge_join items",
        lambda: edge_join(INT),
        (sset({2}), sset({(1, 5)})),
        GRAPH,
        [
            StepResult(
                (sset(()), sset({(1, 5)})),
                EdgeJoinState(frozenset({1, 2}), frozenset({(2, 3)}), False),
                (Payload(sset({3})),),
                "edge-join-nodes",
            ),
            StepResult(
                (sset({2}), sset(())),
                EdgeJoinState(frozenset({1}), frozenset({(2, 3), (1, 5)}), False),
                (Payload(sset({5})),),
                "edge-join-edges",
            ),
        ],
        (3,),
    ),
    (
        "edge_join close",
        lambda: edge_join(INT),
        DONE_SETS,
        GRAPH,
        [
            StepResult(
                DONE_SETS,
                EdgeJoinState(frozenset({1}), frozenset({(2, 3)}), True),
                (TERMINATOR,),
                "edge-join-terminated",
            )
        ],
        (1,),
    ),
]


@pytest.mark.parametrize("case", TABLE, ids=[row[0] for row in TABLE])
def test_outcomes_rules_and_ranks_are_pinned(case):
    _, build, buffers, state, outcomes, rank = case
    op = build()
    assert op.steps(buffers, state) == outcomes
    assert op.steps(buffers, state, True) == outcomes
    assert op.rank(buffers, state) == Rank(rank)
    assert op.rank_arity == 1
    for r in outcomes:
        assert op.rank(r.buffers, r.state) < op.rank(buffers, state)


def test_stuck_operators_have_no_outcomes():
    assert seq_map("inc", INT, INT).steps((seq(),), RUNNING) == []
    assert seq_map("inc", INT, INT).steps(DONE_SEQ, FINISHED) == []
    assert tee(seq_tag(INT)).steps(DONE_SEQ, FINISHED) == []
    assert set_union(INT).steps((sset(()), sset((), fixed=True)), RUNNING) == []
    assert edge_join(INT).steps(DONE_SETS, EdgeJoinState(frozenset(), frozenset(), True)) == []


# ---------------------------------------------------------------------------
# enabled_fn: a step count that must equal the outcomes it stands for


# Registered operators that keep the evaluate fallback, each with its reason.
EVALUATED = {
    "nest": "its count is an inner step of its graph, which is the evaluation itself",
    "zip": "its count would restate nearly every branch of its steps_fn",
    "repeat_nested": "its count would restate every branch of its steps_fn, and a step builds one Push",
    "constant_rank": "rank-law fixture that is never stuck: each of its runs ends at a step cap",
}


def counted_ops():
    """(registry name, operator) for every registered operator that declares
    ``enabled_fn``."""
    return [(name, entry.op) for name, entry in sorted(REGISTRY.items()) if entry.op.enabled_fn is not None]


def test_every_operator_but_the_named_ones_declares_its_count():
    evaluated = {name for name, entry in REGISTRY.items() if entry.op.enabled_fn is None}
    assert evaluated == set(EVALUATED)


def walked_nodes(op):
    """The node at every configuration along runs of ``op`` from its sampled
    cases: the picker-less run and seeded ``RandomSched`` runs, from each
    case's buffers and again after feeding the case's delta at the stuck
    state. The runs evaluate ``op`` with its ``enabled_fn`` removed, so
    they reach the same configurations whatever that count says."""
    bare = replace(op, enabled_fn=None)
    pickers = [lambda: None] + [lambda s=s: make_picker(RandomSched(s)) for s in (1, 2, 3)]
    for kind in ("eager", "progress", "rank"):
        for case in sample_cases(op.inputs, kind, 150, seed=11):
            for new_picker in pickers:
                stuck = node(bare, case.buffers)
                yield stuck
                for nodes, *_step in _kernel(compile_graph(stuck), new_picker(), 10_000):
                    stuck = nodes[0]
                    yield stuck
                if case.delta:
                    # Feed the case's delta at the stuck state and run on from there.
                    fed = Node(tuple(concat(b, d) for b, d in zip(stuck.buffers, case.delta)), bare, stuck.state)
                    yield fed
                    for nodes, *_step in _kernel(compile_graph(fed), new_picker(), 10_000):
                        yield nodes[0]


def miscounted(op, enabled):
    """The walked (buffers, state) pairs at which ``enabled`` is not the
    number of ``op``'s fast-mode outcomes."""
    return [
        (n.buffers, n.state)
        for n in walked_nodes(op)
        if enabled(n.buffers, n.state) != len(op.steps_fn(n.buffers, n.state, False))
    ]


@pytest.mark.parametrize("name,op", counted_ops(), ids=[name for name, _op in counted_ops()])
def test_enabled_fn_counts_the_fast_outcomes(name, op):
    assert miscounted(op, op.enabled_fn) == []


def test_the_walk_reaches_two_outcome_drains_and_both_sided_joins():
    # The walk meets set_union with both sides pending (two outcomes, of
    # which RandomSched runs take either) and zset_join with cards on both.
    union = REGISTRY["set_union"].op
    counts = [union.enabled_fn(n.buffers, n.state) for n in walked_nodes(union)]
    assert counts.count(2) > 50
    join = REGISTRY["zset_join"].op
    both = [n for n in walked_nodes(join) if n.buffers[0].cards and n.buffers[1].cards]
    assert len(both) > 50


@pytest.mark.parametrize(
    "wrong",
    [
        lambda right: lambda buffers, state: 1 if not state.done else right(buffers, state),
        lambda right: lambda buffers, state: 0 if buffers[1].cards and not buffers[0].cards else right(buffers, state),
    ],
    ids=["one-when-stuck", "zero-with-right-cards"],
)
def test_the_count_test_catches_a_wrong_zset_join_count(wrong):
    join = REGISTRY["zset_join"].op
    assert miscounted(join, wrong(join.enabled_fn)) != []


@pytest.mark.parametrize("sched", [None, RoundRobin()], ids=["first", "roundrobin"])
@pytest.mark.parametrize("says", [1, 2])
def test_a_wrong_enabled_fn_stops_the_run(sched, says):
    # Right on the first item when it says 1, then wrong once the buffer is empty.
    op = replace(seq_map("inc", INT, INT), enabled_fn=lambda buffers, state: says)
    picker = None if sched is None else make_picker(sched)
    with pytest.raises(FloError, match="map: enabled_fn counts"):
        run_steps(node(op, (seq(1),)), (seq(),), picker, cap=5)


@pytest.mark.parametrize("sched", [None, RoundRobin()], ids=["first", "roundrobin"])
def test_a_count_that_is_too_low_ends_the_run_without_an_error(sched):
    # The run compares a count with the outcomes only on the leaf it steps,
    # so a leaf counted as stuck is never evaluated and the run just ends.
    # Only test_enabled_fn_counts_the_fast_outcomes catches such a count.
    op = replace(seq_map("inc", INT, INT), enabled_fn=lambda buffers, state: 0)
    picker = None if sched is None else make_picker(sched)
    g, outs, steps = run_steps(node(op, (seq(1),)), (seq(),), picker, cap=5)
    assert steps == 0 and outs == (seq(),) and g.nodes[0].buffers == (seq(1),)
