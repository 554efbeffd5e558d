"""Operator families: the shared skeletons and the one sequence-layout method.

The sequence operators consume their input only through
``SeqLanguage.take_oldest``, and each skeleton (per-item, pass-through,
two-input drain) keeps every outcome, rule name and rank of the operators
built on it.
"""

import pytest

from flo.core import EMPTY, FINISHED, INT, RUNNING, TERMINATOR, Payload, Rank, StepResult
from flo.graph import node, step_first
from flo.lvar import LVarValue, fold_lattice
from flo.opcatalog import coin
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
    assert hit[0].buffers == (original(SEQ, buf)[1],)
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
