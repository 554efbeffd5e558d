"""The step engine: outcome reuse, the outcome memo, and what they must not change."""

import tracemalloc
from pathlib import Path

import pytest

from flo import graph as graph_module
from flo import scheduler
from flo.cli import main
from flo.core import (
    ANY,
    BOOL,
    INT,
    NAT,
    STR,
    TERMINATOR,
    U,
    ElemType,
    FloError,
    OperatorDef,
    Payload,
    Push,
    StepBudgetExceeded,
    StepResult,
    StreamType,
    bottom,
    pair,
)
from flo.graph import (
    FlatGraph,
    Node,
    Par,
    StepChoice,
    StepEvent,
    apply_outputs,
    compile_graph,
    enabled_steps,
    explore_all,
    node,
    out_types,
    run_to_stuck,
    seq_chain,
    set_inputs,
    step_first,
    step_graph,
    trajectory,
)
from flo.harness import OpCase, check_determinism, check_rank_and_preservation
from flo.programs import five_node_graph, reachability_dynamic
from flo.scheduler import InputBatch, RandomSched, RoundRobin, TraceStep, run_trace
from flo.seq import SeqValue, SingletonNat, scan, seq, seq_filter, seq_map, seq_tag
from flo.sets import sset

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture
def op_calls(monkeypatch):
    """Count every operator evaluation (``OperatorDef.steps``)."""
    counter = {"n": 0}
    original = OperatorDef.steps

    def counting(self, buffers, state, exhaustive=False):
        counter["n"] += 1
        return original(self, buffers, state, exhaustive)

    monkeypatch.setattr(OperatorDef, "steps", counting)
    return counter


def map_filter_scan():
    return seq_chain(
        node(seq_map("inc", INT, INT, U)),
        node(seq_filter({"name": "ge", "c": 3}, INT, U)),
        node(scan(0, "add", INT, INT, U)),
    )


# ---------------------------------------------------------------------------
# counts that the engine must keep down


def test_round_robin_trace_evaluates_each_node_at_most_once_per_step(op_calls):
    trace = [
        TraceStep(InputBatch((Payload(seq(*range(i, i + 5))),)), None) for i in range(0, 40, 5)
    ]
    res = run_trace(map_filter_scan(), trace, RoundRobin())
    steps = len(res.log)
    assert steps > 40
    # Listing the enabled steps evaluates each node at most once, and the
    # chosen step reuses that outcome; no extra evaluation per step.
    assert op_calls["n"] <= 3 * steps


def test_round_robin_trace_evaluates_only_replaced_nodes(op_calls):
    trace = [
        TraceStep(InputBatch((Payload(seq(*range(i, i + 5))),)), None) for i in range(0, 40, 5)
    ]
    res = run_trace(map_filter_scan(), trace, RoundRobin())
    # A step replaces the stepped node and at most one node it feeds; every
    # other node keeps the outcomes it was listed with.
    assert op_calls["n"] <= 2 * len(res.log)


def test_steps_that_reach_no_output_skip_the_output_fold(monkeypatch):
    folds = {"n": 0}
    original = graph_module.apply_outputs

    def counting(outputs, deltas):
        folds["n"] += 1
        return original(outputs, deltas)

    monkeypatch.setattr(graph_module, "apply_outputs", counting)
    chain = seq_chain(*(node(seq_map("inc", INT, INT, U)) for _ in range(3)))
    g = set_inputs(chain, (seq(*range(10), terminated=True),))
    _, outs, steps = run_to_stuck(g, (bottom(seq_tag(INT)),))
    assert steps == 33
    assert outs == (seq(*range(3, 13), terminated=True),)
    # Only the last map's 10 items and its terminator reach the output.
    assert folds["n"] <= 11


def test_reachability_makes_few_evaluations_per_step(op_calls):
    edges = [(0, 1), (1, 2), (2, 3), (3, 4), (0, 5)]
    trace = []
    for es, k in ((edges[:2], 1), (edges[:4], 3), (edges, 2)):
        batch = (Push((sset(es, fixed=True),)), Push((SingletonNat(k, True),)))
        trace.append(TraceStep(InputBatch(batch), None))
    trace.append(TraceStep(InputBatch((TERMINATOR, TERMINATOR)), None))
    res = run_trace(reachability_dynamic(0, 3), trace, RoundRobin())
    steps = len(res.log)
    assert steps > 50
    assert op_calls["n"] <= 4 * steps
    (out,) = res.totals
    assert [t[0].elems for t in reversed(out.tuples)] == [
        frozenset({0, 1}),
        frozenset({0, 1, 2, 3, 4}),
        frozenset({0, 1, 2, 3, 4, 5}),
    ]


def test_chosen_step_reuses_its_listed_outcome(op_calls):
    g = set_inputs(map_filter_scan(), (seq(1, 2, 3),))
    (choice,) = enabled_steps(g)
    before = op_calls["n"]
    step_graph(g, choice)
    assert op_calls["n"] == before


def test_a_node_is_evaluated_once_per_step_mode(op_calls):
    def map_scan():
        g = seq_chain(node(seq_map("inc", INT, INT)), node(scan(0, "add", INT, INT)))
        return set_inputs(g, (seq(1, 2),))

    # Listing the same tree twice, or stepping it through a fresh compiled
    # graph, reuses the outcomes its nodes keep.
    tree = map_scan()
    counts = []
    for _ in range(2):
        assert enabled_steps(tree) == [StepChoice(("L",), 0)]
        counts.append(op_calls["n"])
    step_first(compile_graph(tree))
    counts.append(op_calls["n"])
    assert counts == [2, 2, 2]
    # A list made in one step mode does not answer for the other: after an
    # exhaustive listing, each node is evaluated once more in fast mode.
    tree, before = map_scan(), op_calls["n"]
    enabled_steps(tree, exhaustive=True)
    assert op_calls["n"] - before == 2
    for _ in range(2):
        enabled_steps(tree)
        step_first(compile_graph(tree))
    assert op_calls["n"] - before == 4


def test_a_choice_listed_on_another_graph_is_re_evaluated():
    g1 = node(seq_map("inc", INT, INT), (seq(1),))
    g2 = node(seq_map("inc", INT, INT), (seq(5),))
    (choice,) = enabled_steps(g1)
    _, deltas, _ = step_graph(g2, choice)
    assert deltas[0].value == seq(6)


def test_stuck_subtrees_are_skipped(op_calls):
    stuck_left = seq_chain(node(seq_map("inc", INT, INT)), node(scan(0, "add", INT, INT)))
    g = Par(stuck_left, node(seq_map("inc", INT, INT), (seq(1, 2, 3),)))
    assert step_first(stuck_left) is None
    before = op_calls["n"]
    g, _, _, _ = step_first(g)
    g, _, _, _ = step_first(g)
    assert op_calls["n"] - before == 2  # only the right node, once per step


# ---------------------------------------------------------------------------
# the memo is a cache, not state


def rebuild(e):
    """A structurally equal copy made of new objects, so with no memo set."""
    if isinstance(e, Node):
        return Node(e.buffers, e.op, e.state)
    return type(e)(rebuild(e.left), rebuild(e.right))


def test_memo_leaves_equality_hash_and_repr_alone():
    g = set_inputs(map_filter_scan(), (seq(1, 2),))
    done, _, _ = run_to_stuck(g, (SeqValue(False, ()),))
    fresh = rebuild(done)
    leaf, fresh_leaf = done.right.right, fresh.right.right
    assert leaf._fast == [] and fresh_leaf._fast is None and fresh_leaf._full is None
    assert done == fresh and hash(done) == hash(fresh) and repr(done) == repr(fresh)
    assert len({done, fresh}) == 1


def test_memo_is_kept_per_mode():
    # Stuck on the fast path, but with an extra choice when exhaustive.
    def steps(buffers, state, exhaustive):
        if state or not exhaustive:
            return []
        return [StepResult(buffers, True, (), "late")]

    op = OperatorDef("late", (StreamType(seq_tag(INT), U),), (), False, steps, lambda b, s: None)
    g = node(op)
    assert step_first(g) is None and enabled_steps(g) == []
    assert len(enabled_steps(g, exhaustive=True)) == 1
    assert len(explore_all(g, ()).stuck) == 1


def test_set_inputs_keeps_untouched_subtrees():
    g = Par(map_filter_scan(), node(seq_map("inc", INT, INT)))
    ins = (seq(1), seq(2))
    g = set_inputs(g, ins)
    assert set_inputs(g, ins) is g
    moved = set_inputs(g, (ins[0], seq(3)))
    assert moved.left is g.left and moved.right is not g.right


def test_step_choices_compare_without_their_outcome():
    g = node(seq_map("inc", INT, INT), (seq(1),))
    (listed,) = enabled_steps(g)
    assert listed == StepChoice((), 0) and hash(listed) == hash(StepChoice((), 0))
    assert repr(listed) == repr(StepChoice((), 0))


# ---------------------------------------------------------------------------
# the event log


def test_event_log_shares_one_event_per_choice_and_iteration():
    trace = [
        TraceStep(InputBatch((Payload(seq(*range(i, i + 500))),)), None) for i in range(0, 20_000, 500)
    ]
    tracemalloc.start()
    try:
        res = run_trace(map_filter_scan(), trace, RoundRobin())
        retained, _peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(res.log) == 59_998
    # One event per (leaf, choice) taken in an iteration: three leaves, one
    # choice each, forty iterations.
    assert len(set(map(id, res.log))) <= 3 * 40
    # A fresh dict per step retained 324 bytes; a shared event costs the
    # log's pointer to it.
    assert retained / len(res.log) < 64


def dict_run_steps(e, outputs, picker=None, cap=None, log=None, iteration=None):
    """``run_steps`` logging a fresh ``--log`` dict per step, built straight
    from what ``trajectory`` yields."""
    g, steps = compile_graph(e), 0
    for g, deltas, rules, choice in trajectory(g, picker, cap):
        outputs = apply_outputs(outputs, deltas)
        if log is not None:
            entry = {"path": "".join(choice.path), "choice": choice.index, "rules": list(rules)}
            if iteration is not None:
                entry["iter"] = iteration
            log.append(entry)
        steps += 1
    return g if isinstance(e, FlatGraph) else g.tree(), outputs, steps


def seq_batches():
    return [TraceStep(InputBatch((Payload(seq(*range(i, i + 5))),)), None) for i in range(0, 40, 5)]


def reach_batches():
    edges = [(0, 1), (1, 2), (2, 3), (3, 4), (0, 5)]
    trace = [
        TraceStep(InputBatch((Push((sset(edges[:n], fixed=True),)), Push((SingletonNat(k, True),)))), None)
        for n, k in ((2, 1), (4, 3), (5, 2))
    ]
    return trace + [TraceStep(InputBatch((TERMINATOR, TERMINATOR)), None)]


@pytest.mark.parametrize(
    "make,batches,sched",
    [
        (map_filter_scan, seq_batches, RoundRobin()),
        (lambda: reachability_dynamic(0, 3), reach_batches, RandomSched(3)),
    ],
    ids=["map_filter_scan-roundrobin", "reachability_dynamic-random"],
)
def test_run_trace_event_as_dict_is_the_per_step_dict(monkeypatch, make, batches, sched):
    events = run_trace(make(), batches(), sched).log
    monkeypatch.setattr(scheduler, "run_steps", dict_run_steps)
    dicts = run_trace(make(), batches(), sched).log
    assert all(isinstance(ev, StepEvent) for ev in events)
    assert len({ev.path for ev in events}) > 1
    assert [ev.as_dict() for ev in events] == dicts


def test_run_to_stuck_events_have_no_iteration():
    g = set_inputs(map_filter_scan(), (seq(1, 2, 3),))
    log: list = []
    run_to_stuck(g, tuple(bottom(st.collection) for st in out_types(g)), log=log)
    assert log and all(ev.iteration is None and "iter" not in ev.as_dict() for ev in log)
    assert log[0].as_dict() == {"path": "L", "choice": 0, "rules": ["sequence-left", "operator"]}


# ---------------------------------------------------------------------------
# behaviour that must not move


@pytest.mark.parametrize("n,configs", [(2, 50), (4, 385), (6, 1596), (8, 4785)])
def test_explore_all_config_counts_are_unchanged(n, configs):
    g = set_inputs(five_node_graph(), (seq(*range(n)), seq(*[(0 if i % 2 else 5) for i in range(n)])))
    outs = tuple(bottom(st.collection) for st in out_types(g))
    res = explore_all(g, outs, max_configs=10**6)
    assert res.visited == configs and not res.capped
    assert len(set(res.stuck)) == 1


@pytest.mark.parametrize(
    "name,schedule,seed",
    [
        ("par_pipelines", "roundrobin", 5),
        ("par_pipelines", "random", 5),
        ("reach_dynamic", "random", 2),
        ("zset_mix", "roundrobin", 3),
        ("window_fold", "random", 4),
    ],
)
def test_run_log_bytes_are_unchanged(tmp_path, capsys, name, schedule, seed):
    log = tmp_path / "steps.jsonl"
    args = [str(FIXTURES / f"{name}.graph.json"), str(FIXTURES / f"{name}.trace.json")]
    assert main(["run", *args, "--schedule", schedule, "--seed", str(seed), "--log", str(log)]) == 0
    capsys.readouterr()
    assert log.read_bytes() == (FIXTURES / f"{name}.{schedule}.log.jsonl").read_bytes()


# ---------------------------------------------------------------------------
# step caps report a budget


def test_rank_check_passes_a_long_valid_run_with_budget():
    report = check_rank_and_preservation(seq_map("inc"), [OpCase((seq(*range(5000)),))], budget=6000)
    assert report.passed


def test_rank_check_cap_is_a_budget_not_a_rank_failure():
    with pytest.raises(StepBudgetExceeded) as err:
        check_rank_and_preservation(seq_map("inc"), [OpCase((seq(*range(5000)),))])
    msg = str(err.value)
    assert "step budget of 4000" in msg and "after 4001 steps" in msg
    assert "graph rank is still" in msg


def test_sampled_determinism_has_a_step_cap():
    g = seq_chain(node(seq_map("inc", INT, INT, U)), node(seq_map("inc", INT, INT, U)))
    with pytest.raises(StepBudgetExceeded, match="step budget of 5"):
        check_determinism(g, (seq(*range(20)),), mode="sampled", samples=2, budget=5)
    assert check_determinism(g, (seq(*range(20)),), mode="sampled", samples=2).passed


# ---------------------------------------------------------------------------
# compiled element types


ELEM_TYPES = [
    ANY,
    INT,
    NAT,
    BOOL,
    STR,
    pair(INT, INT),
    pair(NAT, STR),
    pair(pair(INT, BOOL), ANY),
]
VALUES = [0, 1, -1, 10**20, -(10**20), True, False, "", "a", 1.5, None, (), (1,), (1, 2), (-1, 2),
          (1, -2), (True, 2), (1, "x"), ((1, True), None), ((1, 1), 2), (1, 2, 3), [1, 2], frozenset()]


@pytest.mark.parametrize("t", ELEM_TYPES, ids=str)
def test_compiled_predicate_agrees_with_matches(t):
    for v in VALUES:
        assert t.check(v) == t.matches(v), (t, v)
    assert not t.check(True) or t.name in ("any", "bool")
    assert ElemType(t.name, t.args) == t and hash(ElemType(t.name, t.args)) == hash(t)


def test_unknown_element_type_still_fails_when_used():
    t = ElemType("float")
    with pytest.raises(FloError):
        t.check(1.0)
