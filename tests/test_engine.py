"""The step engine: outcome reuse, the outcome memo, and what they must not change."""

import inspect
import time
import tracemalloc
from dataclasses import replace
from operator import is_
from pathlib import Path

import pytest

from flo import graph as graph_module
from flo import programs, scheduler
from flo.cli import main
from flo.core import (
    ANY,
    B,
    BOOL,
    INT,
    NAT,
    STR,
    TERMINATOR,
    U,
    ElemType,
    FloError,
    InvalidChoice,
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
    in_types,
    inputs,
    node,
    out_types,
    run_steps,
    run_to_stuck,
    seq_chain,
    set_inputs,
    step_first,
    step_graph,
)
from flo.harness import OpCase, check_determinism, check_rank_and_preservation
from flo.nested import RUNNING_PHASE, NestedSeqValue, NestState, make_nest
from flo.opcatalog import REGISTRY, cases_for, sample_cases
from flo.programs import five_node_graph, reachability_dynamic, zset_mix_pipeline
from flo.scheduler import InputBatch, RandomSched, RoundRobin, TraceStep, run_trace
from flo.seq import SeqValue, SingletonNat, forward, scan, seq, seq_filter, seq_map, seq_tag
from flo.sets import sset
from flo.zset import zset

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
        assert enabled_steps(tree) == [StepChoice(0, 0)]
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
    _, deltas = step_graph(g2, choice)
    assert deltas[0].value == seq(6)


def test_stuck_subtrees_are_skipped(op_calls):
    stuck_left = seq_chain(node(seq_map("inc", INT, INT)), node(scan(0, "add", INT, INT)))
    g = Par(stuck_left, node(seq_map("inc", INT, INT), (seq(1, 2, 3),)))
    assert step_first(stuck_left) is None
    before = op_calls["n"]
    g, _, _ = step_first(g)
    g, _, _ = step_first(g)
    assert op_calls["n"] - before == 2  # only the right node, once per step


def test_round_robin_evaluates_once_per_step(op_calls):
    trace = [
        TraceStep(InputBatch((Payload(seq(*range(i, i + 100))),)), None) for i in range(0, 2_000, 100)
    ]
    res = run_trace(map_filter_scan(), trace, RoundRobin())
    # Only the stepped leaf is evaluated; the leaves a step feeds are
    # counted through enabled_fn, and evaluated once they are stepped.
    assert len(res.log) > 4_000
    assert op_calls["n"] == len(res.log)


def test_round_robin_evaluates_once_per_step_on_the_zset_join(op_calls):
    # zset_map and zset_join declare their counts too, so a join that a
    # map step feeds is not evaluated until it is stepped.
    trace = [
        TraceStep(InputBatch(tuple(Payload(zset({k: i % 3 + 1 for k in range(i, i + 20, s)})) for s in (1, 2))), None)
        for i in range(0, 400, 10)
    ]
    res = run_trace(programs.zset_mix_pipeline(), trace, RoundRobin())
    assert len(res.log) > 1_500
    assert op_calls["n"] == len(res.log)


def counting_chain(n, op, counter):
    """A chain of ``n`` copies of ``op``, whose ``enabled_fn`` (when it has
    one) counts its calls into ``counter``."""
    if op.enabled_fn is not None:
        enabled = op.enabled_fn

        def counting(buffers, state):
            counter["n"] += 1
            return enabled(buffers, state)

        op = replace(op, enabled_fn=counting)
    return seq_chain(*(node(op) for _ in range(n)))


@pytest.mark.parametrize("sched", [None, RoundRobin()], ids=["first", "roundrobin"])
@pytest.mark.parametrize("op", [seq_map("inc", INT, INT, U), forward(seq_tag(INT))], ids=["map", "forward"])
def test_a_step_counts_a_bounded_number_of_leaves_on_a_long_chain(monkeypatch, sched, op):
    # Rescanning from leaf 0, or re-listing every leaf, made about 400 or
    # 800 of these per step on this chain.
    calls = {"n": 0}
    original = graph_module._outcomes

    def counting(n, exhaustive):
        calls["n"] += 1
        return original(n, exhaustive)

    monkeypatch.setattr(graph_module, "_outcomes", counting)
    g = set_inputs(counting_chain(800, op, calls), (seq(*range(5), terminated=True),))
    picker = None if sched is None else scheduler.make_picker(sched)
    _, outs, steps = run_to_stuck(g, (bottom(seq_tag(INT)),), picker, budget=100_000)
    assert outs[0].terminated and steps > 800
    assert calls["n"] / steps <= 4


def test_a_step_costs_about_the_same_on_long_and_short_chains():
    def us_per_step(n, repeats):
        g = set_inputs(seq_chain(*(node(seq_map("inc", INT, INT, U)) for _ in range(n))), (seq(*range(50)),))
        best = float("inf")
        for _ in range(repeats):
            t0 = time.perf_counter()
            _, _, steps = run_to_stuck(g, (bottom(seq_tag(INT)),), budget=100_000)
            best = min(best, (time.perf_counter() - t0) / steps)
        return best * 1e6

    # Rescanning from leaf 0 cost 34.9 us per step at 800 leaves, 5.6 at 10.
    short, long = us_per_step(10, 40), us_per_step(800, 3)
    assert long < 2 * short, (short, long)


# ---------------------------------------------------------------------------
# the stuck-prefix hint: where step_first and a picker-less scan start


PROGRAMS = {
    programs.fold_pipeline: (),
    programs.scan_pipeline: (),
    programs.window_fold_pipeline: (2,),
    programs.lattice_threshold_pipeline: (3,),
    programs.zset_mix_pipeline: (),
    programs.closure_step_graph: (0,),
    programs.reachability_fixed: (0,),
    programs.bootstrapped_closure_graph: (),
    programs.query_graph: (0, 2),
    programs.reachability_dynamic: (0, 2),
    programs.five_node_graph: (),
}


def test_the_hint_table_has_every_program():
    defined = {f for f in vars(programs).values() if inspect.isfunction(f) and f.__module__ == programs.__name__}
    assert set(PROGRAMS) == defined


def step_first_agrees_with_a_full_scan(g):
    """``step_first(g)``, checked against the same graph with hint 0, and
    likewise for the inner graph each running ``nest`` leaf steps next."""
    for n in g.nodes:
        s = n.state
        if type(s) is NestState and s.phase == RUNNING_PHASE and n.buffers[0].tuples:
            step_first_agrees_with_a_full_scan(set_inputs(s.current, n.buffers[0].tuples[-1]))
    hit = step_first(g)
    assert hit == step_first(FlatGraph(g.plan, g.nodes)), (g.hint, g)
    return hit


def step_to_stuck_agreeing(g, budget=5_000):
    for _ in range(budget):
        hit = step_first_agrees_with_a_full_scan(g)
        if hit is None:
            return g
        g = hit[0]
    raise AssertionError(f"not stuck after {budget} steps")


def assert_hint_sound(g, case):
    """Step ``g`` fed the case's buffers to stuck, then feed it the case's
    delta, which lands behind a hint (a ``nest``'s too), and step it to
    stuck again."""
    g = step_to_stuck_agreeing(set_inputs(g, case.buffers))
    if case.delta:
        step_to_stuck_agreeing(set_inputs(g, apply_outputs(inputs(g), case.delta)))


@pytest.mark.parametrize("make", list(PROGRAMS), ids=lambda f: f.__name__)
def test_the_hint_is_sound_on_every_program(make):
    g = compile_graph(make(*PROGRAMS[make]))
    for kind in ("eager", "progress"):
        for case in sample_cases(in_types(g), kind, 8, seed=21):
            assert_hint_sound(g, case)


def test_the_hint_is_sound_on_the_registry_nest():
    entry = REGISTRY["nest"]
    for kind in ("eager", "progress"):
        for case in cases_for(entry, kind, 40, seed=21):
            assert_hint_sound(compile_graph(node(entry.op)), case)


def test_the_hint_is_left_out_of_equality_hash_and_repr():
    g = set_inputs(map_filter_scan(), (seq(1, 2),))
    hinted = FlatGraph(g.plan, g.nodes, 2)
    assert hinted == g and hash(hinted) == hash(g) and repr(hinted) == repr(g)
    assert len({g, hinted}) == 1


def test_step_first_hints_the_stepped_leaf_and_set_inputs_lowers_the_hint():
    g = set_inputs(map_filter_scan(), (seq(1, 2),))
    stepped = []
    while (hit := step_first(g)) is not None:
        g, _, choice = hit
        stepped.append((g.hint, choice.leaf))
    assert stepped == [(0, 0), (0, 0), (1, 1), (1, 1), (2, 2)]
    assert set_inputs(g, inputs(g)) is g
    assert set_inputs(g, (seq(7),)).hint == 0


def forward_chain_nest(n):
    """``nest`` over a chain of ``n`` bounded ``forward``s behind its one input,
    fed one tuple of five items, and the outputs to run it into."""
    inner = seq_chain(*(node(forward(seq_tag(INT), B)) for _ in range(n)))
    op = make_nest(inner)
    fed = NestedSeqValue(True, ((seq(*range(5), terminated=True),),), op.inputs[0].collection.params)
    return node(op, (fed,)), (bottom(op.outputs[0].collection),)


def test_a_nest_step_counts_a_bounded_number_of_leaves_on_a_long_inner_chain(monkeypatch):
    # Each inner step rescanned the chain from leaf 0, which made about
    # n / 2 counts per outer step.
    calls = {"n": 0}
    original = graph_module._count

    def counting(n):
        calls["n"] += 1
        return original(n)

    monkeypatch.setattr(graph_module, "_count", counting)

    def counts_per_step(n):
        g, outs = forward_chain_nest(n)
        calls["n"] = 0
        _, outs, steps = run_to_stuck(g, outs, budget=100_000)
        assert outs[0].terminated and steps > n
        return calls["n"] / steps

    short, long = counts_per_step(10), counts_per_step(200)
    assert long <= short * 1.1, (short, long)


# ---------------------------------------------------------------------------
# a nest step pays only for its inner step: the synced tuple (``_fed``) and
# the input leaves (``Plan.in_set``)


NEST_PROGRAMS = [
    make for make in PROGRAMS if any(n.op.name == "nest" for n in compile_graph(make(*PROGRAMS[make])).nodes)
]


@pytest.mark.parametrize("make", list(PROGRAMS), ids=lambda f: f.__name__)
def test_in_set_is_the_leaves_of_in_leaves(make):
    g = compile_graph(make(*PROGRAMS[make]))
    plan = g.plan
    assert plan.in_set == {i for i, _lo, _hi in plan.in_leaves}
    # Worked out again from the wires: the leaves with inputs that no wire feeds.
    fed = {j for w in plan.wires for j, _b in w if j >= 0}
    assert plan.in_set == {i for i, n in enumerate(g.nodes) if n.op.inputs} - fed


@pytest.fixture
def nest_checked(monkeypatch):
    """Check every ``nest`` evaluation, and every rank, against the same
    one on an equal ``NestState`` whose ``_fed`` is unset, and check that a
    set ``_fed`` is what its graph's exterior inputs are, object for object.
    Returns the number of evaluations made with ``_fed`` set."""
    seen = {"fed": 0}
    steps, rank = OperatorDef.steps, OperatorDef.rank

    def unfed(op, state):
        if op.name != "nest":
            return None
        if state._fed is not None:
            seen["fed"] += 1
            ins = inputs(state.current)
            assert len(ins) == len(state._fed) and all(map(is_, ins, state._fed))
        return NestState(state.phase, state.current, state.iter_outputs)

    def checked_steps(self, buffers, state, exhaustive=False):
        out = steps(self, buffers, state, exhaustive)
        fresh = unfed(self, state)
        if fresh is not None:
            assert self.steps_fn(buffers, fresh, exhaustive) == out
            for r in out:
                if r.state._fed is not None:
                    assert all(map(is_, inputs(r.state.current), r.state._fed))
                    assert r.state._fed is r.buffers[0].tuples[-1]
        return out

    def checked_rank(self, buffers, state):
        out = rank(self, buffers, state)
        fresh = unfed(self, state)
        if fresh is not None:
            assert self.rank_fn(buffers, fresh) == out
        return out

    monkeypatch.setattr(OperatorDef, "steps", checked_steps)
    monkeypatch.setattr(OperatorDef, "rank", checked_rank)
    return seen


def run_every_way(g, case):
    """Run ``g`` fed the case's buffers to stuck without a picker and under
    ``RoundRobin`` (fast mode, the delta fed after the first), and explore
    it (exhaustive mode, capped)."""
    g = set_inputs(g, case.buffers)
    outs = tuple(bottom(st.collection) for st in out_types(g))
    for picker in (None, scheduler.make_picker(RoundRobin())):
        done, done_outs, _ = run_to_stuck(g, outs, picker, budget=20_000)
        if case.delta:
            run_to_stuck(set_inputs(done, apply_outputs(inputs(done), case.delta)), done_outs, picker, budget=20_000)
    explore_all(g, outs, max_configs=150)


@pytest.mark.parametrize("make", NEST_PROGRAMS, ids=lambda f: f.__name__)
def test_a_synced_nest_step_equals_a_fresh_sync_on_every_nest_program(make, nest_checked):
    g = compile_graph(make(*PROGRAMS[make]))
    for kind in ("eager", "progress"):
        for case in sample_cases(in_types(g), kind, 4, seed=23):
            run_every_way(g, case)
    assert nest_checked["fed"] > 0


def test_a_synced_nest_step_equals_a_fresh_sync_on_the_registry_nest(nest_checked):
    entry = REGISTRY["nest"]
    for kind in ("eager", "progress"):
        for case in cases_for(entry, kind, 20, seed=23):
            run_every_way(compile_graph(node(entry.op)), case)
    assert nest_checked["fed"] > 0


def test_a_nest_iteration_syncs_once_and_reads_its_inputs_only_on_input_leaf_steps(monkeypatch):
    # Every inner step re-synced the inner graph and rebuilt its input
    # tuple, whichever leaf it stepped.
    from flo import nested

    n = 12
    calls = {"set_inputs": 0, "inputs": 0}
    for name in calls:
        original = getattr(nested, name)

        def counting(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(nested, name, counting)
    leaves = []
    first = nested.step_first

    def recording(g):
        hit = first(g)
        if hit is not None:
            leaves.append(hit[2].leaf)
        return hit

    monkeypatch.setattr(nested, "step_first", recording)
    g, outs = forward_chain_nest(n)
    _, outs, _ = run_to_stuck(g, outs)
    assert outs[0].terminated and len(outs[0].tuples) == 1
    on_input_leaf = leaves.count(0)
    assert len(leaves) > n > on_input_leaf > 0
    assert calls["set_inputs"] <= 1
    assert calls["inputs"] == on_input_leaf


# ---------------------------------------------------------------------------
# the picker protocol: picker(n) -> an index into the n enabled steps, or None


def two_maps():
    """Two ``map`` leaves side by side, with two items and one."""
    g = set_inputs(Par(node(seq_map("inc", INT, INT)), node(seq_map("inc", INT, INT))), (seq(1, 2), seq(3)))
    return g, tuple(bottom(st.collection) for st in out_types(g))


def test_a_pick_is_an_index_in_enabled_steps_order():
    g, _outs = two_maps()
    seen = []

    def last(n):
        seen.append(n)
        return n - 1

    ((_nodes, i, k, _r, _written),) = graph_module._kernel(g, last, 1)
    assert seen == [2] and StepChoice(i, k) == enabled_steps(g)[1] == StepChoice(1, 0)


@pytest.mark.parametrize("pick", [-1, 2, 5])
def test_a_pick_outside_the_enabled_steps_raises_invalid_choice(pick):
    g, outs = two_maps()
    with pytest.raises(InvalidChoice):
        run_steps(g, outs, lambda n: pick)


def test_a_picker_that_returns_none_stops_the_run():
    g, outs = two_maps()
    picks = iter([0, 0])
    g2, _outs, steps = run_steps(g, outs, lambda n: next(picks, None))
    # Both items of the left leaf are taken; the right leaf's item is left.
    assert steps == 2 and enabled_steps(g2) == [StepChoice(1, 0)]


def test_a_script_of_one_index_takes_one_step():
    g, outs = two_maps()
    _, _, steps = run_steps(g, outs, scheduler.make_picker(scheduler.Scripted((0,))))
    assert steps == 1
    with pytest.raises(InvalidChoice):
        run_steps(g, outs, scheduler.make_picker(scheduler.Scripted((2,))))


# ---------------------------------------------------------------------------
# the memo is a cache, not state


def rebuild(g):
    """A structurally equal copy made of new objects, so with no memo set."""
    plan = compile_graph(g.tree()).plan
    return FlatGraph(plan, tuple(Node(n.buffers, n.op, n.state) for n in g.nodes))


def test_memo_leaves_equality_hash_and_repr_alone():
    g = set_inputs(map_filter_scan(), (seq(1, 2),))
    done, _, _ = run_to_stuck(g, (SeqValue(False, ()),))
    fresh = rebuild(done)
    leaf, fresh_leaf = done.nodes[2], fresh.nodes[2]
    assert enabled_steps(done) == [] and leaf._fast == [] and fresh_leaf._fast is None and fresh_leaf._full is None
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
    assert all(map(is_, moved.nodes[:3], g.nodes[:3])) and moved.nodes[3] is not g.nodes[3]


def test_step_choices_compare_without_their_outcome():
    g = node(seq_map("inc", INT, INT), (seq(1),))
    (listed,) = enabled_steps(g)
    assert listed == StepChoice(0, 0) and hash(listed) == hash(StepChoice(0, 0))
    assert repr(listed) == repr(StepChoice(0, 0))


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
    from what the stepping kernel yields."""
    g, steps = compile_graph(e), 0
    nodes = g.nodes
    for nodes, i, k, r, written in graph_module._kernel(g, picker, cap):
        outputs = apply_outputs(outputs, graph_module._deltas(g.plan, i, r, written))
        if log is not None:
            label, rules = g.plan.where(i)
            entry = {"path": label, "choice": k, "rules": list(rules)}
            if iteration is not None:
                entry["iter"] = iteration
            log.append(entry)
        steps += 1
    return graph_module.FlatGraph(g.plan, tuple(nodes)), outputs, steps


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


def test_explore_all_config_count_on_the_zset_join_is_unchanged():
    # Drain orders of the join meet in one state only if its stored sides
    # compare and hash by their items, whatever their layout.
    g = set_inputs(zset_mix_pipeline(), (zset({0: 1, 1: 1, 2: 1}), zset({1: 2, 2: 2, 3: 2})))
    outs = tuple(bottom(st.collection) for st in out_types(g))
    res = explore_all(g, outs, max_configs=10**6)
    assert res.visited == 900 and not res.capped
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


# The members of VALUES for each type, in VALUES order.
MEMBERS = {
    "any": VALUES,
    "int": [0, 1, -1, 10**20, -(10**20)],
    "nat": [0, 1, 10**20],
    "bool": [True, False],
    "str": ["", "a"],
    "pair<int,int>": [(1, 2), (-1, 2), (1, -2)],
    "pair<nat,str>": [(1, "x")],
    "pair<pair<int,bool>,any>": [((1, True), None)],
}


@pytest.mark.parametrize("t", ELEM_TYPES, ids=str)
def test_compiled_predicate_agrees_with_matches(t):
    # repr tells True from 1, which list equality would not.
    assert [repr(v) for v in VALUES if t.check(v)] == [repr(v) for v in MEMBERS[str(t)]]
    assert not t.check(True) or t.name in ("any", "bool")
    assert ElemType(t.name, t.args) == t and hash(ElemType(t.name, t.args)) == hash(t)


def test_unknown_element_type_still_fails_when_used():
    t = ElemType("float")
    with pytest.raises(FloError):
        t.check(1.0)
