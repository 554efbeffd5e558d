"""The property checkers themselves: positive runs, fixtures, exploration."""

import random

import pytest

from flo.core import B, EMPTY, INT, Payload, TERMINATOR
from flo.gen import gen_value
from flo.graph import Par, explore_all, node, set_inputs
from flo.harness import (
    OpCase,
    check_determinism,
    check_eager,
    check_event_loop_equivalence,
    check_progress,
    check_rank_and_preservation,
)
from flo.opcatalog import REGISTRY, STDLIB_OPERATORS, cases_for
from flo.programs import five_node_graph, fold_pipeline
from flo.scheduler import DrainAll, DrainNone, InputBatch, TraceStep
from flo.seq import SeqValue, seq, seq_map


def entry_cases(name, kind, n, seed=7):
    e = REGISTRY[name]
    op = e.op_progress if kind == "progress" else e.op_eager
    return op, cases_for(e, kind, n, seed)


def test_scan_passes_eager():
    op, cases = entry_cases("scan", "eager", 150)
    assert check_eager(op, cases).passed


def test_scan_eager_spec_example():
    op = REGISTRY["scan"].op_eager
    case = OpCase(buffers=(seq(1),), delta=(Payload(seq(2)),))
    assert check_eager(op, [case]).passed


def test_empty_delta_always_passes():
    op = REGISTRY["scan"].op_eager
    case = OpCase(buffers=(seq(1, 2),), delta=(EMPTY,))
    assert check_eager(op, [case]).passed


def test_naive_to_sequence_fails_eager_with_counterexample():
    op, cases = entry_cases("to_sequence_naive", "eager", 400)
    report = check_eager(op, cases)
    assert not report.passed
    assert report.counterexample is not None
    case = report.counterexample["case"]
    # the recorded case replays to the same verdict
    assert not check_eager(op, [case]).passed


def test_progress_fold_unbounded_fails():
    op, cases = entry_cases("fold_unbounded", "progress", 200)
    report = check_progress(op, cases)
    assert not report.passed
    assert report.details["reason"] == "outputs not maximal"


def test_progress_guarded_to_sequence_passes_at_bounded():
    op, cases = entry_cases("to_sequence", "progress", 200)
    assert check_progress(op, cases).passed


def test_rank_fixture_fails():
    op, cases = entry_cases("constant_rank", "rank", 5)
    report = check_rank_and_preservation(op, cases)
    assert not report.passed


def test_single_operator_graph_deterministic():
    op = REGISTRY["zset_map"].op_eager
    rng = random.Random(3)
    ins = tuple(gen_value(st.collection, rng) for st in op.inputs)
    report = check_determinism(node(op), ins, mode="exhaustive")
    assert report.passed


def test_five_node_graph_exhaustive_determinism():
    g = five_node_graph()
    ins = (seq(1, 2), seq(3, 4))
    report = check_determinism(g, ins, mode="exhaustive", max_configs=100_000)
    assert report.passed
    assert report.details["configs"] > 1


def test_coin_fails_determinism_with_two_schedules():
    op = REGISTRY["coin"].op_eager
    report = check_determinism(node(op), (seq(1),), mode="exhaustive")
    assert not report.passed
    cx = report.counterexample
    assert cx["schedule_a"] != cx["schedule_b"]
    assert cx["stuck_a"] != cx["stuck_b"]


def test_exploration_cap_downgrades_to_sampling():
    g = five_node_graph()
    ins = (seq(1, 2, 3), seq(1, 2, 3))
    report = check_determinism(g, ins, mode="exhaustive", max_configs=50, samples=10)
    assert report.passed
    assert "warning" in report.details


def test_explore_counts_configurations():
    g = Par(node(seq_map("inc", INT, INT)), node(seq_map("inc", INT, INT)))
    g = set_inputs(g, (seq(1), seq(2)))
    res = explore_all(g, (SeqValue(False, ()), SeqValue(False, ())))
    assert len(dict.fromkeys(res.stuck)) == 1
    assert res.visited >= 4


def payload(*items, term=False):
    return Payload(SeqValue(term, tuple(reversed(items))))


def test_event_loop_equivalence_fold():
    variants = [
        [
            TraceStep(InputBatch((payload(1, 2),)), None, DrainNone()),
            TraceStep(InputBatch((payload(3, term=True),)), None, DrainAll()),
        ],
        [
            TraceStep(InputBatch((payload(1),)), 2, DrainNone()),
            TraceStep(InputBatch((payload(2, 3, term=True),)), None, DrainAll()),
        ],
        [TraceStep(InputBatch((payload(1, 2, 3, term=True),)), None, DrainAll())],
    ]
    report = check_event_loop_equivalence(fold_pipeline(), variants)
    assert report.passed


def test_event_loop_equivalence_catches_drift():
    # Different totals across variants must be reported.
    variants = [
        [TraceStep(InputBatch((payload(1, 2, term=True),)), None, DrainAll())],
        [TraceStep(InputBatch((payload(1, term=True),)), None, DrainAll())],
    ]
    report = check_event_loop_equivalence(fold_pipeline(), variants)
    assert not report.passed


def test_presteps_cover_midrun_states():
    # A case with presteps starts the eager split from a mid-execution
    # configuration rather than the initial one.
    op = REGISTRY["scan"].op_eager
    case = OpCase(buffers=(seq(1, 2, 3),), delta=(TERMINATOR,), presteps=2)
    assert check_eager(op, [case]).passed


@pytest.mark.parametrize("name", sorted(k for k, v in REGISTRY.items() if v.expect.get("determinism", True) and v.expect["rank"]))
def test_operator_stuck_uniqueness(name, rng=None):
    # Exhaustive exploration from small sampled configurations reaches
    # exactly one stuck configuration per operator.
    import random as _random

    e = REGISTRY[name]
    sampler = _random.Random(99)
    for case in cases_for(e, "eager", 25, seed=99):
        report = check_determinism(
            node(e.op_eager), case.buffers, mode="exhaustive", max_configs=20_000
        )
        assert report.passed, (name, case)


def test_mixed_zset_pipeline_exhaustive_determinism():
    from flo.programs import zset_mix_pipeline
    from flo.zset import zset

    g = zset_mix_pipeline()
    ins = (zset({1: 1, 2: -1}), zset({1: 2}))
    report = check_determinism(g, ins, mode="exhaustive", max_configs=100_000)
    assert report.passed


def _bounded_variants():
    from flo.core import B
    from flo.seq import scan, seq_tag, tee

    return {
        "map": seq_map("inc", INT, INT, B),
        "scan": scan(0, "add", INT, INT, B),
        "tee": tee(seq_tag(INT), B),
    }


@pytest.mark.parametrize("name", ["map", "scan", "tee"])
def test_streaming_ops_pass_at_bounded_binding_too(name):
    from flo.gen import gen_delta, gen_value

    op = _bounded_variants()[name]
    rng = random.Random(4)
    eager_cases, progress_cases = [], []
    for _ in range(150):
        buffers = tuple(gen_value(st.collection, rng) for st in op.inputs)
        deltas = tuple(gen_delta(st.collection, rng, b) for st, b in zip(op.inputs, buffers))
        eager_cases.append(OpCase(buffers=buffers, delta=deltas, presteps=rng.randint(0, 2)))
        fixed = tuple(gen_value(st.collection, rng, fixed=True) for st in op.inputs)
        progress_cases.append(OpCase(buffers=fixed))
    assert check_eager(op, eager_cases).passed
    assert check_progress(op, progress_cases).passed



def _buffer_corrupter():
    """Fixture: its one step writes "x" into its own seq<int> buffer."""
    from flo.core import OperatorDef, Rank, StepResult, StreamType, U
    from flo.seq import seq_tag

    def steps(buffers, state, exhaustive):
        if state:
            return []
        return [StepResult((SeqValue(False, ("x",)),), True, (EMPTY,), "corrupt")]

    st = StreamType(seq_tag(INT), U)
    return OperatorDef(
        name="bad",
        inputs=(st,),
        outputs=(st,),
        initial_state=False,
        steps_fn=steps,
        rank_fn=lambda buffers, state: Rank((0 if state else 1,)),
    )


@pytest.mark.parametrize("as_graph", [False, True])
def test_buffer_leaving_its_type_is_a_preservation_fail(as_graph):
    bad = _buffer_corrupter()
    subject = node(bad) if as_graph else bad
    report = check_rank_and_preservation(subject, [OpCase(buffers=(seq(1),))])
    assert report.prop == "Preservation" and not report.passed
    assert report.details["reason"] == "input buffer left its collection type"
    assert report.counterexample["buffer"] == SeqValue(False, ("x",))
    # the recorded case replays to the same verdict
    again = check_rank_and_preservation(subject, [report.counterexample["case"]])
    assert again.prop == "Preservation" and not again.passed


def test_determinism_takes_an_operator():
    op = REGISTRY["coin"].op_eager
    report = check_determinism(op, (seq(1),))
    assert not report.passed
    cx = report.counterexample
    assert cx["schedule_a"] != cx["schedule_b"]
    assert report.details == check_determinism(node(op), (seq(1),)).details


def test_graph_cases_match_operator_cases():
    from flo.graph import in_types
    from flo.opcatalog import sample_cases

    e = REGISTRY["zip"]
    for kind in ("eager", "progress"):
        op = e.op_progress if kind == "progress" else e.op_eager
        graph_cases = list(sample_cases(in_types(node(op)), kind, 20, seed=5))
        assert graph_cases == list(cases_for(e, kind, 20, seed=5))


def test_unregistered_tag_has_no_delta_unless_empty():
    from flo.core import Tag
    from flo.gen import gen_delta

    outcomes = set()
    for seed in range(40):
        try:
            outcomes.add(gen_delta(Tag("bogus"), random.Random(seed), None))
        except ValueError:
            outcomes.add("raised")
    assert outcomes == {EMPTY, "raised"}


# ---------------------------------------------------------------------------
# a subject that never gets stuck


def _replay_labels(g, outs, schedule):
    """Follow a report's {"path", "choice"} schedule from (g, outs)."""
    from flo.graph import StepChoice, apply_outputs, compile_graph, step_graph

    g = compile_graph(g)
    leaf = {g.plan.where(i)[0]: i for i in range(len(g.nodes))}
    for step in schedule:
        g, deltas = step_graph(g, StepChoice(leaf[step["path"]], step["choice"]), exhaustive=True)
        outs = apply_outputs(outs, deltas)
    return g, outs


def test_determinism_without_a_stuck_configuration_fails_with_a_lasso():
    report = check_determinism(REGISTRY["constant_rank"].op_eager, (seq(1),))
    assert not report.passed
    assert report.details["stuck"] == 0
    cx = report.counterexample
    assert cx["schedule"] == [] and cx["cycle"] == [{"path": "", "choice": 0}]


def test_lasso_schedule_reaches_a_configuration_its_cycle_returns_to():
    from flo.core import bottom
    from flo.graph import out_types, seq_chain

    g = seq_chain(node(seq_map("inc")), node(REGISTRY["constant_rank"].op_eager))
    report = check_determinism(g, (seq(1, 2),))
    assert not report.passed
    cx = report.counterexample
    assert cx["schedule"] and cx["cycle"]
    start = (set_inputs(g, (seq(1, 2),)), tuple(bottom(st.collection) for st in out_types(g)))
    entry = _replay_labels(*start, cx["schedule"])
    assert _replay_labels(*entry, cx["cycle"]) == entry


def _seq_operator(name, elem_out, on_item, bound):
    """An inline (seq<int>,bound) -> (seq<elem_out>,bound) operator that
    emits ``on_item(x)`` per item and never emits the terminator."""
    from flo.core import OperatorDef, Rank, StepResult, StreamType
    from flo.seq import SEQ, seq_tag

    def steps(buffers, state, exhaustive):
        taken = SEQ.take_oldest(buffers[0])
        if taken is None:
            return []
        x, rest = taken
        return [StepResult((rest,), state, (Payload(SeqValue(False, (on_item(x),))),), name)]

    def rank(buffers, state):
        return Rank((SEQ.content_size(buffers[0]),))

    ins, outs = (StreamType(seq_tag(INT), bound),), (StreamType(seq_tag(elem_out), bound),)
    return OperatorDef(name, ins, outs, None, steps, rank)


def test_progress_fails_when_a_bounded_output_is_unfixed_at_stuck():
    from flo.core import B

    op = _seq_operator("drop_terminator", INT, lambda x: x, B)
    report = check_progress(op, [OpCase(buffers=(seq(1, 2, terminated=True),))])
    assert not report.passed
    assert report.details["reason"] == "bounded output not fixed at stuck state"
    assert report.counterexample["unfixed_output"] == seq(1, 2)
    assert report.counterexample["port_type"] == op.outputs[0]


def test_rank_check_fails_when_an_output_leaves_its_type():
    from flo.core import NAT, U

    op = _seq_operator("minus_ten", NAT, lambda x: x - 10, U)
    report = check_rank_and_preservation(op, [OpCase(buffers=(seq(3),))])
    assert (report.prop, report.verdict) == ("Preservation", "Fail")
    assert report.details["reason"] == "output left its collection type"
    assert report.counterexample["output"] == seq(-7)


def test_sampled_determinism_fail_names_the_two_sampled_runs():
    from flo.graph import run_to_stuck
    from flo.scheduler import RandomSched, make_picker

    op, inputs = REGISTRY["coin"].op_eager, (seq(1, 2),)
    report = check_determinism(op, inputs, mode="sampled", samples=20, seed=4)
    assert not report.passed
    assert report.details["sampled"] == 20
    cx = report.counterexample
    rng = random.Random(4)
    seeds = [rng.randrange(1 << 30) for _ in range(20)]
    assert cx["seed_a"] == seeds[0] and cx["seed_b"] in seeds[1:] and cx["stuck_a"] != cx["stuck_b"]
    # Each is the RandomSched seed of the run that reached its stuck configuration.
    g, outs = set_inputs(node(op), inputs), (seq(),)
    for which in ("a", "b"):
        picker = make_picker(RandomSched(cx[f"seed_{which}"]))
        assert run_to_stuck(g, outs, picker, 10_000)[:2] == cx[f"stuck_{which}"]
    # Given those two seeds, the check re-runs just those runs.
    again = check_determinism(op, inputs, mode="sampled", seeds=(cx["seed_a"], cx["seed_b"]))
    assert again.details["sampled"] == 2
    assert again.counterexample == cx

@pytest.fixture
def runs(monkeypatch):
    """Count the checker's runs to stuck."""
    from flo import harness

    calls = {"n": 0}
    original = harness.run_to_stuck

    def counting(*args, **kwargs):
        calls["n"] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(harness, "run_to_stuck", counting)
    return calls


def test_progress_runs_once_per_case_when_fixing_changes_no_buffer(runs):
    op, cases = entry_cases("fold", "progress", 30)
    assert all(st.bound is B for st in op.inputs)
    assert check_progress(op, cases).passed
    assert runs["n"] == 30


def test_progress_reruns_a_case_whose_unbounded_input_is_unfixed(runs):
    op = REGISTRY["map"].op_progress
    assert check_progress(op, [OpCase(buffers=(seq(1, 2),))]).passed
    assert runs["n"] == 2
    assert check_progress(op, [OpCase(buffers=(seq(1, 2, terminated=True),))]).passed
    assert runs["n"] == 3


def rerun_progress(subject, cases, budget=4000):
    """``check_progress`` as it was with its all-fixed run always made."""
    from flo.core import fix, is_fixed
    from flo.graph import compile_graph, out_types, run_to_stuck
    from flo.harness import PropertyReport, _as_graph

    base = compile_graph(node(subject))
    outs_types = out_types(base)
    n = 0
    for n, case in enumerate(cases, 1):
        _, o1, _ = run_to_stuck(*_as_graph(base, outs_types, case.buffers), budget=budget)
        if any(st.bound is B and not is_fixed(v) for st, v in zip(outs_types, o1)):
            return PropertyReport("StreamingProgress", "Fail", n, {"case": case})
        _, o2, _ = run_to_stuck(*_as_graph(base, outs_types, tuple(fix(b) for b in case.buffers)), budget=budget)
        if o2 != tuple(fix(o) for o in o1):
            return PropertyReport("StreamingProgress", "Fail", n, {"case": case})
    return PropertyReport("StreamingProgress", "Pass", n)


@pytest.mark.parametrize("name", STDLIB_OPERATORS + ("fold_unbounded", "last_unbounded", "to_sequence_unbounded"))
def test_progress_verdicts_match_the_always_rerun_check(name):
    op, cases = entry_cases(name, "progress", 40, seed=202)
    cases = list(cases)
    got, want = check_progress(op, cases), rerun_progress(op, cases)
    assert (got.verdict, got.cases) == (want.verdict, want.cases)
    if not got.passed:
        assert got.counterexample["case"] == want.counterexample["case"]


@pytest.mark.parametrize("no_runs", [{"samples": 0}, {"seeds": ()}], ids=["samples=0", "seeds=()"])
def test_sampled_determinism_with_no_runs_passes_with_no_cases(no_runs):
    report = check_determinism(REGISTRY["map"].op_eager, (seq(1, 2),), mode="sampled", **no_runs)
    assert (report.verdict, report.cases) == ("Pass", 0)
    assert report.details["sampled"] == 0
