"""Event loop: batch feeding, budgets, draining, seed determinism."""

import pytest

from flo import scheduler
from flo.core import FloError, Payload, StepBudgetExceeded, TERMINATOR
from flo.graph import StepEvent, inputs, node, run_to_stuck
from flo.programs import fold_pipeline, scan_pipeline
from flo.scheduler import (
    DrainAll,
    DrainNone,
    DrainPrefix,
    DrainRandom,
    InputBatch,
    LoopConfig,
    RandomSched,
    RoundRobin,
    Scripted,
    TraceStep,
    loop_iteration,
    make_picker,
    run_trace,
)
from flo.seq import SeqValue, seq, seq_map


def batch(*deltas):
    return InputBatch(tuple(deltas))


def payload(*items, term=False):
    return Payload(SeqValue(term, tuple(reversed(items))))


def fold_trace():
    return [
        TraceStep(batch(payload(1)), None, DrainNone()),
        TraceStep(batch(payload(2)), None, DrainNone()),
        TraceStep(batch(payload(3)), None, DrainNone()),
        TraceStep(batch(TERMINATOR), None, DrainAll()),
    ]


def test_fold_trace_motivating_example():
    res = run_trace(fold_pipeline(), fold_trace())
    assert res.totals == (SeqValue(True, (6,)),)
    assert res.drained[-1] == (SeqValue(True, (6,)),)


def test_zero_budget_grows_inputs_only():
    g = fold_pipeline()
    cfg = LoopConfig(g, (SeqValue(False, ()),))
    picker = make_picker(RoundRobin())
    cfg2, drained = loop_iteration(cfg, batch(payload(7)), picker, 0, DrainNone())
    assert inputs(cfg2.graph) == (SeqValue(False, (7,)),)
    assert cfg2.graph.nodes[0].state == g.state
    assert drained == (None,)


def test_full_budget_equals_run_to_stuck():
    g = scan_pipeline()
    cfg = LoopConfig(g, (SeqValue(False, ()),))
    picker = make_picker(RoundRobin())
    cfg2, drained = loop_iteration(cfg, batch(payload(1, 2, 3)), picker, None, DrainAll())
    from flo.graph import set_inputs

    _, expected, _ = run_to_stuck(set_inputs(g, (seq(1, 2, 3),)), (SeqValue(False, ()),))
    assert drained == expected
    assert cfg2.pending == (SeqValue(False, ()),)


def test_split_batches_equal_one_batch():
    one = [TraceStep(batch(payload(1, 2, 3, term=True)), None, DrainAll())]
    split = fold_trace()
    assert run_trace(fold_pipeline(), one).totals == run_trace(fold_pipeline(), split).totals


def test_drain_prefix_recombines():
    trace = [
        TraceStep(batch(payload(1, 2)), None, DrainPrefix(1)),
        TraceStep(batch(payload(3)), None, DrainPrefix(2)),
        TraceStep(batch(TERMINATOR), None, DrainAll()),
    ]
    res = run_trace(scan_pipeline(), trace)
    assert res.totals == (SeqValue(True, (6, 3, 1)),)


def test_seed_determinism():
    trace = fold_trace()
    a = run_trace(fold_pipeline(), trace, RandomSched(42))
    b = run_trace(fold_pipeline(), trace, RandomSched(42))
    assert a.log == b.log
    assert a.totals == b.totals


def test_batch_shape_checked():
    from flo.core import BatchShapeMismatch

    cfg = LoopConfig(fold_pipeline(), (SeqValue(False, ()),))
    with pytest.raises(BatchShapeMismatch):
        loop_iteration(cfg, batch(payload(1), payload(2)), make_picker(RoundRobin()), None, DrainNone())


def test_ill_typed_batch_rejected_at_the_loop_boundary():
    # The decoder does not check item types, so [True, 2.5] reaches the loop
    # as a seq<int> payload; without the membership check it would run and
    # emit floats on a seq<int> output.
    from flo.core import INT, U, BatchShapeMismatch
    from flo.graph import seq_chain, typecheck
    from flo.jsonio import decode_trace
    from flo.seq import scan

    g = seq_chain(node(seq_map("inc", INT, INT, U)), node(scan(0, "add", INT, INT, U)))
    trace = decode_trace(
        [{"batch": [{"payload": {"items": [True, 2.5]}}], "drain": "all"}], typecheck(g).inputs
    )
    with pytest.raises(BatchShapeMismatch, match="input 0"):
        run_trace(g, trace)


def test_a_bool_is_not_a_count():
    # bool is a subclass of int, so a nat input must reject True explicitly,
    # as the nat element type does.
    from flo.core import BatchShapeMismatch, member
    from flo.seq import NAT_TAG, SingletonNat, forward

    assert not member(SingletonNat(True, True), NAT_TAG)
    cfg = LoopConfig(node(forward(NAT_TAG)), (SingletonNat(None, False),))
    with pytest.raises(BatchShapeMismatch, match="input 0"):
        loop_iteration(cfg, batch(Payload(SingletonNat(True, True))), make_picker(RoundRobin()), None, DrainAll())


def test_scripted_schedule_stops_when_exhausted():
    g = fold_pipeline()
    cfg = LoopConfig(g, (SeqValue(False, ()),))
    picker = make_picker(Scripted((0,)))
    cfg2, _ = loop_iteration(cfg, batch(payload(1, 2)), picker, None, DrainNone())
    # one scripted step consumed exactly one element
    assert inputs(cfg2.graph) == (SeqValue(False, (2,)),)


def test_empty_trace_empty_outputs():
    res = run_trace(fold_pipeline(), [])
    assert res.totals == (SeqValue(False, ()),)
    assert res.log == []


def test_event_log_records_rules():
    res = run_trace(fold_pipeline(), fold_trace())
    assert res.log, "steps should be logged"
    assert all(isinstance(ev, StepEvent) for ev in res.log)
    assert res.log[0].rules == ("operator",)


def test_hundred_seeds_identical_totals():
    trace = fold_trace()
    base = run_trace(fold_pipeline(), trace, RandomSched(0)).totals
    for s in range(1, 100):
        assert run_trace(fold_pipeline(), trace, RandomSched(s)).totals == base


def test_lvar_outputs_drain_whole_or_not_at_all():
    from flo.lvar import LVarValue
    from flo.scheduler import drain_value

    open_point = LVarValue("max_nat", 7, False)
    assert drain_value(open_point, DrainAll(), None) == (None, open_point)
    assert drain_value(open_point, DrainPrefix(3), None) == (None, open_point)
    closed = LVarValue("max_nat", 7, True)
    drained, rest = drain_value(closed, DrainAll(), None)
    assert drained == closed and rest == LVarValue("max_nat", 0, False)


@pytest.mark.parametrize("n", [-1, -5])
def test_a_negative_drain_prefix_is_refused(n):
    # Sliced with a negative count, a sequence would drain all but its
    # newest items out of order and a z-set all but its largest keys.
    with pytest.raises(FloError, match="must not be negative"):
        DrainPrefix(n)
    assert DrainPrefix(0).n == 0


def test_random_drain_recombines():
    trace = [
        TraceStep(batch(payload(1, 2)), None, DrainRandom(3)),
        TraceStep(batch(payload(3, 4)), None, DrainRandom(4)),
        TraceStep(batch(TERMINATOR), None, DrainAll()),
    ]
    res = run_trace(scan_pipeline(), trace)
    assert res.totals == (SeqValue(True, (10, 6, 3, 1)),)


def test_a_random_drain_follows_its_own_seed():
    # Two traces that differ only in a DrainRandom's seed drain different
    # portions; the totals, which drains never feed back into, agree.
    def run(seed):
        trace = [
            TraceStep(batch(payload(*range(1, 9))), None, DrainRandom(seed)),
            TraceStep(batch(TERMINATOR), None, DrainAll()),
        ]
        return run_trace(scan_pipeline(), trace)

    a, b = run(3), run(12345)
    assert a.drained != b.drained
    assert a.drained == run(3).drained
    assert a.totals == b.totals


def test_converged_loop_is_insensitive_to_more_iterations():
    # Once all inputs are fixed and the loop ran to stuck, feeding empty
    # batches (any budget) changes nothing.
    from flo.core import EMPTY

    picker = make_picker(RoundRobin())
    cfg = LoopConfig(fold_pipeline(), (SeqValue(False, ()),))
    cfg, _ = loop_iteration(cfg, batch(payload(1, 2, term=True)), picker, None, DrainNone())
    settled = cfg
    for budget in (0, 3, None):
        cfg2, drained = loop_iteration(settled, batch(EMPTY), picker, budget, DrainNone())
        assert cfg2 == settled and drained == (None,)


def test_safety_cap_reports_budget_and_rank(monkeypatch):
    monkeypatch.setattr(scheduler, "SAFETY_CAP", 5)
    trace = [TraceStep(batch(payload(*range(20))), None, DrainNone())]
    with pytest.raises(StepBudgetExceeded) as err:
        run_trace(scan_pipeline(), trace)
    msg = str(err.value)
    assert "step budget of 5 exhausted after 5 steps" in msg
    assert msg.endswith("graph rank is still (16,)")  # 15 items left, not terminated


@pytest.mark.parametrize("cap, stuck", [(2, False), (3, True), (4, True)])
def test_safety_cap_allows_a_run_that_is_stuck_at_the_cap(monkeypatch, cap, stuck):
    # map over three items reaches its stuck state in exactly three steps
    monkeypatch.setattr(scheduler, "SAFETY_CAP", cap)
    trace = [TraceStep(batch(payload(1, 2, 3)), None, DrainAll())]
    g = node(seq_map("inc"))
    if not stuck:
        message = f"budget of {cap} exhausted after {cap} steps"
        with pytest.raises(StepBudgetExceeded, match=message):
            run_trace(g, trace)
        return
    res = run_trace(g, trace)
    assert len(res.log) == 3
    assert res.totals == (seq(2, 3, 4),)
