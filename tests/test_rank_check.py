"""The rank check against a whole-graph reference, and what one step costs it.

``check_rank_and_preservation`` re-ranks and re-types only the leaves a step
touched. The reference here is the loop it replaced, stepped on the
tree-walking engine in ``reference_engine``: the whole ``graph_rank`` before
and after every step, and every output and every leaf's buffers re-typed.
Both must return equal reports (property, verdict, case count and
counterexample, ranks included) or raise the same error.
"""

import pytest

import reference_engine as ref
from flo.core import INT, NAT, U, OperatorDef, Payload, Rank, StepBudgetExceeded, StepResult, StreamType, bottom, member
from flo.graph import apply_outputs, budget_message, compile_graph, graph_rank, in_types, node, out_types, seq_chain
from flo.harness import OpCase, PropertyReport, check_rank_and_preservation
from flo.opcatalog import REGISTRY, build_operator, sample_cases
from flo.scheduler import RandomSched, make_picker
from flo.seq import SEQ, SeqValue, seq, seq_map, seq_tag
from test_deep_graphs import program_graphs
from test_harness import _seq_operator

CASE_SEEDS = (7, 303)  # the rank cases' seeds in test_harness and test_acceptance


def reference_rank_check(subject, cases, budget=4000, seed=0):
    """The whole-graph rank check, stepping the reference engine's tree."""
    flat = compile_graph(node(subject) if isinstance(subject, OperatorDef) else subject)
    tree0, outs_types = flat.tree(), out_types(flat)
    pick = make_picker(RandomSched(seed))
    n = 0
    for n, case in enumerate(cases, 1):
        tree = ref.set_inputs(tree0, case.buffers)
        outs = tuple(bottom(st.collection) for st in outs_types)
        before, steps = None, 0
        while steps <= budget:
            choices = ref.enabled_steps(tree)
            k = pick(len(choices)) if choices else None
            if k is None:
                break
            choice = choices[k]
            tree2, deltas, _rules = ref.step_graph(tree, choice)
            if before is None:
                before = graph_rank(tree)
            after = graph_rank(tree2)
            shown = f"StepChoice(path={tuple(choice.path)!r}, index={choice.index})"
            if not after < before:
                cx = {"case": case, "choice": shown, "before": before, "after": after}
                return PropertyReport("RankDescent", "Fail", n, cx, {"reason": "rank did not decrease"})
            outs = apply_outputs(outs, deltas)
            left = left_type(outs_types, outs, tree2)
            if left is not None:
                info, reason = left
                cx = {"case": case, "choice": shown, **info}
                return PropertyReport("Preservation", "Fail", n, cx, {"reason": reason})
            tree, before = tree2, after
            steps += 1
        if steps > budget:
            raise StepBudgetExceeded(budget_message(budget, steps, tree))
    return PropertyReport("RankDescent", "Pass", n)


def left_type(outs_types, outs, tree):
    """(info, reason) for an output, or else a leaf buffer of ``tree``,
    outside its collection type, or None."""
    for st, value in zip(outs_types, outs):
        if not member(value, st.collection):
            return {"output": value}, "output left its collection type"
    for leaf in compile_graph(tree).nodes:
        for st, buf in zip(leaf.op.inputs, leaf.buffers):
            if not member(buf, st.collection):
                return {"buffer": buf}, "input buffer left its collection type"
    return None


def outcome(check, subject, cases, **kw):
    try:
        return check(subject, list(cases), **kw)
    except Exception as exc:  # both checks must fail the same way
        return type(exc).__name__, str(exc)


def bindings():
    # Ids keep their ":eager" suffix so that runs of this suite stay comparable.
    ops = {f"{name}:eager": e.op for name, e in REGISTRY.items()}
    # window as graph files recorded its former bounded progress binding.
    ops["window:progress"] = build_operator("window", {"bound": "B"})
    return ops


@pytest.mark.parametrize("seed", CASE_SEEDS)
@pytest.mark.parametrize("name", sorted(bindings()))
def test_operator_reports_match_the_reference(name, seed):
    op = bindings()[name]
    cases = list(sample_cases(op.inputs, "rank", 100, seed))
    got = outcome(check_rank_and_preservation, op, cases)
    assert got == outcome(reference_rank_check, op, cases)
    if name.startswith("constant_rank"):
        assert (got.prop, got.verdict) == ("RankDescent", "Fail")
        assert got.counterexample["before"] == got.counterexample["after"]


@pytest.mark.parametrize("seed", CASE_SEEDS)
@pytest.mark.parametrize("name", sorted(program_graphs()))
def test_program_reports_match_the_reference(name, seed):
    g = compile_graph(program_graphs()[name])
    cases = list(sample_cases(in_types(g), "rank", 20, seed))
    got = outcome(check_rank_and_preservation, g, cases)
    assert got == outcome(reference_rank_check, g, cases)


def rising():
    """A seq<int> pass-through whose rank counts the items it has passed, so
    every step raises it."""

    def steps(buffers, state, exhaustive):
        taken = SEQ.take_oldest(buffers[0])
        if taken is None:
            return []
        x, rest = taken
        return [StepResult((rest,), state + 1, (Payload(SeqValue(False, (x,))),), "rising")]

    st = StreamType(seq_tag(INT), U)
    return OperatorDef("rising", (st,), (st,), 0, steps, lambda buffers, state: Rank((state,)))


def fails_later():
    """Graphs whose check fails in another way each, at a leaf that has
    nothing to step until the first leaf has stepped."""
    inc = node(seq_map("inc", INT, INT, U))
    return {
        "rank-rises": seq_chain(inc, node(rising()), inc),
        "buffer-leaves-its-type": seq_chain(inc, node(_seq_operator("to_str", INT, str, U)), inc),
        "output-leaves-its-type": seq_chain(inc, node(_seq_operator("minus_ten", NAT, lambda x: x - 10, U))),
    }


@pytest.mark.parametrize("seed", CASE_SEEDS)
@pytest.mark.parametrize("name", sorted(fails_later()))
def test_later_fails_match_the_reference(name, seed):
    g = compile_graph(fails_later()[name])
    cases = list(sample_cases(in_types(g), "rank", 20, seed))
    got = outcome(check_rank_and_preservation, g, cases)
    assert got == outcome(reference_rank_check, g, cases)
    assert got.verdict == "Fail" and got.counterexample["choice"].startswith("StepChoice(path=('R'")


def test_a_budget_error_matches_the_reference():
    g = seq_chain(node(seq_map("inc", INT, INT, U)), node(seq_map("inc", INT, INT, U)))
    cases = [OpCase((seq(*range(10)),))]
    got = outcome(check_rank_and_preservation, g, cases, budget=7)
    assert got[0] == "StepBudgetExceeded" and "after 8 steps" in got[1]
    assert got == outcome(reference_rank_check, g, cases, budget=7)


@pytest.mark.parametrize("n", [10, 200])
def test_a_step_re_ranks_only_the_leaves_it_touched(monkeypatch, n):
    calls = {"n": 0}
    rank = OperatorDef.rank

    def counting(self, buffers, state):
        calls["n"] += 1
        return rank(self, buffers, state)

    monkeypatch.setattr(OperatorDef, "rank", counting)
    g = seq_chain(*(node(seq_map("inc", INT, INT, U)) for _ in range(n)))
    report = check_rank_and_preservation(g, [OpCase((seq(*range(20)),))])
    steps = 20 * n  # each map steps once per item
    assert report.passed
    # Ranking every leaf before and after each step made about n calls a step.
    assert calls["n"] <= n + 2 * steps, calls["n"] / steps
