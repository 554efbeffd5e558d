"""Mechanical checkers for the model's behavioral guarantees.

Four families of checks, all counterexample-producing. Each checker takes
an operator (checked as a one-node graph) or a graph:

* eager execution: taking a step and then receiving a delta converges to
  the same stuck configuration as receiving the delta first;
* streaming progress: at a stuck state every bounded output is fixed, and
  outputs are maximal, meaning a run from fully-fixed inputs ends with
  exactly the element-wise fixing of the original outputs;
* determinism: every schedule from a configuration reaches the same stuck
  configuration (checked exhaustively with state dedup, or sampled);
* rank descent and preservation: each step strictly decreases the
  subject's rank and keeps every leaf's buffers and every output inside
  their types.

A failing report always carries enough of the offending case to replay
it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional

from .core import (
    B,
    OperatorDef,
    Rank,
    StepBudgetExceeded,
    bottom,
    concat,
    fix,
    is_fixed,
    member,
)
from .graph import (
    FlatGraph,
    _kernel,
    apply_outputs,
    budget_message,
    compile_graph,
    explore_all,
    inputs,
    leaf_rank,
    node,
    out_types,
    run_steps,
    run_to_stuck,
    set_inputs,
    successors,
)
from .scheduler import RandomSched, RunResult, make_picker, run_trace


@dataclass
class PropertyReport:
    prop: str
    verdict: str  # "Pass" | "Fail"
    cases: int
    counterexample: Optional[dict] = None
    details: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.verdict == "Pass"


@dataclass(frozen=True)
class OpCase:
    """One sampled configuration for the per-operator checks."""

    buffers: tuple
    delta: tuple = ()  # one delta per input, for the eager check
    presteps: int = 0


def _compiled(subject):
    """The subject (an operator or a graph) compiled once, and its output types."""
    g = compile_graph(node(subject) if isinstance(subject, OperatorDef) else subject)
    return g, out_types(g)


def _as_graph(base, out_tys, buffers: tuple):
    return set_inputs(base, buffers), tuple(bottom(st.collection) for st in out_tys)


def _shown(g, leaf: int, index: int) -> str:
    """A step choice as a report prints it: by its leaf's path in ``g``."""
    return f"StepChoice(path={tuple(g.plan.where(leaf)[0])!r}, index={index})"


def _schedule(g, choices) -> list:
    """Choices in ``g`` in the JSON form of a counterexample schedule."""
    return [{"path": g.plan.where(c.leaf)[0], "choice": c.index} for c in choices]


def _feed(g, deltas):
    fed = tuple(concat(b, d) for b, d in zip(inputs(g), deltas))
    return set_inputs(g, fed)


# ---------------------------------------------------------------------------
# eager execution


def check_eager(subject, cases, budget: int = 4000) -> PropertyReport:
    """Delta before a step and delta after a step must converge."""
    base, out_tys = _compiled(subject)
    n = 0
    for n, case in enumerate(cases, 1):
        g0, outs0 = _as_graph(base, out_tys, case.buffers)
        g0, outs0, _ = run_steps(g0, outs0, cap=case.presteps)
        target = run_to_stuck(_feed(g0, case.delta), outs0, budget=budget)[:2]
        for choice, g1, deltas in successors(g0):
            stuck = run_to_stuck(_feed(g1, case.delta), apply_outputs(outs0, deltas), budget=budget)[:2]
            if stuck != target:
                cx = {
                    "case": case,
                    "choice": _shown(g0, choice.leaf, choice.index),
                    "stuck_after_step": stuck,
                    "stuck_delta_first": target,
                }
                return PropertyReport("EagerExecution", "Fail", n, cx)
    return PropertyReport("EagerExecution", "Pass", n)


# ---------------------------------------------------------------------------
# streaming progress / output maximality


def check_progress(subject, cases, budget: int = 4000) -> PropertyReport:
    """Bounded outputs fixed at stuck; outputs maximal under input fixing."""
    base, outs_types = _compiled(subject)
    n = 0
    for n, case in enumerate(cases, 1):
        g0, outs0 = _as_graph(base, outs_types, case.buffers)
        _, o1, _ = run_to_stuck(g0, outs0, budget=budget)
        for st, value in zip(outs_types, o1):
            if st.bound is B and not is_fixed(value):
                return PropertyReport(
                    "StreamingProgress",
                    "Fail",
                    n,
                    {"case": case, "unfixed_output": value, "port_type": st},
                    {"reason": "bounded output not fixed at stuck state"},
                )
        fixed = tuple(fix(b) for b in case.buffers)
        if fixed == case.buffers:
            # A picker-less run is a pure function of its configuration.
            o2 = o1
        else:
            g2, outs2 = _as_graph(base, outs_types, fixed)
            _, o2, _ = run_to_stuck(g2, outs2, budget=budget)
        expected = tuple(fix(o) for o in o1)
        if o2 != expected:
            return PropertyReport(
                "StreamingProgress",
                "Fail",
                n,
                {"case": case, "outputs": o1, "outputs_all_fixed_run": o2, "expected": expected},
                {"reason": "outputs not maximal"},
            )
    return PropertyReport("StreamingProgress", "Pass", n)


# ---------------------------------------------------------------------------
# rank descent and preservation


def check_rank_and_preservation(subject, cases, budget: int = 4000, seed: int = 0) -> PropertyReport:
    """Strict rank decrease plus type stability along sampled traces.

    After each step the rank must drop, every output must stay in its
    collection type, and every leaf's buffers must stay in their
    operator's input types. Operators are never replaced, so that is all
    a graph's type can lose. Each case runs under a seeded random
    schedule; a run still going after ``budget + 1`` steps raises
    StepBudgetExceeded, as ``run_to_stuck`` does, since a fixed cap says
    nothing about the rank.

    A step at leaf ``i`` replaces only ``plan.touched[i]``, and ``leaf_rank``
    has a fixed width, so after the first step only the touched leaves (in
    tree order) and the outputs the step wrote are re-ranked and re-typed.
    """
    base, outs_types = _compiled(subject)
    pick = make_picker(RandomSched(seed))
    n = 0
    for n, case in enumerate(cases, 1):
        g, outs = _as_graph(base, outs_types, case.buffers)
        nodes, outs, steps = g.nodes, list(outs), 0
        for nodes, i, k, _r, written in _kernel(g, pick, budget + 1):
            touched = base.plan.touched[i]
            if steps:
                ports, leaves = [port for port, _d in written], [nodes[j] for j in touched]
            else:
                ranks = [leaf_rank(nd) for nd in g.nodes]  # per leaf, as of the last step
                ports, leaves = range(len(outs)), nodes
            old = [ranks[j] for j in touched]
            new = [leaf_rank(nodes[j]) for j in touched]
            before = None if new < old else Rank(sum(ranks, ()))
            for j, r in zip(touched, new):
                ranks[j] = r
            if before is not None:
                cx = {"case": case, "choice": _shown(base, i, k), "before": before, "after": Rank(sum(ranks, ()))}
                return PropertyReport("RankDescent", "Fail", n, cx, {"reason": "rank did not decrease"})
            for port, d in written:
                outs[port] = concat(outs[port], d)
            left = _left_type(outs_types, outs, ports, leaves)
            if left is not None:
                info, reason = left
                cx = {"case": case, "choice": _shown(base, i, k), **info}
                return PropertyReport("Preservation", "Fail", n, cx, {"reason": reason})
            steps += 1
        if steps > budget:
            raise StepBudgetExceeded(budget_message(budget, steps, FlatGraph(base.plan, tuple(nodes))))
    return PropertyReport("RankDescent", "Pass", n)


def _left_type(out_types, outs, ports, leaves):
    """(info, reason) for the first of ``ports``, else of ``leaves``' buffers, outside its type, or None."""
    for port in ports:
        if not member(outs[port], out_types[port].collection):
            return {"output": outs[port]}, "output left its collection type"
    for leaf in leaves:
        for st, buf in zip(leaf.op.inputs, leaf.buffers):
            if not member(buf, st.collection):
                return {"buffer": buf}, "input buffer left its collection type"
    return None


# ---------------------------------------------------------------------------
# determinism / confluence


def check_determinism(
    subject,
    case_inputs: tuple,
    mode: str = "exhaustive",
    max_configs: int = 100_000,
    samples: int = 20,
    seed: int = 0,
    budget: int = 10_000,
    seeds: Optional[tuple] = None,
) -> PropertyReport:
    """All schedules from one configuration reach one stuck configuration.

    The subject is an operator or a graph. ``mode`` is "exhaustive" or
    "sampled"; an exhaustive run that meets ``max_configs`` falls back to
    sampling. Sampling makes one ``RandomSched`` run per seed in
    ``seeds``, or ``samples`` runs whose seeds are drawn from ``seed``; a
    Fail names the seeds of two runs that disagree as ``seed_a`` and
    ``seed_b``. Each sampled run is capped by ``budget`` steps and raises
    StepBudgetExceeded beyond it. An exploration that ends uncapped with
    no stuck configuration fails with a lasso: the schedule to a
    configuration that repeats, and the cycle back to it.
    """
    base, out_tys = _compiled(subject)
    g, outs = _as_graph(base, out_tys, case_inputs)
    details: dict = {}
    if mode == "exhaustive":
        res = explore_all(g, outs, max_configs=max_configs)
        if not res.capped:
            details = {"configs": res.visited, "stuck": len(res.stuck)}
            if len(res.stuck) == 1:
                return PropertyReport("Determinism", "Pass", 1, None, details)
            if not res.stuck:
                schedule, cycle = _lasso(g, outs)
                details["reason"] = "no schedule reaches a stuck configuration"
                cx = {"inputs": case_inputs, "schedule": _schedule(g, schedule), "cycle": _schedule(g, cycle)}
                return PropertyReport("Determinism", "Fail", 1, cx, details)
            first, second = res.stuck[0], res.stuck[1]
            return PropertyReport(
                "Determinism",
                "Fail",
                1,
                {
                    "inputs": case_inputs,
                    "stuck_a": first,
                    "stuck_b": second,
                    "schedule_a": _schedule(g, res.path_to(first)),
                    "schedule_b": _schedule(g, res.path_to(second)),
                },
                details,
            )
        details = {"warning": f"exploration capped at {max_configs}; sampling instead"}
    if seeds is None:
        rng = random.Random(seed)
        seeds = tuple(rng.randrange(1 << 30) for _ in range(samples))
    stucks = {}
    for s in seeds:
        cur_g, cur_o, _ = run_to_stuck(g, outs, make_picker(RandomSched(s)), budget)
        stucks.setdefault((cur_g, cur_o), s)
    details["sampled"] = len(seeds)
    if len(stucks) <= 1:  # no runs at all is a Pass with no cases, as in the other checkers
        return PropertyReport("Determinism", "Pass", len(seeds), None, details)
    (a, sa), (b2, sb) = list(stucks.items())[:2]
    return PropertyReport(
        "Determinism",
        "Fail",
        len(seeds),
        {
            "inputs": case_inputs,
            "stuck_a": a,
            "stuck_b": b2,
            "seed_a": sa,
            "seed_b": sb,
        },
        details,
    )


def _lasso(g, outs) -> tuple:
    """(schedule, cycle): the run from (g, outs) taking the first exhaustive
    choice, to the first configuration it revisits, and back. Every
    configuration reachable must step; with V of them, V + 1 steps do."""
    cfg, at, choices = (g, outs), {}, []
    while cfg not in at:
        at[cfg] = len(choices)
        choice, g2, deltas = next(successors(cfg[0], True))
        cfg = (g2, apply_outputs(cfg[1], deltas))
        choices.append(choice)
    k = at[cfg]
    return choices[:k], choices[k:]


# ---------------------------------------------------------------------------
# event-loop equivalence


def check_event_loop_equivalence(graph, traces, sched=None) -> PropertyReport:
    """Re-chunking a fixed total input must not change the final totals."""
    results: list[RunResult] = []
    for i, trace in enumerate(traces):
        results.append(run_trace(graph, trace, sched or RandomSched(i)))
    baseline = results[0].totals
    for i, res in enumerate(results[1:], start=1):
        if res.totals != baseline:
            return PropertyReport(
                "EventLoopEquivalence",
                "Fail",
                len(traces),
                {"variant": i, "totals": res.totals, "baseline": baseline},
            )
    return PropertyReport("EventLoopEquivalence", "Pass", len(traces))
