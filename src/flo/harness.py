"""Mechanical checkers for the model's behavioral guarantees.

Four families of checks, all counterexample-producing:

* eager execution: taking a step and then receiving a delta converges to
  the same stuck configuration as receiving the delta first;
* streaming progress: at a stuck state every bounded output is fixed, and
  outputs are maximal, meaning a run from fully-fixed inputs ends with
  exactly the element-wise fixing of the original outputs;
* determinism: every schedule from a configuration reaches the same stuck
  configuration (checked exhaustively with state dedup, or sampled);
* rank descent and preservation: each step strictly decreases the
  subject's rank and keeps buffers and outputs inside their types.

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
    StepBudgetExceeded,
    bottom,
    concat,
    fix,
    is_fixed,
    member,
)
from .graph import (
    apply_outputs,
    as_tree,
    budget_message,
    compile_graph,
    enabled_steps,
    explore_all,
    graph_rank,
    inputs,
    node,
    out_types,
    run_steps,
    run_to_stuck,
    set_inputs,
    step_graph,
    trajectory,
    typecheck,
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

    def brief(self) -> str:
        extra = f" ({self.details})" if self.details else ""
        return f"{self.prop}: {self.verdict} after {self.cases} case(s){extra}"


@dataclass(frozen=True)
class OpCase:
    """One sampled configuration for the per-operator checks."""

    buffers: tuple
    delta: tuple = ()  # one delta per input, for the eager check
    presteps: int = 0
    outputs: Optional[tuple] = None


def _compiled(subject):
    """The subject (an operator or a graph) compiled once, and its output types."""
    if isinstance(subject, OperatorDef):
        return compile_graph(node(subject)), subject.outputs
    return compile_graph(subject), out_types(subject)


def _as_graph(base, out_tys, case: OpCase):
    g = set_inputs(base, case.buffers)
    outs = case.outputs or tuple(bottom(st.collection) for st in out_tys)
    return g, outs


def _tree_config(config):
    return as_tree(config[0]), config[1]


def _feed(g, deltas):
    fed = tuple(concat(b, d) for b, d in zip(inputs(g), deltas))
    return set_inputs(g, fed)


# ---------------------------------------------------------------------------
# eager execution


def check_eager(subject, cases, budget: int = 4000) -> PropertyReport:
    """Delta before a step and delta after a step must converge."""
    base, out_tys = _compiled(subject)
    n = 0
    for case in cases:
        n += 1
        g0, outs0 = _as_graph(base, out_tys, case)
        g0, outs0, _ = run_steps(g0, outs0, cap=case.presteps)
        target_g, target_o, _ = run_to_stuck(_feed(g0, case.delta), outs0, budget=budget)
        failed = None
        for choice in enabled_steps(g0):
            g1, deltas, _ = step_graph(g0, choice)
            o1 = apply_outputs(outs0, deltas)
            s_g, s_o, _ = run_to_stuck(_feed(g1, case.delta), o1, budget=budget)
            if (s_g, s_o) != (target_g, target_o):
                failed = {
                    "case": case,
                    "choice": choice,
                    "stuck_after_step": _tree_config((s_g, s_o)),
                    "stuck_delta_first": _tree_config((target_g, target_o)),
                }
                break
        if failed is not None:
            return PropertyReport("EagerExecution", "Fail", n, failed)
    return PropertyReport("EagerExecution", "Pass", n)


# ---------------------------------------------------------------------------
# streaming progress / output maximality


def check_progress(subject, cases, budget: int = 4000) -> PropertyReport:
    """Bounded outputs fixed at stuck; outputs maximal under input fixing."""
    base, outs_types = _compiled(subject)
    n = 0
    for case in cases:
        n += 1
        g0, outs0 = _as_graph(base, outs_types, case)
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
        fixed_case = OpCase(
            buffers=tuple(fix(b) for b in case.buffers), outputs=case.outputs
        )
        g2, outs2 = _as_graph(base, outs_types, fixed_case)
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

    Each case runs under a seeded random schedule; a run still going after
    ``budget + 1`` steps raises StepBudgetExceeded, as ``run_to_stuck``
    does, since a fixed cap says nothing about the rank.
    """
    is_op = isinstance(subject, OperatorDef)
    base, outs_types = _compiled(subject)
    pick = make_picker(RandomSched(seed))
    n = 0
    for case in cases:
        n += 1
        g, outs = _as_graph(base, outs_types, case)
        base_type = None if is_op else typecheck(g)
        before = None  # the rank of g, carried over from the previous step
        steps = 0
        for g2, deltas, _rules, choice in trajectory(g, pick, budget + 1):
            if before is None:
                before = graph_rank(g)
            after = graph_rank(g2)
            if not after < before:
                return PropertyReport(
                    "RankDescent",
                    "Fail",
                    n,
                    {"case": case, "choice": choice, "before": before, "after": after},
                    {"reason": "rank did not decrease"},
                )
            outs = apply_outputs(outs, deltas)
            for st, value in zip(outs_types, outs):
                if not member(value, st.collection):
                    return PropertyReport(
                        "Preservation",
                        "Fail",
                        n,
                        {"case": case, "choice": choice, "output": value},
                        {"reason": "output left its collection type"},
                    )
            if not is_op:
                if typecheck(g2) != base_type:
                    return PropertyReport(
                        "Preservation", "Fail", n, {"case": case}, {"reason": "graph type changed"}
                    )
            else:
                for st, buf in zip(subject.inputs, inputs(g2)):
                    if not member(buf, st.collection):
                        return PropertyReport(
                            "Preservation",
                            "Fail",
                            n,
                            {"case": case, "choice": choice, "buffer": buf},
                            {"reason": "input buffer left its collection type"},
                        )
            g, before = g2, after
            steps += 1
        if steps > budget:
            raise StepBudgetExceeded(budget_message(budget, steps, g))
    return PropertyReport("RankDescent", "Pass", n)


# ---------------------------------------------------------------------------
# determinism / confluence


def check_determinism(
    graph,
    case_inputs: tuple,
    mode="exhaustive",
    max_configs: int = 100_000,
    samples: int = 20,
    seed: int = 0,
    outputs: Optional[tuple] = None,
    budget: int = 10_000,
) -> PropertyReport:
    """All schedules from one configuration reach one stuck configuration.

    ``mode`` is "exhaustive", "sampled", or an Exhaustive schedule value
    carrying its own configuration cap. Each sampled run is capped by
    ``budget`` steps and raises StepBudgetExceeded beyond it.
    """
    from .scheduler import Exhaustive

    if isinstance(mode, Exhaustive):
        max_configs = mode.max_configs
        mode = "exhaustive"
    g = compile_graph(set_inputs(graph, case_inputs))
    outs = outputs or tuple(bottom(st.collection) for st in out_types(graph))
    details: dict = {}
    if mode == "exhaustive":
        res = explore_all(g, outs, max_configs=max_configs)
        if not res.capped:
            distinct = list(dict.fromkeys(res.stuck))
            details = {"configs": res.visited, "stuck": len(distinct)}
            if len(distinct) == 1:
                return PropertyReport("Determinism", "Pass", 1, None, details)
            first, second = distinct[0], distinct[1]
            return PropertyReport(
                "Determinism",
                "Fail",
                1,
                {
                    "inputs": case_inputs,
                    "stuck_a": _tree_config(first),
                    "stuck_b": _tree_config(second),
                    "schedule_a": res.path_to(first),
                    "schedule_b": res.path_to(second),
                },
                details,
            )
        details = {"warning": f"exploration capped at {max_configs}; sampling instead"}
    rng = random.Random(seed)
    stucks = {}
    for i in range(samples):
        picker = make_picker(RandomSched(rng.randrange(1 << 30)))
        cur_g, cur_o, _ = run_to_stuck(g, outs, picker, budget)
        stucks.setdefault((cur_g, cur_o), i)
    details["sampled"] = samples
    if len(stucks) == 1:
        return PropertyReport("Determinism", "Pass", samples, None, details)
    (a, ia), (b2, ib) = list(stucks.items())[:2]
    return PropertyReport(
        "Determinism",
        "Fail",
        samples,
        {
            "inputs": case_inputs,
            "stuck_a": _tree_config(a),
            "stuck_b": _tree_config(b2),
            "seed_a": ia,
            "seed_b": ib,
        },
        details,
    )


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
