"""The event loop: feed batches, take some steps, drain some output.

Each iteration extends the graph's exterior buffers with one delta per
input, runs an arbitrary (schedule-chosen, budget-capped) number of small
steps, and hands an arbitrary portion of the pending outputs to the
consumer. Determinism of the underlying graph makes the loop's observable
totals independent of batching, budgets and schedules, which the property
suite checks by re-chunking traces.

Drained portions recombine: folding value deltas of the drained pieces
(and the final remainder) over an empty accumulator rebuilds exactly the
stream the graph emitted.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Optional

from .core import (
    BatchShapeMismatch,
    FloError,
    PayloadShapeMismatch,
    StepBudgetExceeded,
    bottom,
    concat,
    language_of,
    member,
)
from .graph import (
    FlatGraph,
    _scan,
    budget_message,
    compile_graph,
    in_types,
    inputs,
    run_steps,
    set_inputs,
    typecheck,
)


SAFETY_CAP = 200_000


# ---------------------------------------------------------------------------
# schedules


# A schedule makes the picker that drives a run: ``picker()`` returns a
# fresh callable ``pick(n)``, the protocol of ``graph._kernel``. Given
# the number of enabled steps, it returns the index of one in
# ``enabled_steps`` order, or None to stop, and the run raises
# InvalidChoice for an index outside ``[0, n)``. A picker keeps its own
# position across iterations.


@dataclass(frozen=True)
class RoundRobin:
    def picker(self):
        turn = itertools.count()
        return lambda n: next(turn) % n


@dataclass(frozen=True)
class RandomSched:
    seed: int

    def picker(self):
        return random.Random(self.seed).randrange


@dataclass(frozen=True)
class Scripted:
    choices: tuple  # of step indices, each into the steps enabled when it is taken

    def picker(self):
        script = iter(self.choices)
        return lambda n: next(script, None)


def make_picker(sched):
    if not hasattr(sched, "picker"):
        raise FloError(f"schedule {sched!r} cannot drive a linear run")
    return sched.picker()


# ---------------------------------------------------------------------------
# drain policies


@dataclass(frozen=True)
class DrainNone:
    pass


@dataclass(frozen=True)
class DrainAll:
    pass


@dataclass(frozen=True)
class DrainPrefix:
    """Drain up to ``n`` oldest units; ``n`` must not be negative."""

    n: int

    def __post_init__(self):
        if self.n < 0:
            raise FloError(f"DrainPrefix({self.n}): the unit count must not be negative")


@dataclass(frozen=True)
class DrainRandom:
    seed: int


def drain_value(value, policy, rng: Optional[random.Random]):
    """Split one pending output into (drained or None, remainder)."""
    lang = language_of(value)
    if isinstance(policy, DrainNone):
        return None, value
    if isinstance(policy, DrainAll):
        return lang.split_all(value)
    if isinstance(policy, DrainPrefix):
        return lang.split_prefix(value, policy.n)
    if isinstance(policy, DrainRandom):
        portion_rng = rng if rng is not None else random.Random(policy.seed)
        size = lang.content_size(value)
        return lang.split_prefix(value, portion_rng.randint(0, size))
    raise FloError(f"unknown drain policy {policy!r}")


def recombine(total, piece):
    return language_of(total).recombine(total, piece)


# ---------------------------------------------------------------------------
# the loop


@dataclass(frozen=True)
class LoopConfig:
    """The loop's state between iterations: the compiled graph and the
    pending output collections, one per port. A tree given as the graph
    is compiled here."""

    graph: FlatGraph
    pending: tuple

    def __post_init__(self):
        object.__setattr__(self, "graph", compile_graph(self.graph))


@dataclass(frozen=True)
class InputBatch:
    deltas: tuple  # one delta per graph input


@dataclass(frozen=True)
class TraceStep:
    batch: InputBatch
    steps: Optional[int] = None  # None means run to stuck
    drain: object = field(default_factory=DrainNone)


@dataclass
class RunResult:
    config: LoopConfig
    drained: list  # per iteration, tuple of (value or None)
    totals: tuple  # recombined totals including the final remainder
    log: list  # one graph.StepEvent per step, shared between equal steps of an iteration


def _run_steps(graph, outputs, picker, budget, log, iteration):
    """Take up to ``budget`` steps; with no budget, a graph that can still
    step (by the kernel's count) after ``SAFETY_CAP`` steps is an error."""
    cap = SAFETY_CAP if budget is None else budget
    graph, outputs, steps = run_steps(graph, outputs, picker, cap, log, iteration)
    if budget is None and steps == cap and _scan(graph.nodes, 0)[1]:
        raise StepBudgetExceeded(budget_message(cap, steps, graph))
    return graph, outputs, steps


def loop_iteration(
    cfg: LoopConfig,
    batch: InputBatch,
    picker,
    step_budget: Optional[int],
    drain: object,
    drain_rng: Optional[random.Random] = None,
    log: Optional[list] = None,
    iteration: int = 0,
):
    """One turn of the loop; returns the new config and the drained portions.

    A batch that leaves an input buffer outside its collection type raises
    BatchShapeMismatch."""
    graph = cfg.graph
    ins = inputs(graph)
    if len(batch.deltas) != len(ins):
        raise BatchShapeMismatch(f"{len(batch.deltas)} deltas for {len(ins)} inputs")
    try:
        fed = tuple(concat(b, d) for b, d in zip(ins, batch.deltas))
    except PayloadShapeMismatch as exc:
        raise BatchShapeMismatch(str(exc)) from exc
    for k, (buf, st) in enumerate(zip(fed, in_types(graph))):
        if not member(buf, st.collection):
            raise BatchShapeMismatch(f"input {k}: the fed buffer is not a {st.collection}")
    graph = set_inputs(graph, fed)
    graph, outputs, _ = _run_steps(graph, cfg.pending, picker, step_budget, log, iteration)
    drained = []
    remaining = []
    for value in outputs:
        piece, rest = drain_value(value, drain, drain_rng)
        drained.append(piece)
        remaining.append(rest)
    return LoopConfig(graph, tuple(remaining)), tuple(drained)


def run_trace(graph, trace, sched=RoundRobin(), drain_seed: int = 0) -> RunResult:
    """Fold the loop over a trace of batches; every step lands in the log."""
    graph = compile_graph(graph)
    gt = typecheck(graph)
    picker = make_picker(sched)
    drain_rng = random.Random(drain_seed)
    cfg = LoopConfig(graph, tuple(bottom(st.collection) for st in gt.outputs))
    totals = tuple(bottom(st.collection) for st in gt.outputs)
    log: list = []
    drained_history = []
    for i, step in enumerate(trace):
        cfg, drained = loop_iteration(
            cfg, step.batch, picker, step.steps, step.drain, drain_rng, log, i
        )
        drained_history.append(drained)
        totals = tuple(
            recombine(t, piece) if piece is not None else t
            for t, piece in zip(totals, drained)
        )
    totals = tuple(recombine(t, rest) for t, rest in zip(totals, cfg.pending))
    return RunResult(config=cfg, drained=drained_history, totals=totals, log=log)
