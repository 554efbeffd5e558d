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

import random
from dataclasses import dataclass, field
from typing import Optional

from .core import (
    BatchShapeMismatch,
    FloError,
    InvalidChoice,
    PayloadShapeMismatch,
    StepBudgetExceeded,
    bottom,
    concat,
    language_of,
    member,
)
from .graph import (
    as_tree,
    budget_message,
    compile_graph,
    enabled_steps,
    in_types,
    inputs,
    run_steps,
    set_inputs,
    typecheck,
)


SAFETY_CAP = 200_000


# ---------------------------------------------------------------------------
# schedules


@dataclass(frozen=True)
class RoundRobin:
    pass


@dataclass(frozen=True)
class RandomSched:
    seed: int


@dataclass(frozen=True)
class Scripted:
    choices: tuple  # of StepChoice


@dataclass(frozen=True)
class Exhaustive:
    max_configs: int = 100_000


# Pickers are called as ``picker(choices, step_index)``, the protocol of
# ``graph.trajectory``; they keep their own position across iterations.


class _RoundRobinPicker:
    def __init__(self):
        self.counter = 0

    def __call__(self, choices, _step):
        c = choices[self.counter % len(choices)]
        self.counter += 1
        return c


class _RandomPicker:
    def __init__(self, seed):
        self.rng = random.Random(seed)

    def __call__(self, choices, _step):
        return choices[self.rng.randrange(len(choices))]


class _ScriptedPicker:
    def __init__(self, script):
        self.script = list(script)
        self.pos = 0

    def __call__(self, choices, _step):
        if self.pos >= len(self.script):
            return None
        c = self.script[self.pos]
        if c not in choices:
            raise InvalidChoice(f"scripted choice {c} is not enabled")
        self.pos += 1
        return c


def make_picker(sched):
    if isinstance(sched, RoundRobin):
        return _RoundRobinPicker()
    if isinstance(sched, RandomSched):
        return _RandomPicker(sched.seed)
    if isinstance(sched, Scripted):
        return _ScriptedPicker(sched.choices)
    raise FloError(f"schedule {sched!r} cannot drive a linear run")


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
    n: int


@dataclass(frozen=True)
class DrainRandom:
    seed: int


def drain_value(value, policy, rng: Optional[random.Random]):
    """Split one pending output into (drained or None, remainder)."""
    lang = language_of(value)
    if isinstance(policy, DrainNone):
        return None, value
    if isinstance(policy, DrainAll):
        if lang.whole_drain_requires_fixed and not lang.is_fixed(value):
            return None, value
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


class LoopConfig:
    """The loop's state between iterations: the graph and the pending output
    collections, one per port. The graph may be given as a tree; the loop
    keeps it compiled, and reading ``graph`` rebuilds the tree."""

    __slots__ = ("_graph", "pending")

    def __init__(self, graph, pending: tuple):
        self._graph = graph
        self.pending = pending

    @property
    def graph(self):
        return as_tree(self._graph)

    def __eq__(self, other):
        if not isinstance(other, LoopConfig):
            return NotImplemented
        return (self.graph, self.pending) == (other.graph, other.pending)

    def __hash__(self):
        return hash((self.graph, self.pending))

    def __repr__(self):
        return f"LoopConfig(graph={self.graph!r}, pending={self.pending!r})"


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
    step after ``SAFETY_CAP`` steps is an error."""
    cap = SAFETY_CAP if budget is None else budget
    graph, outputs, steps = run_steps(graph, outputs, picker, cap, log, iteration)
    if budget is None and steps == cap and enabled_steps(graph):
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
    BatchShapeMismatch. The graph is compiled on the first turn and stays
    compiled after it."""
    graph = compile_graph(cfg._graph)
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
