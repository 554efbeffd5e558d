"""Graph expressions, the boundedness typechecker, and the graph interpreter.

A graph is a binary composition tree: sequential composition feeds the
left subgraph's emissions into the right subgraph's exterior buffers,
parallel composition runs two subgraphs side by side, and a leaf node is
an operator with its buffered inputs and private state. All values are
immutable; every step produces a fresh tree, which makes speculative
exploration of schedules safe.

Step rules carry their names (sequence-left, sequence-right, par-left,
par-right, operator) so event logs can be replayed and audited.

All stepping goes through one engine: ``_enabled`` lists the enabled steps
together with the operator outcome each would apply, ``_apply`` rebuilds
the tree around a listed outcome without evaluating the operator again,
and ``trajectory`` is the one run loop built on them. A subtree found to
have no enabled step remembers it (see ``Node``), so later walks skip it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from operator import is_
from typing import Callable, Optional

from .core import (
    ArityMismatch,
    BoundednessViolation,
    BufferTypeMismatch,
    DeferContextMismatch,
    DeferKeyReusedOrUnused,
    DeferKeyUnbound,
    EMPTY,
    GraphTypeError,
    InvalidChoice,
    OperatorDef,
    Rank,
    RankViolation,
    StepBudgetExceeded,
    SubtypeMismatch,
    bottom,
    concat,
    member,
    subtype,
)


# ---------------------------------------------------------------------------
# graph expressions


# Stuckness memo, one bit per step mode (indexed by ``exhaustive``). A cache,
# not state: it is left out of equality, hashing and repr, and it stays true
# because operators are pure and trees are never mutated otherwise.
_STUCK_BIT = (1, 2)


def _memo():
    return field(default=0, init=False, compare=False, hash=False, repr=False)


@dataclass(frozen=True, slots=True)
class Node:
    buffers: tuple
    op: OperatorDef
    state: object
    _stuck: int = _memo()


@dataclass(frozen=True, slots=True)
class Seq:
    left: object
    right: object
    _stuck: int = _memo()


@dataclass(frozen=True, slots=True)
class Par:
    left: object
    right: object
    _stuck: int = _memo()


GraphExpr = object  # Node | Seq | Par


def node(op: OperatorDef, buffers: Optional[tuple] = None) -> Node:
    """Wrap an operator as a leaf, defaulting buffers to bottoms."""
    if buffers is None:
        buffers = tuple(bottom(st.collection) for st in op.inputs)
    if len(buffers) != len(op.inputs):
        raise ArityMismatch(f"{op.name}: {len(buffers)} buffers for {len(op.inputs)} inputs")
    return Node(tuple(buffers), op, op.initial_state)


def seq_chain(*graphs) -> GraphExpr:
    """Right-nested sequential composition of two or more graphs."""
    if not graphs:
        raise ArityMismatch("empty sequential composition")
    if len(graphs) == 1:
        return graphs[0]
    return Seq(graphs[0], seq_chain(*graphs[1:]))


def par(*graphs) -> GraphExpr:
    if not graphs:
        raise ArityMismatch("empty parallel composition")
    if len(graphs) == 1:
        return graphs[0]
    return Par(graphs[0], par(*graphs[1:]))


def in_types(e) -> tuple:
    if isinstance(e, Node):
        return e.op.inputs
    if isinstance(e, Seq):
        return in_types(e.left)
    return in_types(e.left) + in_types(e.right)


def out_types(e) -> tuple:
    if isinstance(e, Node):
        return e.op.outputs
    if isinstance(e, Seq):
        return out_types(e.right)
    return out_types(e.left) + out_types(e.right)


def out_arity(e) -> int:
    return len(out_types(e))


def describe(e) -> str:
    if isinstance(e, Node):
        return e.op.name
    if isinstance(e, Seq):
        return f"({describe(e.left)};{describe(e.right)})"
    return f"({describe(e.left)}|{describe(e.right)})"


# ---------------------------------------------------------------------------
# typechecking


@dataclass(frozen=True, slots=True)
class GraphType:
    inputs: tuple
    outputs: tuple

    def __str__(self):
        ins = ",".join(str(t) for t in self.inputs)
        outs = ",".join(str(t) for t in self.outputs)
        return f"({ins}) -> ({outs})"


@dataclass(frozen=True, slots=True)
class DeferContexts:
    """Read context plus the linearly-used write context."""

    reads: tuple = ()  # tuple[(key, Tag)]
    writes: tuple = ()


def _collect_write_keys(e, pos, acc):
    if isinstance(e, Node):
        for key, tag in e.op.defer_writes:
            acc.append((key, tag, pos))
    else:
        _collect_write_keys(e.left, pos + ".L", acc)
        _collect_write_keys(e.right, pos + ".R", acc)


def typecheck(e, ctx: Optional[DeferContexts] = None) -> GraphType:
    """Derive the unique graph type or raise a GraphTypeError.

    The write context is linear: the set of write_defer keys in the tree
    must exactly match the provided context, each used once. At a
    top-level graph both contexts are empty.
    """
    ctx = ctx or DeferContexts()
    reads = dict(ctx.reads)
    writes = dict(ctx.writes)

    used: list = []
    _collect_write_keys(e, "root", used)
    seen = {}
    for key, tag, pos in used:
        if key in seen:
            raise DeferKeyReusedOrUnused(f"defer key {key!r} written more than once", pos)
        seen[key] = tag
        if key not in writes:
            raise DeferKeyUnbound(f"write_defer key {key!r} not in context", pos)
        if writes[key] != tag:
            raise DeferContextMismatch(
                f"write_defer key {key!r} has {tag}, context expects {writes[key]}", pos
            )
    unused = set(writes) - set(seen)
    if unused:
        raise DeferKeyReusedOrUnused(f"write context keys never used: {sorted(unused)}")

    def ty(g, pos):
        if isinstance(g, Node):
            op = g.op
            for key, tag in op.defer_reads:
                if key not in reads:
                    raise DeferKeyUnbound(f"read_defer key {key!r} not in context", pos)
                if reads[key] != tag:
                    raise DeferContextMismatch(
                        f"read_defer key {key!r} has {tag}, context expects {reads[key]}", pos
                    )
            if len(g.buffers) != len(op.inputs):
                raise ArityMismatch(f"{op.name}: buffer arity", pos)
            for i, (buf, st) in enumerate(zip(g.buffers, op.inputs)):
                if not member(buf, st.collection):
                    raise BufferTypeMismatch(
                        f"{op.name}: buffer {i} is not a {st.collection}", pos
                    )
            return GraphType(op.inputs, op.outputs)
        if isinstance(g, Seq):
            t1 = ty(g.left, pos + ".L")
            t2 = ty(g.right, pos + ".R")
            if len(t1.outputs) != len(t2.inputs):
                raise ArityMismatch(
                    f"{len(t1.outputs)} outputs feed {len(t2.inputs)} inputs", pos
                )
            for i, (o, wanted) in enumerate(zip(t1.outputs, t2.inputs)):
                if not subtype(o, wanted):
                    target = describe(g.right) if isinstance(g.right, Node) else f"input {i}"
                    if o.collection == wanted.collection:
                        raise BoundednessViolation(
                            f"{o} cannot feed {wanted} of {target}", pos
                        )
                    raise SubtypeMismatch(f"{o} is not a subtype of {wanted}", f"{pos}[{i}]")
            return GraphType(t1.inputs, t2.outputs)
        if isinstance(g, Par):
            t1 = ty(g.left, pos + ".L")
            t2 = ty(g.right, pos + ".R")
            return GraphType(t1.inputs + t2.inputs, t1.outputs + t2.outputs)
        raise GraphTypeError(f"not a graph expression: {g!r}", pos)

    return ty(e, "root")


# ---------------------------------------------------------------------------
# exterior inputs


def inputs(e) -> tuple:
    if isinstance(e, Node):
        return e.buffers
    if isinstance(e, Seq):
        return inputs(e.left)
    return inputs(e.left) + inputs(e.right)


def set_inputs(e, new: tuple):
    """Replace the exterior buffers; a subtree whose buffers are all the
    same objects comes back as itself, so its stuckness memo survives."""
    if isinstance(e, Node):
        old = e.buffers
        if len(new) != len(old):
            raise ArityMismatch(f"{e.op.name}: {len(new)} values for {len(old)} buffers")
        if all(map(is_, new, old)):
            return e
        return Node(tuple(new), e.op, e.state)
    if isinstance(e, Seq):
        left = set_inputs(e.left, new)
        return e if left is e.left else Seq(left, e.right)
    n_left = len(inputs(e.left))
    if len(new) < n_left:
        raise ArityMismatch("parallel input split underflow")
    left = set_inputs(e.left, new[:n_left])
    right = set_inputs(e.right, new[n_left:])
    return e if left is e.left and right is e.right else Par(left, right)


# ---------------------------------------------------------------------------
# small steps


@dataclass(frozen=True, slots=True)
class StepChoice:
    path: tuple  # of "L"/"R", ending at a Node
    index: int  # operator-internal choice
    # (node, exhaustive, StepResult) when the choice was listed by the
    # engine: applying it to that same node reuses the outcome. Not part
    # of the choice's identity.
    found: Optional[tuple] = field(default=None, compare=False, hash=False, repr=False)

    def __str__(self):
        return f"{''.join(self.path) or '.'}#{self.index}"


def _enabled(e, path, exhaustive, first, out):
    """Append to ``out`` a StepChoice for every step enabled under ``e``.

    With ``first`` set, stop after the first one in tree order. A subtree
    found to have none is marked stuck for this mode; marked subtrees are
    skipped without evaluating their operators.
    """
    bit = _STUCK_BIT[exhaustive]
    if isinstance(e, Node):
        if e._stuck & bit:
            return
        outcomes = e.op.steps(e.buffers, e.state, exhaustive)
        if not outcomes:
            object.__setattr__(e, "_stuck", e._stuck | bit)
        elif first:
            out.append(StepChoice(path, 0, (e, exhaustive, outcomes[0])))
        else:
            for i, r in enumerate(outcomes):
                out.append(StepChoice(path, i, (e, exhaustive, r)))
        return
    if not isinstance(e, (Seq, Par)):
        raise InvalidChoice(f"not a graph expression: {e!r}")
    if e._stuck & bit:
        return
    before = len(out)
    _enabled(e.left, path + ("L",), exhaustive, first, out)
    if not (first and len(out) > before):
        _enabled(e.right, path + ("R",), exhaustive, first, out)
    if len(out) == before:
        object.__setattr__(e, "_stuck", e._stuck | bit)


def enabled_steps(e, exhaustive: bool = False) -> list:
    """Every applicable step, identified by node path and choice index.

    Each choice carries the outcome it would apply, so ``step_graph`` on
    the same graph does not evaluate the operator a second time.
    """
    out: list = []
    _enabled(e, (), exhaustive, False, out)
    return out


def _apply(e, choice, exhaustive):
    """Apply ``choice`` to ``e``; returns (graph', deltas, rule chain).

    Walks down the choice's path, steps the operator at its end (reusing
    the outcome the choice was listed with), then rebuilds each composite
    on the way back up, feeding a sequence's right side what its left
    side emitted.
    """
    trail = []  # (composite, side) along the path, outermost first
    for side in choice.path:
        if isinstance(e, Node):
            raise InvalidChoice("path descends past an operator node")
        if not isinstance(e, (Seq, Par)):
            raise InvalidChoice(f"not a graph expression: {e!r}")
        trail.append((e, side))
        e = e.left if side == "L" else e.right
    if not isinstance(e, Node):
        if isinstance(e, (Seq, Par)):
            raise InvalidChoice("path stops before reaching an operator node")
        raise InvalidChoice(f"not a graph expression: {e!r}")
    found = choice.found
    if found is not None and found[0] is e and found[1] == exhaustive:
        r = found[2]
    else:
        outcomes = e.op.steps(e.buffers, e.state, exhaustive)
        if choice.index >= len(outcomes):
            raise InvalidChoice(f"{e.op.name}: choice {choice.index} of {len(outcomes)}")
        r = outcomes[choice.index]
    g, deltas, rules = Node(r.buffers, e.op, r.state), r.deltas, ("operator",)
    for parent, side in reversed(trail):
        if isinstance(parent, Seq):
            if side == "L":
                fed = tuple(concat(b, d) for b, d in zip(inputs(parent.right), deltas))
                right = set_inputs(parent.right, fed)
                g, deltas = Seq(g, right), (EMPTY,) * out_arity(right)
                rules = ("sequence-left",) + rules
            else:
                g, rules = Seq(parent.left, g), ("sequence-right",) + rules
        elif side == "L":
            g, deltas = Par(g, parent.right), deltas + (EMPTY,) * out_arity(parent.right)
            rules = ("par-left",) + rules
        else:
            g, deltas = Par(parent.left, g), (EMPTY,) * out_arity(parent.left) + deltas
            rules = ("par-right",) + rules
    return g, deltas, rules


def step_graph(e, choice: StepChoice, exhaustive: bool = False):
    """Apply one chosen step; returns (graph', output deltas, rule chain)."""
    return _apply(e, choice, exhaustive)


def step_first(e):
    """Fast path: apply the first enabled step in tree order, if any.

    Returns (graph', deltas, rules, choice) or None when stuck. Sound for
    any confluent graph; the explorer covers the remaining schedules.
    """
    found: list = []
    _enabled(e, (), False, True, found)
    if not found:
        return None
    choice = found[0]
    return _apply(e, choice, False) + (choice,)


def apply_outputs(outputs: tuple, deltas: tuple) -> tuple:
    return tuple(concat(o, d) for o, d in zip(outputs, deltas))


def trajectory(e, picker: Optional[Callable] = None, cap: Optional[int] = None):
    """The run loop: yield (graph', deltas, rules, choice) for each step.

    ``picker(choices, step_index)`` selects among the enabled steps, or
    returns None to stop; without a picker the first enabled step in tree
    order is taken. The loop ends at a stuck graph or after ``cap`` steps,
    without looking for a further step.
    """
    steps = 0
    while cap is None or steps < cap:
        if picker is None:
            hit = step_first(e)
            if hit is None:
                return
        else:
            choices = enabled_steps(e)
            choice = picker(choices, steps) if choices else None
            choices = None  # drop the outcomes not chosen before the next step
            if choice is None:
                return
            hit = step_graph(e, choice) + (choice,)
        e = hit[0]
        yield hit
        steps += 1


def run_steps(e, outputs: tuple, picker=None, cap=None, log=None, iteration=None):
    """Follow ``trajectory``, folding emissions into the outputs and logging
    every step; returns (graph, outputs, steps taken)."""
    steps = 0
    for e, deltas, rules, choice in trajectory(e, picker, cap):
        outputs = apply_outputs(outputs, deltas)
        if log is not None:
            entry = {} if iteration is None else {"iter": iteration}
            entry.update(path="".join(choice.path), choice=choice.index, rules=list(rules))
            log.append(entry)
        steps += 1
    return e, outputs, steps


def run_to_stuck(
    e,
    outputs: tuple,
    picker: Optional[Callable] = None,
    budget: int = 10_000,
    log: Optional[list] = None,
):
    """Run until no step applies, folding emissions into the outputs.

    ``picker(choices, step_index)`` selects among enabled steps; None uses
    the first enabled step in tree order. The budget is a fixed cap on
    work: a run still going after ``budget + 1`` steps raises
    StepBudgetExceeded, which reports the cap, the steps taken and the
    graph's current rank.
    """
    e, outputs, steps = run_steps(e, outputs, picker, budget + 1, log)
    if steps > budget:
        raise StepBudgetExceeded(budget_message(budget, steps, e))
    return e, outputs, steps


# ---------------------------------------------------------------------------
# exhaustive exploration


@dataclass
class ExploreResult:
    stuck: list  # distinct stuck (graph, outputs) configurations
    visited: int
    capped: bool
    parents: dict  # config -> (parent config, StepChoice)

    def path_to(self, config) -> list:
        """Reconstruct the choice sequence that reaches ``config``."""
        path = []
        while True:
            prev = self.parents.get(config)
            if prev is None:
                return list(reversed(path))
            config, choice = prev
            path.append(choice)


def explore_all(e, outputs: tuple, max_configs: int = 100_000) -> ExploreResult:
    """Breadth-first exploration of every schedule, with state dedup.

    Each configuration is recorded with the parent it was first reached
    from, so ``path_to`` returns a shortest schedule.
    """
    start = (e, outputs)
    seen = {start}
    queue = deque([start])
    parents: dict = {start: None}
    stuck = []
    capped = False
    while queue:
        cfg = queue.popleft()
        g, outs = cfg
        choices = enabled_steps(g, exhaustive=True)
        if not choices:
            stuck.append(cfg)
            continue
        for ch in choices:
            g2, deltas, _rules = step_graph(g, ch, exhaustive=True)
            nxt = (g2, apply_outputs(outs, deltas))
            if nxt in seen:
                continue
            if len(seen) >= max_configs:
                capped = True
                continue
            seen.add(nxt)
            parents[nxt] = (cfg, StepChoice(ch.path, ch.index))
            queue.append(nxt)
    return ExploreResult(stuck=stuck, visited=len(seen), capped=capped, parents=parents)


# ---------------------------------------------------------------------------
# graph rank


def graph_rank(e) -> Rank:
    """Left-to-right concatenation of node ranks.

    Stepping any node strictly decreases its own components while leaving
    everything to its left untouched, so the concatenation decreases
    lexicographically even when a sequence-left step refills buffers on
    the right. A node rank shorter than its operator's ``rank_arity`` is
    padded with zeros; a longer one raises RankViolation.
    """
    comps: list = []
    _rank_into(e, comps)
    return Rank(tuple(comps))


def _rank_into(g, comps: list):
    if isinstance(g, Node):
        r = g.op.rank(g.buffers, g.state).components
        arity = g.op.rank_arity
        if len(r) > arity:
            raise RankViolation(
                f"{g.op.name}: rank has {len(r)} components, rank_arity is {arity}"
            )
        comps.extend(r + (0,) * (arity - len(r)))
    else:
        _rank_into(g.left, comps)
        _rank_into(g.right, comps)


def budget_message(budget: int, steps: int, e) -> str:
    """Why a capped run stopped: the cap, the work done, the rank left."""
    return (
        f"step budget of {budget} exhausted after {steps} steps without reaching "
        f"a stuck state; the graph rank is still {graph_rank(e).components}"
    )
