"""Graph expressions, the boundedness typechecker, and the graph interpreter.

A graph is a binary composition tree: sequential composition feeds the
left subgraph's emissions into the right subgraph's exterior buffers,
parallel composition runs two subgraphs side by side, and a leaf node is
an operator with its buffered inputs and private state. All values are
immutable; every step produces a fresh tree, which makes speculative
exploration of schedules safe.

Step rules carry their names (sequence-left, sequence-right, par-left,
par-right, operator) so event logs can be replayed and audited.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
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


@dataclass(frozen=True, slots=True)
class Node:
    buffers: tuple
    op: OperatorDef
    state: object


@dataclass(frozen=True, slots=True)
class Seq:
    left: object
    right: object


@dataclass(frozen=True, slots=True)
class Par:
    left: object
    right: object


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
    if isinstance(e, Node):
        if len(new) != len(e.buffers):
            raise ArityMismatch(f"{e.op.name}: {len(new)} values for {len(e.buffers)} buffers")
        return Node(tuple(new), e.op, e.state)
    if isinstance(e, Seq):
        return Seq(set_inputs(e.left, new), e.right)
    n_left = len(inputs(e.left))
    if len(new) < n_left:
        raise ArityMismatch("parallel input split underflow")
    return Par(set_inputs(e.left, new[:n_left]), set_inputs(e.right, new[n_left:]))


# ---------------------------------------------------------------------------
# small steps


@dataclass(frozen=True, slots=True)
class StepChoice:
    path: tuple  # of "L"/"R", ending at a Node
    index: int  # operator-internal choice

    def __str__(self):
        return f"{''.join(self.path) or '.'}#{self.index}"


def enabled_steps(e, exhaustive: bool = False) -> list:
    """Every applicable step, identified by node path and choice index."""
    out = []

    def walk(g, path):
        if isinstance(g, Node):
            n = len(g.op.steps(g.buffers, g.state, exhaustive))
            out.extend(StepChoice(path, i) for i in range(n))
        else:
            walk(g.left, path + ("L",))
            walk(g.right, path + ("R",))

    walk(e, ())
    return out


def _apply(e, path, index, exhaustive):
    """Returns (graph', deltas, rule chain)."""
    if isinstance(e, Node):
        if path:
            raise InvalidChoice("path descends past an operator node")
        outcomes = e.op.steps(e.buffers, e.state, exhaustive)
        if index >= len(outcomes):
            raise InvalidChoice(f"{e.op.name}: choice {index} of {len(outcomes)}")
        r = outcomes[index]
        return Node(r.buffers, e.op, r.state), r.deltas, ("operator",)
    if not path:
        raise InvalidChoice("path stops before reaching an operator node")
    side, rest = path[0], path[1:]
    if isinstance(e, Seq):
        if side == "L":
            left, emitted, rules = _apply(e.left, rest, index, exhaustive)
            fed = tuple(concat(b, d) for b, d in zip(inputs(e.right), emitted))
            right = set_inputs(e.right, fed)
            return Seq(left, right), (EMPTY,) * out_arity(e.right), ("sequence-left",) + rules
        right, emitted, rules = _apply(e.right, rest, index, exhaustive)
        return Seq(e.left, right), emitted, ("sequence-right",) + rules
    if isinstance(e, Par):
        if side == "L":
            left, emitted, rules = _apply(e.left, rest, index, exhaustive)
            return (
                Par(left, e.right),
                emitted + (EMPTY,) * out_arity(e.right),
                ("par-left",) + rules,
            )
        right, emitted, rules = _apply(e.right, rest, index, exhaustive)
        return (
            Par(e.left, right),
            (EMPTY,) * out_arity(e.left) + emitted,
            ("par-right",) + rules,
        )
    raise InvalidChoice(f"not a graph expression: {e!r}")


def step_graph(e, choice: StepChoice, exhaustive: bool = False):
    """Apply one chosen step; returns (graph', output deltas, rule chain)."""
    return _apply(e, choice.path, choice.index, exhaustive)


def step_first(e):
    """Fast path: apply the first enabled step in tree order, if any.

    Returns (graph', deltas, rules, choice) or None when stuck. Sound for
    any confluent graph; the explorer covers the remaining schedules.
    """
    if isinstance(e, Node):
        outcomes = e.op.steps(e.buffers, e.state, False)
        if not outcomes:
            return None
        r = outcomes[0]
        return Node(r.buffers, e.op, r.state), r.deltas, ("operator",), StepChoice((), 0)
    if isinstance(e, Seq):
        hit = step_first(e.left)
        if hit is not None:
            left, emitted, rules, ch = hit
            fed = tuple(concat(b, d) for b, d in zip(inputs(e.right), emitted))
            right = set_inputs(e.right, fed)
            return (
                Seq(left, right),
                (EMPTY,) * out_arity(e.right),
                ("sequence-left",) + rules,
                StepChoice(("L",) + ch.path, ch.index),
            )
        hit = step_first(e.right)
        if hit is not None:
            right, emitted, rules, ch = hit
            return (
                Seq(e.left, right),
                emitted,
                ("sequence-right",) + rules,
                StepChoice(("R",) + ch.path, ch.index),
            )
        return None
    if isinstance(e, Par):
        hit = step_first(e.left)
        if hit is not None:
            left, emitted, rules, ch = hit
            return (
                Par(left, e.right),
                emitted + (EMPTY,) * out_arity(e.right),
                ("par-left",) + rules,
                StepChoice(("L",) + ch.path, ch.index),
            )
        hit = step_first(e.right)
        if hit is not None:
            right, emitted, rules, ch = hit
            return (
                Par(e.left, right),
                (EMPTY,) * out_arity(e.left) + emitted,
                ("par-right",) + rules,
                StepChoice(("R",) + ch.path, ch.index),
            )
        return None
    raise InvalidChoice(f"not a graph expression: {e!r}")


def apply_outputs(outputs: tuple, deltas: tuple) -> tuple:
    return tuple(concat(o, d) for o, d in zip(outputs, deltas))


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
    work: a large valid input can exceed it, and StepBudgetExceeded then
    reports the cap, the steps taken and the graph's current rank.
    """
    steps = 0
    while True:
        if steps > budget:
            raise StepBudgetExceeded(budget_message(budget, steps, e))
        if picker is None:
            hit = step_first(e)
            if hit is None:
                return e, outputs, steps
            e, deltas, rules, choice = hit
        else:
            choices = enabled_steps(e)
            if not choices:
                return e, outputs, steps
            choice = picker(choices, steps)
            e, deltas, rules = step_graph(e, choice)
        outputs = apply_outputs(outputs, deltas)
        if log is not None:
            log.append({"path": "".join(choice.path), "choice": choice.index, "rules": list(rules)})
        steps += 1


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
            parents[nxt] = (cfg, ch)
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

    def walk(g):
        if isinstance(g, Node):
            r = g.op.rank(g.buffers, g.state).components
            arity = g.op.rank_arity
            if len(r) > arity:
                raise RankViolation(
                    f"{g.op.name}: rank has {len(r)} components, rank_arity is {arity}"
                )
            comps.extend(r + (0,) * (arity - len(r)))
        else:
            walk(g.left)
            walk(g.right)

    walk(e)
    return Rank(tuple(comps))


def budget_message(budget: int, steps: int, e) -> str:
    """Why a capped run stopped: the cap, the work done, the rank left."""
    return (
        f"step budget of {budget} exhausted after {steps} steps without reaching "
        f"a stuck state; the graph rank is still {graph_rank(e).components}"
    )
