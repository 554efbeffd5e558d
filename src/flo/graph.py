"""Graph expressions, the boundedness typechecker, and the graph interpreter.

A graph is a binary composition tree: sequential composition feeds the
left subgraph's emissions into the right subgraph's exterior buffers,
parallel composition runs two subgraphs side by side, and a leaf node is
an operator with its buffered inputs and private state. All values are
immutable; every step produces a fresh tree, which makes speculative
exploration of schedules safe.

Step rules carry their names (sequence-left, sequence-right, par-left,
par-right, operator) so event logs can be replayed and audited.

Trees are the syntax; stepping runs on a compiled form. The rules only
move deltas between exterior buffers that the tree fixes, so
``compile_graph`` computes that wiring once (a ``Plan``) and a
``FlatGraph`` holds one ``Node`` per leaf. A step replaces one node and
concats each emitted delta straight into its destination; no composite
is rebuilt. ``enabled_steps`` lists the enabled steps together with the
outcome each would apply, ``step_graph`` and ``step_first`` apply one, and
``trajectory`` is the one run loop built on them. A node's listed
outcomes are kept until the node object is replaced, and a node found to
have no enabled step remembers it (see ``Node``). A tree is rebuilt only
when a caller asks for one.
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
# the compiled form


@dataclass(frozen=True, slots=True, eq=False)
class Plan:
    """The static wiring of one composition tree, computed once.

    Leaves are numbered in tree order. The composition rules only move
    deltas between exterior buffers that the tree fixes, so every output
    port of every leaf has one destination: a (leaf, buffer) pair, or
    ``(-1, port)`` for a graph output.
    """

    shape: object  # leaf index, or ("S" | "P", left shape, right shape)
    paths: tuple  # per leaf: its path, a tuple of "L"/"R"
    rules: tuple  # per leaf: the rule chain of a step there, outermost first
    wires: tuple  # per leaf, per output port: (leaf, buffer) or (-1, port)
    in_leaves: tuple  # (leaf, lo, hi): that leaf's buffers are exterior inputs lo:hi
    n_in: int  # number of exterior inputs
    blank: tuple  # one EMPTY per graph output
    direct: tuple  # per leaf: its output ports are the graph outputs, in order
    index: dict  # path -> leaf
    reads: tuple  # (read_defer key, leaf) in tree order
    writes: tuple  # (write_defer key, leaf) in tree order


_RULES = {
    (Seq, "L"): "sequence-left",
    (Seq, "R"): "sequence-right",
    (Par, "L"): "par-left",
    (Par, "R"): "par-right",
}


def _plan(e) -> tuple:
    """(Plan, leaves) of a tree."""
    leaves, paths, rules, wires = [], [], [], []

    def walk(g, path, chain):
        # Returns the subtree's shape, its exterior inputs as (leaf, buffer)
        # pairs and its exterior outputs as (leaf, port) pairs, and wires
        # each sequence's left outputs to its right inputs.
        if isinstance(g, Node):
            i = len(leaves)
            leaves.append(g)
            paths.append(path)
            rules.append(chain + ("operator",))
            wires.append([None] * len(g.op.outputs))
            return i, [(i, b) for b in range(len(g.buffers))], [(i, p) for p in range(len(g.op.outputs))]
        kind = type(g)
        if kind is not Seq and kind is not Par:
            raise InvalidChoice(f"not a graph expression: {g!r}")
        ls, l_in, l_out = walk(g.left, path + ("L",), chain + (_RULES[kind, "L"],))
        rs, r_in, r_out = walk(g.right, path + ("R",), chain + (_RULES[kind, "R"],))
        if kind is Par:
            return ("P", ls, rs), l_in + r_in, l_out + r_out
        if len(l_out) != len(r_in):
            raise ArityMismatch(f"{len(l_out)} outputs feed {len(r_in)} inputs")
        for (i, p), dest in zip(l_out, r_in):
            wires[i][p] = dest
        return ("S", ls, rs), l_in, r_out

    shape, ins, outs = walk(e, (), ())
    for port, (i, p) in enumerate(outs):
        wires[i][p] = (-1, port)
    plan = Plan(
        shape=shape,
        paths=tuple(paths),
        rules=tuple(rules),
        wires=tuple(tuple(w) for w in wires),
        in_leaves=_in_leaves(ins),
        n_in=len(ins),
        blank=(EMPTY,) * len(outs),
        direct=tuple(list(w) == [(-1, p) for p in range(len(outs))] for w in wires),
        index={p: i for i, p in enumerate(paths)},
        reads=tuple((k, i) for i, n in enumerate(leaves) for k, _t in n.op.defer_reads),
        writes=tuple((k, i) for i, n in enumerate(leaves) for k, _t in n.op.defer_writes),
    )
    return plan, tuple(leaves)


def _in_leaves(ins: list) -> tuple:
    # A leaf's buffers are either all exterior inputs or all fed from inside,
    # depending only on where the leaf sits, so the exterior inputs split
    # into runs of whole buffer tuples, one per leaf.
    runs: list = []
    for k, (i, _b) in enumerate(ins):
        if runs and runs[-1][0] == i:
            runs[-1][2] = k + 1
        else:
            runs.append([i, k, k + 1])
    return tuple(map(tuple, runs))


class FlatGraph:
    """A compiled graph: its plan and one ``Node`` per leaf, in tree order.

    It compares, hashes and prints as the tree it stands for. Two caches
    ride along outside equality: ``_listed`` holds, per leaf, the enabled
    choices listed with their outcomes in step mode ``_mode`` (valid until
    that node object is replaced), and ``_base`` is the last tree known for
    this shape, whose untouched subtrees ``tree()`` hands back as
    themselves.
    """

    __slots__ = ("plan", "nodes", "_listed", "_mode", "_base")

    def __init__(self, plan: Plan, nodes: tuple, base, listed=None, mode=False):
        self.plan = plan
        self.nodes = nodes
        self._base = base
        self._listed = [None] * len(nodes) if listed is None else listed
        self._mode = mode

    def __eq__(self, other):
        if not isinstance(other, FlatGraph):
            return NotImplemented
        return self.nodes == other.nodes and (
            self.plan is other.plan or self.plan.shape == other.plan.shape
        )

    def __hash__(self):
        return hash(self.nodes)

    def __repr__(self):
        return repr(self.tree())

    def tree(self):
        """The tree this stands for; subtrees whose leaves did not change
        come back as the same objects, with their stuckness memo."""
        leaves = iter(self.nodes)

        def build(g):
            if isinstance(g, Node):
                return next(leaves)
            left, right = build(g.left), build(g.right)
            if left is g.left and right is g.right:
                return g
            fresh = type(g)(left, right)
            object.__setattr__(fresh, "_stuck", left._stuck & right._stuck)
            return fresh

        self._base = build(self._base)
        return self._base

    def derive(self, nodes: list, changed):
        """A copy holding ``nodes``, where only the leaves in ``changed`` hold
        new node objects; every other leaf keeps its listed choices."""
        listed = self._listed
        if listed is None:
            return FlatGraph(self.plan, tuple(nodes), self._base)
        listed = listed.copy()
        for i in changed:
            listed[i] = None
        return FlatGraph(self.plan, tuple(nodes), self._base, listed, self._mode)


def compile_graph(e) -> FlatGraph:
    """The compiled form of a tree; a compiled graph is returned as is."""
    if isinstance(e, FlatGraph):
        return e
    plan, leaves = _plan(e)
    return FlatGraph(plan, leaves, e)


def as_tree(e):
    """The tree form of a tree or a compiled graph."""
    return e.tree() if isinstance(e, FlatGraph) else e


# ---------------------------------------------------------------------------
# exterior inputs


def inputs(e) -> tuple:
    if isinstance(e, FlatGraph):
        ins = ()
        for i, _lo, _hi in e.plan.in_leaves:
            ins += e.nodes[i].buffers
        return ins
    if isinstance(e, Node):
        return e.buffers
    if isinstance(e, Seq):
        return inputs(e.left)
    return inputs(e.left) + inputs(e.right)


def set_inputs(e, new: tuple):
    """Replace the exterior buffers. Nothing is rebuilt for a buffer that is
    the same object as before, so untouched nodes (and, on a tree,
    untouched subtrees) come back as themselves with their memo."""
    if isinstance(e, FlatGraph):
        if len(new) != e.plan.n_in:
            raise ArityMismatch(f"{len(new)} values for {e.plan.n_in} inputs")
        nodes = changed = None
        for i, lo, hi in e.plan.in_leaves:
            n = e.nodes[i]
            bufs = tuple(new[lo:hi])
            if not all(map(is_, bufs, n.buffers)):
                if nodes is None:
                    nodes, changed = list(e.nodes), []
                nodes[i] = Node(bufs, n.op, n.state)
                changed.append(i)
        return e if nodes is None else e.derive(nodes, changed)
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


def _table(g: FlatGraph, exhaustive: bool) -> list:
    """Per leaf, the enabled choices listed so far in this mode (None: not yet)."""
    table = g._listed
    if table is None or g._mode != exhaustive:
        table = g._listed = [None] * len(g.nodes)
        g._mode = exhaustive
    return table


def _list(g: FlatGraph, table: list, i: int, exhaustive: bool):
    """Evaluate leaf ``i`` and list its enabled choices, each carrying its
    outcome. A node found to have none is marked stuck for this mode."""
    n = g.nodes[i]
    bit = _STUCK_BIT[exhaustive]
    listed = ()
    if not n._stuck & bit:
        outcomes = n.op.steps(n.buffers, n.state, exhaustive)
        if outcomes:
            path, listed = g.plan.paths[i], []
            for k, r in enumerate(outcomes):
                listed.append(StepChoice(path, k, (n, exhaustive, r)))
        else:
            object.__setattr__(n, "_stuck", n._stuck | bit)
    table[i] = listed
    return listed


def _advance(g: FlatGraph, i: int, r):
    """Replace leaf ``i`` by outcome ``r`` and concat each non-EMPTY delta
    straight into its destination; returns (graph', output deltas). Every
    other leaf keeps its node and its listed choices."""
    plan, nodes, listed = g.plan, list(g.nodes), g._listed
    nodes[i] = Node(r.buffers, nodes[i].op, r.state)
    if listed is not None:
        listed = listed.copy()
        listed[i] = None
    if plan.direct[i]:
        deltas = r.deltas
    else:
        outs = None
        for d, (j, b) in zip(r.deltas, plan.wires[i]):
            if d is EMPTY:
                continue
            if j < 0:
                if outs is None:
                    outs = list(plan.blank)
                outs[b] = d
                continue
            dest = nodes[j]
            buf = dest.buffers[b]
            fed = concat(buf, d)
            if fed is not buf:  # a fixed buffer absorbs the delta and stays as it is
                nodes[j] = Node(dest.buffers[:b] + (fed,) + dest.buffers[b + 1:], dest.op, dest.state)
                if listed is not None:
                    listed[j] = None
        deltas = plan.blank if outs is None else tuple(outs)
    return FlatGraph(plan, tuple(nodes), g._base, listed, g._mode), deltas


def enabled_steps(e, exhaustive: bool = False) -> list:
    """Every applicable step, identified by node path and choice index.

    Each choice carries the outcome it would apply, so ``step_graph`` on
    the same graph does not evaluate the operator a second time.
    """
    g = e if isinstance(e, FlatGraph) else compile_graph(e)
    table = _table(g, exhaustive)
    out: list = []
    for i, listed in enumerate(table):
        out += _list(g, table, i, exhaustive) if listed is None else listed
    return out


def step_graph(e, choice: StepChoice, exhaustive: bool = False):
    """Apply one chosen step; returns (graph', output deltas, rule chain),
    with graph' in the form ``e`` was given in."""
    g = e if isinstance(e, FlatGraph) else compile_graph(e)
    i = g.plan.index.get(choice.path)
    if i is None:
        raise InvalidChoice(f"path {''.join(choice.path) or '.'} does not end at an operator node")
    found = choice.found
    if found is None or found[0] is not g.nodes[i] or found[1] != exhaustive:
        table = _table(g, exhaustive)
        listed = table[i]
        if listed is None:
            listed = _list(g, table, i, exhaustive)
        if choice.index >= len(listed):
            raise InvalidChoice(f"{g.nodes[i].op.name}: choice {choice.index} of {len(listed)}")
        found = listed[choice.index].found
    g2, deltas = _advance(g, i, found[2])
    return (g2 if e is g else g2.tree()), deltas, g.plan.rules[i]


def step_first(e):
    """Fast path: apply the first enabled step in tree order, if any.

    Returns (graph', deltas, rules, choice) or None when stuck. Sound for
    any confluent graph; the explorer covers the remaining schedules.
    """
    g = e if isinstance(e, FlatGraph) else compile_graph(e)
    table = g._listed
    if table is None or g._mode:
        table = _table(g, False)
    for i, listed in enumerate(table):
        if listed is None:
            listed = _list(g, table, i, False)
        if listed:
            g2, deltas = _advance(g, i, listed[0].found[2])
            return (g2 if e is g else g2.tree()), deltas, g.plan.rules[i], listed[0]
    return None


def apply_outputs(outputs: tuple, deltas: tuple) -> tuple:
    return tuple(map(concat, outputs, deltas))


def trajectory(e, picker: Optional[Callable] = None, cap: Optional[int] = None):
    """The run loop: yield (graph', deltas, rules, choice) for each step,
    with graph' compiled.

    ``picker(choices, step_index)`` selects among the enabled steps, or
    returns None to stop; without a picker the first enabled step in tree
    order is taken. The loop ends at a stuck graph or after ``cap`` steps,
    without looking for a further step.
    """
    e, steps = compile_graph(e), 0
    while cap is None or steps < cap:
        if picker is None:
            hit = step_first(e)
            if hit is None:
                return
        else:
            choices = enabled_steps(e)
            choice = picker(choices, steps) if choices else None
            if choice is None:
                return
            hit = step_graph(e, choice) + (choice,)
        e = hit[0]
        yield hit
        steps += 1


def run_steps(e, outputs: tuple, picker=None, cap=None, log=None, iteration=None):
    """Follow ``trajectory``, folding emissions into the outputs and logging
    every step; returns (graph, outputs, steps taken), with the graph in
    the form ``e`` was given in."""
    g, steps = e, 0
    for g, deltas, rules, choice in trajectory(e, picker, cap):
        outputs = apply_outputs(outputs, deltas)
        if log is not None:
            entry = {"path": "".join(choice.path), "choice": choice.index, "rules": list(rules)}
            if iteration is not None:
                entry["iter"] = iteration
            log.append(entry)
        steps += 1
    if g is not e and not isinstance(e, FlatGraph):
        g = g.tree()  # the caller gave a tree
    return g, outputs, steps


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
    parents: dict  # compiled config -> (parent config, StepChoice)

    def path_to(self, config) -> list:
        """Reconstruct the choice sequence that reaches ``config``."""
        path = []
        config = (compile_graph(config[0]), config[1])
        while True:
            prev = self.parents.get(config)
            if prev is None:
                return list(reversed(path))
            config, choice = prev
            path.append(choice)


def explore_all(e, outputs: tuple, max_configs: int = 100_000) -> ExploreResult:
    """Breadth-first exploration of every schedule, with state dedup.

    Each configuration is recorded with the parent it was first reached
    from, so ``path_to`` returns a shortest schedule. Stuck configurations
    come back in the form ``e`` was given in.
    """
    start = (compile_graph(e), outputs)
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
            stuck.append((g if e is start[0] else g.tree(), outs))
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
        g._listed = None  # expanded: its children hold the outcomes they share
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
    for g in e.nodes if isinstance(e, FlatGraph) else _leaves(e, []):
        r = g.op.rank(g.buffers, g.state).components
        arity = g.op.rank_arity
        if len(r) > arity:
            raise RankViolation(
                f"{g.op.name}: rank has {len(r)} components, rank_arity is {arity}"
            )
        comps.extend(r + (0,) * (arity - len(r)))
    return Rank(tuple(comps))


def _leaves(e, out: list) -> list:
    if isinstance(e, Node):
        out.append(e)
    else:
        _leaves(e.left, out)
        _leaves(e.right, out)
    return out


def budget_message(budget: int, steps: int, e) -> str:
    """Why a capped run stopped: the cap, the work done, the rank left."""
    return (
        f"step budget of {budget} exhausted after {steps} steps without reaching "
        f"a stuck state; the graph rank is still {graph_rank(e).components}"
    )
