"""Graph expressions, the boundedness typechecker, and the graph interpreter.

A graph is a binary composition tree: sequential composition feeds the
left subgraph's emissions into the right subgraph's exterior buffers,
parallel composition runs two subgraphs side by side, and a leaf node is
an operator with its buffered inputs and private state. All values are
immutable; every step produces a fresh tree, which makes speculative
exploration of schedules safe.

Step rules carry their names (sequence-left, sequence-right, par-left,
par-right, operator) so event logs can be replayed and audited. A log
entry is a ``StepEvent`` record; ``run_steps`` interns one per choice
taken in a call, so a log holds one pointer per step.

Trees are the syntax; typing and stepping run on a compiled form. The
rules only move deltas between exterior buffers that the tree fixes, so
``compile_graph`` computes that wiring once (a ``Plan``) and a
``FlatGraph`` holds one ``Node`` per leaf. ``_plan`` is the one walk of a
tree and ``FlatGraph.tree`` the one rebuild; both use an explicit stack,
and the typechecker and the type queries read the plan, so a graph may
be far deeper than the interpreter's recursion limit. (Comparing, hashing
or printing two trees still recurses.) A step replaces one node and
concats each emitted delta straight into its destination; no composite
is rebuilt. Every function here takes a tree or a compiled graph and
gives back the form it was given. ``enabled_steps`` lists the enabled
steps, ``step_graph`` and ``step_first`` apply one, ``trajectory`` is
the one run loop built on them, and ``run_steps`` folds it into outputs
and the log. ``_outcomes`` is the one place an operator is evaluated,
and a node keeps what it returned (see ``Node``), so an unchanged node
is never evaluated twice. A tree is rebuilt only when a caller asks for
one.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
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
    memo,
    record,
    subtype,
)


# ---------------------------------------------------------------------------
# graph expressions


@record
class Node:
    buffers: tuple
    op: OperatorDef
    state: object
    # The outcomes of the node's enabled steps, one list per step mode,
    # filled by ``_outcomes``; an empty list is a stuck node. Operators are
    # pure and a node never changes, so a filled list stays true.
    _fast: Optional[list] = memo()
    _full: Optional[list] = memo()


@record
class Seq:
    left: object
    right: object


@record
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
    """Right-nested sequential composition of one or more graphs."""
    return _nest_right(Seq, graphs, "sequential")


def par(*graphs) -> GraphExpr:
    """Right-nested parallel composition of one or more graphs."""
    return _nest_right(Par, graphs, "parallel")


def _nest_right(kind, graphs, what):
    if not graphs:
        raise ArityMismatch(f"empty {what} composition")
    g = graphs[-1]
    for left in reversed(graphs[:-1]):
        g = kind(left, g)
    return g


def in_types(e) -> tuple:
    g = compile_graph(e)
    return tuple(st for i, _lo, _hi in g.plan.in_leaves for st in g.nodes[i].op.inputs)


def out_types(e) -> tuple:
    g = compile_graph(e)
    return tuple(g.nodes[i].op.outputs[p] for i, p in g.plan.outs)


def out_arity(e) -> int:
    return len(compile_graph(e).plan.outs)


# ---------------------------------------------------------------------------
# typechecking


@record
class GraphType:
    inputs: tuple
    outputs: tuple

    def __str__(self):
        ins = ",".join(str(t) for t in self.inputs)
        outs = ",".join(str(t) for t in self.outputs)
        return f"({ins}) -> ({outs})"


@record
class DeferContexts:
    """Read context plus the linearly-used write context."""

    reads: tuple = ()  # tuple[(key, Tag)]
    writes: tuple = ()


def _pos(path: tuple) -> str:
    """A position as errors name it: ``root`` plus the path."""
    return "root" + "".join("." + step for step in path)


def typecheck(e, ctx: Optional[DeferContexts] = None) -> GraphType:
    """Derive the unique graph type or raise a GraphTypeError.

    Reads the compiled plan: the write keys, each leaf, then each wire from
    a leaf's output port to a buffer. The write context is linear: the set
    of write_defer keys in the graph must exactly match the provided
    context, each used once. At a top-level graph both contexts are empty.
    """
    g = compile_graph(e)
    plan, nodes = g.plan, g.nodes
    ctx = ctx or DeferContexts()
    reads = dict(ctx.reads)
    writes = dict(ctx.writes)

    seen = {}
    for i, n in enumerate(nodes):
        for key, tag in n.op.defer_writes:
            pos = _pos(plan.paths[i])
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

    for i, n in enumerate(nodes):
        op = n.op
        for key, tag in op.defer_reads:
            if key not in reads:
                raise DeferKeyUnbound(f"read_defer key {key!r} not in context", _pos(plan.paths[i]))
            if reads[key] != tag:
                raise DeferContextMismatch(
                    f"read_defer key {key!r} has {tag}, context expects {reads[key]}",
                    _pos(plan.paths[i]),
                )
        if len(n.buffers) != len(op.inputs):
            raise ArityMismatch(f"{op.name}: buffer arity", _pos(plan.paths[i]))
        for b, (buf, st) in enumerate(zip(n.buffers, op.inputs)):
            if not member(buf, st.collection):
                raise BufferTypeMismatch(
                    f"{op.name}: buffer {b} is not a {st.collection}", _pos(plan.paths[i])
                )

    for i, n in enumerate(nodes):
        for o, (j, b) in zip(n.op.outputs, plan.wires[i]):
            if j < 0:
                continue
            dest = nodes[j].op
            wanted = dest.inputs[b]
            if not subtype(o, wanted):
                pos = _pos(plan.paths[j])
                if o.collection == wanted.collection:
                    raise BoundednessViolation(f"{o} cannot feed {wanted} of {dest.name}", pos)
                raise SubtypeMismatch(f"{o} is not a subtype of {wanted}", f"{pos}[{b}]")
    return GraphType(in_types(g), out_types(g))


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

    shape: tuple  # the tree's kinds (Node, Seq or Par) in post-order
    paths: tuple  # per leaf: its path, a tuple of "L"/"R"
    rules: tuple  # per leaf: the rule chain of a step there, outermost first
    wires: tuple  # per leaf, per output port: (leaf, buffer) or (-1, port)
    in_leaves: tuple  # (leaf, lo, hi): that leaf's buffers are exterior inputs lo:hi
    outs: tuple  # the graph outputs in order, as (leaf, port)
    n_in: int  # number of exterior inputs
    blank: tuple  # one EMPTY per graph output
    direct: tuple  # per leaf: its output ports are the graph outputs, in order
    index: dict  # path -> leaf
    firsts: tuple  # per leaf: StepChoice(path, 0)
    reads: tuple  # (read_defer key, leaf) in tree order
    writes: tuple  # (write_defer key, leaf) in tree order


# Per composite kind: the (path step, rule) of its left and right edges.
_EDGES = {
    Seq: (("L", "sequence-left"), ("R", "sequence-right")),
    Par: (("L", "par-left"), ("R", "par-right")),
}


def _plan(e) -> tuple:
    """(Plan, leaves) of a tree, in one post-order walk with an explicit
    stack. The one place a tree's structure is worked out."""
    leaves, paths, rules, wires, shape = [], [], [], [], []
    # Per finished subtree: its exterior inputs as (leaf, buffer) pairs and
    # its exterior outputs as (leaf, port) pairs.
    done: list = []
    # The path and rule chain of the subtree being visited; a subtree at
    # depth d owns entries d and up, so its ancestors' stay in place.
    path: list = []
    chain: list = []
    stack = [(e, 0, None, False)]  # (subtree, depth, edge into it, children done)
    while stack:
        g, d, edge, expanded = stack.pop()
        if edge is not None:
            path[d - 1:] = edge[:1]
            chain[d - 1:] = edge[1:]
        kind = type(g)
        if kind is Node:
            i, n_out = len(leaves), len(g.op.outputs)
            leaves.append(g)
            paths.append(tuple(path))
            rules.append((*chain, "operator"))
            wires.append([None] * n_out)
            shape.append(Node)
            done.append(([(i, b) for b in range(len(g.buffers))], [(i, p) for p in range(n_out)]))
        elif kind not in _EDGES:
            raise GraphTypeError(f"not a graph expression: {g!r}", _pos(path))
        elif not expanded:
            left, right = _EDGES[kind]
            stack += ((g, d, None, True), (g.right, d + 1, right, False), (g.left, d + 1, left, False))
        else:
            shape.append(kind)
            r_in, r_out = done.pop()
            l_in, l_out = done.pop()
            if kind is Par:
                done.append((l_in + r_in, l_out + r_out))
                continue
            # A sequence wires its left outputs to its right inputs.
            if len(l_out) != len(r_in):
                raise ArityMismatch(f"{len(l_out)} outputs feed {len(r_in)} inputs", _pos(path[:d]))
            for (i, p), dest in zip(l_out, r_in):
                wires[i][p] = dest
            done.append((l_in, r_out))
    ((ins, outs),) = done
    graph_outs = [(-1, port) for port in range(len(outs))]
    for (i, p), dest in zip(outs, graph_outs):
        wires[i][p] = dest
    plan = Plan(
        shape=tuple(shape),
        paths=tuple(paths),
        rules=tuple(rules),
        wires=tuple(tuple(w) for w in wires),
        in_leaves=_in_leaves(ins),
        outs=tuple(outs),
        n_in=len(ins),
        blank=(EMPTY,) * len(outs),
        direct=tuple(w == graph_outs for w in wires),
        index={p: i for i, p in enumerate(paths)},
        firsts=tuple(StepChoice(p, 0) for p in paths),
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

    It compares, hashes and prints as the tree it stands for. ``_base`` is
    the last tree known for this shape, whose untouched subtrees ``tree()``
    hands back as themselves.
    """

    __slots__ = ("plan", "nodes", "_base")

    def __init__(self, plan: Plan, nodes: tuple, base):
        self.plan = plan
        self.nodes = nodes
        self._base = base

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
        come back as the same objects."""
        leaves = iter(self.nodes)
        built: list = []  # finished subtrees, left to right
        stack = [(self._base, False)]
        while stack:
            g, expanded = stack.pop()
            if type(g) is Node:
                built.append(next(leaves))
            elif not expanded:
                stack += ((g, True), (g.right, False), (g.left, False))
            else:
                right = built.pop()
                left = built.pop()
                built.append(g if left is g.left and right is g.right else type(g)(left, right))
        (self._base,) = built
        return self._base


def compile_graph(e) -> FlatGraph:
    """The compiled form of a tree; a compiled graph is returned as is."""
    if isinstance(e, FlatGraph):
        return e
    plan, leaves = _plan(e)
    return FlatGraph(plan, leaves, e)


def as_tree(e):
    """The tree form of a tree or a compiled graph."""
    return e.tree() if isinstance(e, FlatGraph) else e


def _like(e, g: FlatGraph):
    """``g`` in the form ``e`` was given in."""
    return g if isinstance(e, FlatGraph) else g.tree()


# ---------------------------------------------------------------------------
# exterior inputs


def inputs(e) -> tuple:
    g = compile_graph(e)
    ins = ()
    for i, _lo, _hi in g.plan.in_leaves:
        ins += g.nodes[i].buffers
    return ins


def set_inputs(e, new: tuple):
    """Replace the exterior buffers. Nothing is rebuilt for a buffer that is
    the same object as before, so untouched nodes (and, on a tree,
    untouched subtrees) come back as themselves with their memo."""
    g = compile_graph(e)
    if len(new) != g.plan.n_in:
        raise ArityMismatch(f"{len(new)} values for {g.plan.n_in} inputs")
    nodes = None
    for i, lo, hi in g.plan.in_leaves:
        n = g.nodes[i]
        bufs = tuple(new[lo:hi])
        if not all(map(is_, bufs, n.buffers)):
            if nodes is None:
                nodes = list(g.nodes)
            nodes[i] = Node(bufs, n.op, n.state)
    return e if nodes is None else _like(e, FlatGraph(g.plan, tuple(nodes), g._base))


# ---------------------------------------------------------------------------
# small steps


@record
class StepChoice:
    path: tuple  # of "L"/"R", ending at a Node
    index: int  # operator-internal choice

    def __str__(self):
        return f"{''.join(self.path) or '.'}#{self.index}"


_SET_FAST, _SET_FULL = Node._fast.__set__, Node._full.__set__  # the memo slots' stores


def _outcomes(n: Node, exhaustive: bool) -> list:
    """The outcome of each enabled step of ``n`` in one step mode. The only
    place an operator is evaluated: the first call fills the node's memo."""
    if exhaustive:
        out = n._full
        if out is None:
            out = n.op.steps(n.buffers, n.state, True)
            _SET_FULL(n, out)
    else:
        out = n._fast
        if out is None:
            out = n.op.steps(n.buffers, n.state, False)
            _SET_FAST(n, out)
    return out


def _advance(g: FlatGraph, i: int, r):
    """Replace leaf ``i`` by outcome ``r`` and concat each non-EMPTY delta
    straight into its destination; returns (graph', output deltas)."""
    plan, nodes = g.plan, list(g.nodes)
    nodes[i] = Node(r.buffers, nodes[i].op, r.state)
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
        deltas = plan.blank if outs is None else tuple(outs)
    return FlatGraph(plan, tuple(nodes), g._base), deltas


def enabled_steps(e, exhaustive: bool = False) -> list:
    """Every applicable step, identified by node path and choice index."""
    g = compile_graph(e)
    plan, out = g.plan, []
    for i, n in enumerate(g.nodes):
        rs = _outcomes(n, exhaustive)
        if rs:
            out.append(plan.firsts[i])
            if len(rs) > 1:
                out += [StepChoice(plan.paths[i], k) for k in range(1, len(rs))]
    return out


def step_graph(e, choice: StepChoice, exhaustive: bool = False):
    """Apply one chosen step; returns (graph', output deltas, rule chain),
    with graph' in the form ``e`` was given in."""
    g = compile_graph(e)
    i = g.plan.index.get(choice.path)
    if i is None:
        raise InvalidChoice(f"path {''.join(choice.path) or '.'} does not end at an operator node")
    rs = _outcomes(g.nodes[i], exhaustive)
    if choice.index >= len(rs):
        raise InvalidChoice(f"{g.nodes[i].op.name}: choice {choice.index} of {len(rs)}")
    g2, deltas = _advance(g, i, rs[choice.index])
    return _like(e, g2), deltas, g.plan.rules[i]


def step_first(e):
    """Fast path: apply the first enabled step in tree order, if any.

    Returns (graph', deltas, rules, choice) or None when stuck. Sound for
    any confluent graph; the explorer covers the remaining schedules.
    """
    g = compile_graph(e)
    for i, n in enumerate(g.nodes):
        rs = _outcomes(n, False)
        if rs:
            g2, deltas = _advance(g, i, rs[0])
            return _like(e, g2), deltas, g.plan.rules[i], g.plan.firsts[i]
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


@record
class StepEvent:
    """One logged step. Events are values, so a log holds one shared event
    per choice taken in a ``run_steps`` call, not one object per step."""

    iteration: Optional[int]  # the event-loop iteration, or None outside the loop
    path: str  # the leaf's path label, such as "LR"
    choice: int  # operator-internal choice index
    rules: tuple  # the plan's rule chain, outermost first

    def as_dict(self) -> dict:
        """The JSON form of one ``--log`` line."""
        entry = {"path": self.path, "choice": self.choice, "rules": list(self.rules)}
        if self.iteration is not None:
            entry["iter"] = self.iteration
        return entry


def run_steps(e, outputs: tuple, picker=None, cap=None, log=None, iteration=None):
    """Follow ``trajectory``, folding emissions into the outputs and logging
    every step as a ``StepEvent``; returns (graph, outputs, steps taken),
    with the graph in the form ``e`` was given in."""
    g, steps = compile_graph(e), 0
    blank = g.plan.blank  # what _advance returns when no delta reaches an output
    events: dict = {}  # StepChoice -> its event; one plan runs here, so the choice fixes the rules
    for g, deltas, rules, choice in trajectory(g, picker, cap):
        if deltas is not blank:
            outputs = apply_outputs(outputs, deltas)
        if log is not None:
            ev = events.get(choice)
            if ev is None:
                ev = events[choice] = StepEvent(iteration, "".join(choice.path), choice.index, rules)
            log.append(ev)
        steps += 1
    return _like(e, g), outputs, steps


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
    blank = start[0].plan.blank
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
            stuck.append((_like(e, g), outs))
            continue
        for ch in choices:
            g2, deltas, _rules = step_graph(g, ch, exhaustive=True)
            nxt = (g2, outs if deltas is blank else apply_outputs(outs, deltas))
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
    for g in compile_graph(e).nodes:
        r = g.op.rank(g.buffers, g.state).components
        arity = g.op.rank_arity
        if len(r) > arity:
            raise RankViolation(
                f"{g.op.name}: rank has {len(r)} components, rank_arity is {arity}"
            )
        comps.extend(r + (0,) * (arity - len(r)))
    return Rank(tuple(comps))


def budget_message(budget: int, steps: int, e) -> str:
    """Why a capped run stopped: the cap, the work done, the rank left."""
    return (
        f"step budget of {budget} exhausted after {steps} steps without reaching "
        f"a stuck state; the graph rank is still {graph_rank(e).components}"
    )
