"""Graph expressions, the boundedness typechecker, and the graph interpreter.

A graph is a binary composition tree: sequential composition feeds the
left subgraph's emissions into the right subgraph's exterior buffers,
parallel composition runs two subgraphs side by side, and a leaf node is
an operator with its buffered inputs and private state. All values are
immutable, so speculative exploration of schedules is safe.

Trees are syntax, made by the builders (``node``, ``seq_chain``, ``par``,
``Seq``, ``Par``) and by ``jsonio``'s codec. ``compile_graph`` turns one
into the one graph value, a ``FlatGraph``: a wiring ``Plan`` and one
``Node`` per leaf in tree order. Every function here compiles a tree it
is given and returns compiled graphs. ``_plan``, the one walk of a tree,
uses an explicit stack and memory linear in the tree; stepping, hashing,
comparing and printing a tree or a compiled graph recurse nowhere, and
neither does the codec, so a graph may be far deeper than the recursion
limit. A step names its leaf by index (``StepChoice``); the leaf's path
label, such as "LR", and its rule chain (sequence-left, sequence-right,
par-left, par-right, operator) are worked out only when a log, a report
or an error prints them, and kept.

A step replaces one node and concats each emitted delta straight into its
destination. ``enabled_steps`` lists the steps and ``step_graph`` applies
one, for the explorer. Every run goes through one stepping kernel,
``_kernel``: ``run_steps``, ``trajectory``, and ``step_first``, the
kernel's first step, for ``nest``'s one step at a time. A scheduler only
decides which of the ``n`` enabled steps runs next, so a picker is
``picker(n) -> index or None``, and the kernel keeps one step count per
leaf, re-counting only the leaves a step touched. It holds the run's
nodes in a list, resumes a picker-less scan at the leaf it last stepped,
and builds a graph only when its caller needs one (``run_steps`` once
per call, ``trajectory`` once per step). Evaluation is lazy: a leaf
whose operator declares ``enabled_fn`` is counted without being
evaluated, so a run evaluates only the leaf it steps. The kernel checks
a count against the outcomes only there: a count that is too high raises
FloError when its leaf is stepped, but one that is too low (0 on a leaf
with work) leaves the leaf unstepped and ends the run as if stuck; the
property suite's ``enabled_fn`` test is what catches that. ``_outcomes``
evaluates an operator and keeps what it returned on the node, so an
unchanged node is never evaluated twice.
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
    FloError,
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


def _walk(tree) -> tuple:
    """(shape, leaves) of the ``Seq`` or ``Par`` ``tree``, with an explicit
    stack: its kinds in pre-order with None at each leaf, and its leaves
    in order. Every composite has two children, so the two fix the tree."""
    shape, leaves, stack = [], [], [tree]
    while stack:
        g = stack.pop()
        kind = type(g)
        if g is tree or kind is Seq or kind is Par:
            shape.append(kind)
            stack += (g.right, g.left)
        else:
            shape.append(None)
            leaves.append(g)
    return shape, leaves


def _tree_eq(self, other):
    if type(other) is not type(self):
        return NotImplemented
    return self is other or _walk(self) == _walk(other)


def _tree_hash(self):
    return hash(tuple(_walk(self)[1]))


_CLOSE, _RIGHT = object(), object()  # the text after and between a composite's children


def _tree_repr(tree) -> str:
    """The dataclass repr of the ``Seq`` or ``Par`` ``tree``,
    ``Seq(left=..., right=...)`` around its leaves' own reprs, written
    with an explicit stack."""
    pieces, stack = [], [tree]
    while stack:
        g = stack.pop()
        kind = type(g)
        if g is _CLOSE:
            pieces.append(")")
        elif g is _RIGHT:
            pieces.append(", right=")
        elif g is tree or kind is Seq or kind is Par:
            pieces.append(f"{kind.__name__}(left=")
            stack += (_CLOSE, g.right, _RIGHT, g.left)
        else:
            pieces.append(repr(g))
    return "".join(pieces)


# Builder trees compare, hash and print with explicit stacks and without
# compiling, so an ill-typed tree prints too. The walks take their root as
# a composite by identity, not by class, so they also serve a copy of
# ``Seq`` or ``Par`` declared elsewhere with these methods.


@record
class Seq:
    left: object
    right: object
    __eq__, __hash__, __repr__ = _tree_eq, _tree_hash, _tree_repr


@record
class Par:
    left: object
    right: object
    __eq__, __hash__, __repr__ = _tree_eq, _tree_hash, _tree_repr


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


def _pos(cell) -> str:
    """A position as errors name it: ``root`` plus the path to a plan cell."""
    return "root" + "".join("." + step for step in _located(cell)[0])


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
            pos = _pos(plan.cells[i])
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
                raise DeferKeyUnbound(f"read_defer key {key!r} not in context", _pos(plan.cells[i]))
            if reads[key] != tag:
                raise DeferContextMismatch(
                    f"read_defer key {key!r} has {tag}, context expects {reads[key]}",
                    _pos(plan.cells[i]),
                )
        if len(n.buffers) != len(op.inputs):
            raise ArityMismatch(f"{op.name}: buffer arity", _pos(plan.cells[i]))
        for b, (buf, st) in enumerate(zip(n.buffers, op.inputs)):
            if not member(buf, st.collection):
                raise BufferTypeMismatch(
                    f"{op.name}: buffer {b} is not a {st.collection}", _pos(plan.cells[i])
                )

    for i, n in enumerate(nodes):
        for o, (j, b) in zip(n.op.outputs, plan.wires[i]):
            if j < 0:
                continue
            dest = nodes[j].op
            wanted = dest.inputs[b]
            if not subtype(o, wanted):
                pos = _pos(plan.cells[j])
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
    ``(-1, port)`` for a graph output. Each field holds O(1) entries per
    tree position; ``where`` keeps a leaf's path and rules once asked.
    """

    shape: tuple  # the tree's kinds (Node, Seq or Par) in post-order
    cells: tuple  # per leaf: (parent's cell, (path step, rule)), None at the root
    located: list  # per leaf: what ``where`` returned for it, or None
    wires: tuple  # per leaf, per output port: (leaf, buffer) or (-1, port)
    in_leaves: tuple  # (leaf, lo, hi): that leaf's buffers are exterior inputs lo:hi
    outs: tuple  # the graph outputs in order, as (leaf, port)
    n_in: int  # number of exterior inputs
    blank: tuple  # one EMPTY per graph output
    direct: tuple  # per leaf: its output ports are the graph outputs, in order
    touched: tuple  # per leaf: the leaves a step there may replace: itself, then those its wires feed
    reads: tuple  # (read_defer key, leaf) in tree order
    writes: tuple  # (write_defer key, leaf) in tree order

    def where(self, i: int) -> tuple:
        """``_located`` of leaf ``i``, worked out on first use and kept, so
        a step that asks again does no new work."""
        hit = self.located[i]
        if hit is None:
            hit = self.located[i] = _located(self.cells[i])
        return hit


# Per composite kind: the (path step, rule) of its left and right edges.
_EDGES = {
    Seq: (("L", "sequence-left"), ("R", "sequence-right")),
    Par: (("L", "par-left"), ("R", "par-right")),
}


def _located(cell) -> tuple:
    """(label, rules) of the leaf a plan cell reaches: its path as "L"/"R"
    letters, such as "LR" ("" for a graph that is one node), and the rule
    chain of a step there, outermost first."""
    steps, rules = [], ["operator"]
    while cell is not None:
        cell, (step, rule) = cell
        steps.append(step)
        rules.append(rule)
    return "".join(reversed(steps)), tuple(reversed(rules))


def _plan(e) -> tuple:
    """(Plan, leaves) of a tree, in one post-order walk with an explicit
    stack. The one place a tree's structure is worked out. A subtree is
    reached through a cell, (its parent's cell, the edge into it), which
    its leaves share, so the walk takes time and memory linear in the tree."""
    leaves, cells, wires, shape = [], [], [], []
    # Per finished subtree: its exterior inputs as (leaf, buffer) pairs and
    # its exterior outputs as (leaf, port) pairs.
    done: list = []
    stack = [(e, None, False)]  # (subtree, its cell, children done)
    while stack:
        g, cell, expanded = stack.pop()
        kind = type(g)
        if kind is Node:
            i, n_out = len(leaves), len(g.op.outputs)
            leaves.append(g)
            cells.append(cell)
            wires.append([None] * n_out)
            shape.append(Node)
            done.append(([(i, b) for b in range(len(g.buffers))], [(i, p) for p in range(n_out)]))
        elif kind not in _EDGES:
            raise GraphTypeError(f"not a graph expression: {g!r}", _pos(cell))
        elif not expanded:
            left, right = _EDGES[kind]
            stack += ((g, cell, True), (g.right, (cell, right), False), (g.left, (cell, left), False))
        else:
            shape.append(kind)
            r_in, r_out = done.pop()
            l_in, l_out = done.pop()
            if kind is Par:
                done.append(((l_in, r_in), (l_out, r_out)))
                continue
            # A sequence wires its left outputs to its right inputs.
            l_out, r_in = _flat(l_out), _flat(r_in)
            if len(l_out) != len(r_in):
                raise ArityMismatch(f"{len(l_out)} outputs feed {len(r_in)} inputs", _pos(cell))
            for (i, p), dest in zip(l_out, r_in):
                wires[i][p] = dest
            done.append((l_in, r_out))
    ((ins, outs),) = done
    ins, outs = _flat(ins), _flat(outs)
    graph_outs = [(-1, port) for port in range(len(outs))]
    for (i, p), dest in zip(outs, graph_outs):
        wires[i][p] = dest
    plan = Plan(
        shape=tuple(shape),
        cells=tuple(cells),
        located=[None] * len(leaves),
        wires=tuple(tuple(w) for w in wires),
        in_leaves=_in_leaves(ins),
        outs=tuple(outs),
        n_in=len(ins),
        blank=(EMPTY,) * len(outs),
        direct=tuple(w == graph_outs for w in wires),
        touched=tuple(tuple(dict.fromkeys([i] + [j for j, _b in w if j >= 0])) for i, w in enumerate(wires)),
        reads=tuple((k, i) for i, n in enumerate(leaves) for k, _t in n.op.defer_reads),
        writes=tuple((k, i) for i, n in enumerate(leaves) for k, _t in n.op.defer_writes),
    )
    return plan, tuple(leaves)


def _flat(rope) -> list:
    """The pairs of a rope: a leaf's list, or (left rope, right rope) for a
    ``Par``. Joining copies nothing, and each rope is flattened once, by
    the sequence that wires it or at the root."""
    out, stack = [], [rope]
    while stack:
        r = stack.pop()
        if type(r) is list:
            out += r
        else:
            stack += (r[1], r[0])
    return out


def _in_leaves(ins) -> tuple:
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
    """A compiled graph, the one graph value past the builders: its plan
    and one ``Node`` per leaf, in tree order.

    Two compiled graphs are equal when their shapes and nodes are; one
    hashes as its nodes, and prints as the tree it was compiled from.
    """

    __slots__ = ("plan", "nodes")

    def __init__(self, plan: Plan, nodes: tuple):
        self.plan = plan
        self.nodes = nodes

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
        """The composition tree this graph stands for, rebuilt from the shape."""
        built: list = []
        leaves = iter(self.nodes)
        for kind in self.plan.shape:
            if kind is Node:
                built.append(next(leaves))
            else:
                right = built.pop()
                built[-1] = kind(built[-1], right)
        return built[0]


def compile_graph(e) -> FlatGraph:
    """The compiled form of a tree; a compiled graph is returned as is."""
    if isinstance(e, FlatGraph):
        return e
    return FlatGraph(*_plan(e))


# ---------------------------------------------------------------------------
# exterior inputs


def inputs(e) -> tuple:
    g = compile_graph(e)
    ins = ()
    for i, _lo, _hi in g.plan.in_leaves:
        ins += g.nodes[i].buffers
    return ins


def set_inputs(e, new: tuple) -> FlatGraph:
    """Replace the exterior buffers. Nothing is rebuilt for a buffer that is
    the same object as before, so untouched nodes come back as themselves
    with their memo, and the graph itself when no buffer changed."""
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
    return g if nodes is None else FlatGraph(g.plan, tuple(nodes))


# ---------------------------------------------------------------------------
# small steps


@record
class StepChoice:
    leaf: int  # the leaf's number in tree order
    index: int  # operator-internal choice

    def __str__(self):
        return f"leaf {self.leaf}#{self.index}"


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


def _count(n: Node) -> int:
    """How many fast-mode steps ``n`` has: the outcomes the node keeps,
    when it keeps them (``nest`` scans the same stuck inner leaves on
    every inner step), else ``enabled_fn``'s answer, without evaluating,
    for an operator that declares one."""
    out = n._fast
    if out is not None:
        return len(out)
    enabled = n.op.enabled_fn
    if enabled is None:
        return len(_outcomes(n, False))
    return enabled(n.buffers, n.state)


def _advance(plan: Plan, nodes: list, i: int, r) -> tuple:
    """Replace leaf ``i`` of ``nodes`` by outcome ``r``, in place, and concat
    each non-EMPTY delta straight into its destination; returns the
    (port, delta) pairs the step wrote to graph outputs."""
    n = nodes[i]
    nodes[i] = Node(r.buffers, n.op, r.state)
    written = ()
    for d, (j, b) in zip(r.deltas, plan.wires[i]):
        if d is EMPTY:
            continue
        if j < 0:
            written += ((b, d),)
            continue
        dest = nodes[j]
        buf = dest.buffers[b]
        fed = concat(buf, d)
        if fed is not buf:  # a fixed buffer absorbs the delta and stays as it is
            nodes[j] = Node(dest.buffers[:b] + (fed,) + dest.buffers[b + 1:], dest.op, dest.state)
    return written


def _deltas(plan: Plan, i: int, r, written: tuple) -> tuple:
    """One delta per graph output after leaf ``i`` took outcome ``r`` and
    wrote ``written``: the plan's one ``blank`` when it wrote none."""
    if not written:
        return plan.blank
    if plan.direct[i]:
        return r.deltas
    outs = list(plan.blank)
    for port, d in written:
        outs[port] = d
    return tuple(outs)


def enabled_steps(e, exhaustive: bool = False) -> list:
    """Every applicable step, identified by leaf and choice index."""
    g = compile_graph(e)
    return [StepChoice(i, k) for i, n in enumerate(g.nodes) for k in range(len(_outcomes(n, exhaustive)))]


def step_graph(e, choice: StepChoice, exhaustive: bool = False):
    """Apply one chosen step; returns (graph', output deltas)."""
    g = compile_graph(e)
    i = choice.leaf
    if not 0 <= i < len(g.nodes):
        raise InvalidChoice(f"no leaf {i} in a graph of {len(g.nodes)} leaves")
    rs = _outcomes(g.nodes[i], exhaustive)
    if choice.index >= len(rs):
        raise InvalidChoice(f"{g.nodes[i].op.name}: choice {choice.index} of {len(rs)}")
    nodes, r = list(g.nodes), rs[choice.index]
    written = _advance(g.plan, nodes, i, r)
    return FlatGraph(g.plan, tuple(nodes)), _deltas(g.plan, i, r, written)


def step_first(e):
    """Fast path: apply the first enabled step in tree order, if any.

    Returns (graph', deltas, choice) or None when stuck: the
    kernel's first step, as ``trajectory(e, cap=1)`` yields it. It drives
    the kernel itself, not through ``trajectory``, because ``nest`` calls
    it once per inner step and a second generator per call shows on
    nested workloads. Sound for any confluent graph; the explorer covers
    the remaining schedules.
    """
    g = compile_graph(e)
    for nodes, i, _k, r, written in _kernel(g, None, 1):
        return FlatGraph(g.plan, tuple(nodes)), _deltas(g.plan, i, r, written), StepChoice(i, 0)
    return None


def apply_outputs(outputs: tuple, deltas: tuple) -> tuple:
    return tuple(map(concat, outputs, deltas))


def _kernel(g: FlatGraph, picker: Optional[Callable], cap: Optional[int]):
    """The stepping kernel under ``run_steps``, ``trajectory`` and
    ``step_first``. Yields (nodes, leaf, choice index, outcome, written)
    per step: ``nodes`` is the run's own list of nodes, replaced in place,
    and ``written`` the (port, delta) pairs the step wrote to graph
    outputs. Leaves are counted with ``_count``, and only the stepped
    leaf is evaluated.

    Without a picker it takes the first enabled step in tree order. A
    step replaces only its leaf and the leaves its wires feed, which come
    later in tree order, so every leaf before the stepped one is still
    stuck and the next scan resumes there. With a picker it keeps one
    step count per leaf and their total, and re-counts only the leaves
    the step touched. ``picker(n)`` is given the number of enabled steps
    and returns the index of one in ``enabled_steps`` order (by leaf, then
    by choice), which the kernel finds by walking the counts, or None to
    stop; an index outside ``[0, n)`` raises InvalidChoice.
    """
    plan, nodes = g.plan, list(g.nodes)
    n, steps, i = len(nodes), 0, 0  # without a picker, every leaf before i is stuck
    counts = None if picker is None else [_count(nd) for nd in nodes]
    total = 0 if counts is None else sum(counts)
    while cap is None or steps < cap:
        if counts is None:
            while i < n:
                c = _count(nodes[i])
                if c:
                    break
                i += 1
            else:
                return
            k = 0
        else:
            k = picker(total) if total else None
            if k is None:
                return
            if not 0 <= k < total:
                raise InvalidChoice(f"picked step {k} of {total} enabled steps")
            i = 0
            while k >= counts[i]:
                k -= counts[i]
                i += 1
            c = counts[i]
        rs = _outcomes(nodes[i], False)
        if len(rs) != c:
            raise FloError(f"{nodes[i].op.name}: enabled_fn counts {c} steps but steps_fn returned {len(rs)}")
        r = rs[k]
        written = _advance(plan, nodes, i, r)
        if counts is not None:
            for j in plan.touched[i]:
                c = _count(nodes[j])
                total += c - counts[j]
                counts[j] = c
        yield nodes, i, k, r, written
        steps += 1


def trajectory(e, picker: Optional[Callable] = None, cap: Optional[int] = None):
    """The run loop: yield (graph', deltas, choice) for each step.

    ``picker(n)`` picks one of the ``n`` enabled steps by its index in
    ``enabled_steps`` order, or returns None to stop; without a picker the
    first enabled step in tree order is taken. The loop ends at a stuck
    graph or after ``cap`` steps, without looking for a further step. Each
    step builds its graph, for callers that look at every configuration;
    ``run_steps`` builds one.
    """
    g = compile_graph(e)
    plan = g.plan
    for nodes, i, k, r, written in _kernel(g, picker, cap):
        yield FlatGraph(plan, tuple(nodes)), _deltas(plan, i, r, written), StepChoice(i, k)


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
    """Run the stepping kernel, folding each step into the outputs it wrote
    and logging every step as a ``StepEvent``; returns (graph, outputs,
    steps taken). The graph is built once, at the end: the one given when
    no step was taken."""
    g, steps = compile_graph(e), 0
    plan, nodes, outs = g.plan, None, None
    events: dict = {}  # (leaf, choice) -> its event; one plan runs here, so the choice fixes the rules
    for nodes, i, k, _r, written in _kernel(g, picker, cap):
        for port, d in written:
            if outs is None:
                outs = list(outputs)
            outs[port] = concat(outs[port], d)
        if log is not None:
            ev = events.get((i, k))
            if ev is None:
                label, rules = plan.where(i)
                ev = events[i, k] = StepEvent(iteration, label, k, rules)
            log.append(ev)
        steps += 1
    if nodes is not None:
        g = FlatGraph(plan, tuple(nodes))
    return g, (outputs if outs is None else tuple(outs)), steps


def run_to_stuck(
    e,
    outputs: tuple,
    picker: Optional[Callable] = None,
    budget: int = 10_000,
    log: Optional[list] = None,
):
    """Run until no step applies, folding emissions into the outputs.

    ``picker(n)`` picks one of the ``n`` enabled steps by index, as
    ``trajectory`` says; None uses the first enabled step in tree order.
    The budget is a fixed cap on work: a run still going after
    ``budget + 1`` steps raises StepBudgetExceeded, which reports the
    cap, the steps taken and the graph's current rank.
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
    parents: dict  # every config seen -> (parent config, StepChoice), or None at the start

    def path_to(self, config) -> list:
        """Reconstruct the choice sequence that reaches ``config``."""
        path, prev = [], self.parents.get((compile_graph(config[0]), config[1]))
        while prev is not None:
            config, choice = prev
            path.append(choice)
            prev = self.parents.get(config)
        return path[::-1]


def explore_all(e, outputs: tuple, max_configs: int = 100_000) -> ExploreResult:
    """Breadth-first exploration of every schedule, with state dedup.

    Each configuration is recorded with the parent it was first reached
    from, so ``path_to`` returns a shortest schedule.
    """
    start = (compile_graph(e), outputs)
    blank = start[0].plan.blank
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
            g2, deltas = step_graph(g, ch, exhaustive=True)
            nxt = (g2, outs if deltas is blank else apply_outputs(outs, deltas))
            if nxt in parents:
                continue
            if len(parents) >= max_configs:
                capped = True
                continue
            parents[nxt] = (cfg, ch)
            queue.append(nxt)
    return ExploreResult(stuck=stuck, visited=len(parents), capped=capped, parents=parents)


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
