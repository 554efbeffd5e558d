"""A reference interpreter: the small-step rules stepped directly on the tree.

This is the tree-walking engine flo used before graphs were compiled into
a wiring plan. Each step walks the composition tree, evaluates every
operator it passes, and rebuilds the tree around the stepped node,
feeding a sequence's right side what its left side emitted. It keeps no
memo and reuses no outcome, so it shares nothing with the compiled
engine except the operators themselves (``nest`` still runs its inner
graph on the compiled engine).
"""

from __future__ import annotations

from collections import deque

from flo.core import EMPTY, InvalidChoice, concat
from flo.graph import Node, Par, Seq, StepChoice, apply_outputs


def inputs(e) -> tuple:
    if isinstance(e, Node):
        return e.buffers
    if isinstance(e, Seq):
        return inputs(e.left)
    return inputs(e.left) + inputs(e.right)


def set_inputs(e, new: tuple):
    if isinstance(e, Node):
        return Node(tuple(new), e.op, e.state)
    if isinstance(e, Seq):
        return Seq(set_inputs(e.left, new), e.right)
    n_left = len(inputs(e.left))
    return Par(set_inputs(e.left, new[:n_left]), set_inputs(e.right, new[n_left:]))


def out_arity(e) -> int:
    if isinstance(e, Node):
        return len(e.op.outputs)
    if isinstance(e, Seq):
        return out_arity(e.right)
    return out_arity(e.left) + out_arity(e.right)


def enabled_steps(e, exhaustive=False, path=()) -> list:
    """Every enabled step under ``e``, in tree order."""
    if isinstance(e, Node):
        return [StepChoice(path, i) for i in range(len(e.op.steps(e.buffers, e.state, exhaustive)))]
    if not isinstance(e, (Seq, Par)):
        raise InvalidChoice(f"not a graph expression: {e!r}")
    return enabled_steps(e.left, exhaustive, path + ("L",)) + enabled_steps(
        e.right, exhaustive, path + ("R",)
    )


def step_graph(e, choice, exhaustive=False):
    """Apply ``choice``; returns (graph', deltas, rule chain)."""
    if not choice.path:
        if not isinstance(e, Node):
            raise InvalidChoice("path stops before reaching an operator node")
        r = e.op.steps(e.buffers, e.state, exhaustive)[choice.index]
        return Node(r.buffers, e.op, r.state), r.deltas, ("operator",)
    side, rest = choice.path[0], StepChoice(choice.path[1:], choice.index)
    if isinstance(e, Seq):
        if side == "L":
            left, deltas, rules = step_graph(e.left, rest, exhaustive)
            fed = tuple(concat(b, d) for b, d in zip(inputs(e.right), deltas))
            right = set_inputs(e.right, fed)
            return Seq(left, right), (EMPTY,) * out_arity(right), ("sequence-left",) + rules
        right, deltas, rules = step_graph(e.right, rest, exhaustive)
        return Seq(e.left, right), deltas, ("sequence-right",) + rules
    if isinstance(e, Par):
        if side == "L":
            left, deltas, rules = step_graph(e.left, rest, exhaustive)
            return Par(left, e.right), deltas + (EMPTY,) * out_arity(e.right), ("par-left",) + rules
        right, deltas, rules = step_graph(e.right, rest, exhaustive)
        return Par(e.left, right), (EMPTY,) * out_arity(e.left) + deltas, ("par-right",) + rules
    raise InvalidChoice("path descends past an operator node")


def run_steps(e, outputs, picker, cap, log, iteration):
    """Take up to ``cap`` steps chosen by ``picker``, logging each one."""
    for steps in range(cap):
        choices = enabled_steps(e)
        choice = picker(choices, steps) if choices else None
        if choice is None:
            break
        e, deltas, rules = step_graph(e, choice)
        outputs = apply_outputs(outputs, deltas)
        log.append({"iter": iteration, "path": "".join(choice.path), "choice": choice.index, "rules": list(rules)})
    return e, outputs


def explore_all(e, outputs):
    """Breadth-first exploration of every schedule: (visited, stuck, parents)."""
    start = (e, outputs)
    parents = {start: None}
    queue = deque([start])
    stuck = []
    while queue:
        cfg = queue.popleft()
        g, outs = cfg
        choices = enabled_steps(g, exhaustive=True)
        if not choices:
            stuck.append(cfg)
        for ch in choices:
            g2, deltas, _ = step_graph(g, ch, exhaustive=True)
            nxt = (g2, apply_outputs(outs, deltas))
            if nxt not in parents:
                parents[nxt] = (cfg, ch)
                queue.append(nxt)
    return len(parents), stuck, parents


def path_to(parents, config) -> list:
    path = []
    while parents[config] is not None:
        config, choice = parents[config]
        path.append(choice)
    return path[::-1]
