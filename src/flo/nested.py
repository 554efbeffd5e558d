"""Nested streams: ordered sequences of inner-collection tuples.

A nested value is a list of tuples of inner collections, newest tuple on
the left. Only the newest tuple may still grow; pushing a new tuple
requires every bounded component of the previously-newest one to be
fixed, and terminating the outer stream requires the same of the newest
tuple. That invariant is what lets an inner graph trust that a non-newest
tuple will never change under it.

The nest operator runs an inner graph over the tuples one at a time,
oldest first. Deferred state crosses iterations through write_defer and
read_defer pairs: when an iteration finishes (inner graph stuck, outputs
and deferred writes fixed), nest rebuilds the next iteration's graph from
the original, seeding each read_defer with the matching write_defer's
accumulated buffer.
"""

from __future__ import annotations

from operator import is_
from typing import Optional

from .core import (
    B,
    Bound,
    BoundednessInvariantViolation,
    CollectionLanguage,
    DeferContextMismatch,
    DuplicateKey,
    EMPTY,
    Extend,
    FloError,
    GraphTypeError,
    MissingKey,
    NOTHING,
    NestOutputUnbounded,
    OperatorDef,
    Payload,
    PayloadShapeMismatch,
    Push,
    Rank,
    StepResult,
    StreamType,
    TERMINATOR,
    Tag,
    U,
    bottom,
    concat,
    draw_fixed,
    fix,
    is_fixed,
    member,
    memo,
    record,
    register_language,
)
from . import gen, jsonio
from .graph import (
    DeferContexts,
    FlatGraph,
    Node,
    compile_graph,
    graph_rank,
    inputs,
    set_inputs,
    step_first,
    successors,
    typecheck,
)


# ---------------------------------------------------------------------------
# values


@record
class NestedSeqValue:
    terminated: bool
    tuples: tuple  # tuples of inner collection values, newest first
    inner_types: tuple  # tuple[StreamType, ...]

    lang = "nested"


def _check_frozen(tup, inner_types, what):
    for c, st in zip(tup, inner_types):
        if st.bound is B and not is_fixed(c):
            raise BoundednessInvariantViolation(
                f"{what} would strand an unfixed bounded component"
            )


class NestedLanguage(CollectionLanguage):
    name = "nested"

    def member(self, value, tag):
        if not isinstance(value, NestedSeqValue) or value.inner_types != tag.params:
            return False
        for i, tup in enumerate(value.tuples):
            if len(tup) != len(value.inner_types):
                return False
            for c, st in zip(tup, value.inner_types):
                if not member(c, st.collection):
                    return False
                if (i > 0 or value.terminated) and st.bound is B and not is_fixed(c):
                    return False
        return True

    def concat(self, value, delta):
        if delta is TERMINATOR:
            if value.tuples:
                _check_frozen(value.tuples[0], value.inner_types, "terminating")
            return NestedSeqValue(True, value.tuples, value.inner_types)
        if isinstance(delta, Push):
            if len(delta.values) != len(value.inner_types):
                raise PayloadShapeMismatch("pushed tuple arity mismatch")
            for c, st in zip(delta.values, value.inner_types):
                if not member(c, st.collection):
                    raise PayloadShapeMismatch(f"pushed component is not a {st.collection}")
            if value.tuples:
                _check_frozen(value.tuples[0], value.inner_types, "pushing over")
            return NestedSeqValue(False, (tuple(delta.values),) + value.tuples, value.inner_types)
        if isinstance(delta, Extend):
            if len(delta.parts) != len(value.inner_types):
                raise PayloadShapeMismatch("extend arity mismatch")
            if not value.tuples:
                if all(d is EMPTY for d in delta.parts):
                    return value
                raise PayloadShapeMismatch("extend on an empty nested stream")
            newest = tuple(concat(c, d) for c, d in zip(value.tuples[0], delta.parts))
            return NestedSeqValue(False, (newest,) + value.tuples[1:], value.inner_types)
        if isinstance(delta, Payload) and isinstance(delta.value, NestedSeqValue):
            # Whole-value embedding; only meaningful on an empty stream.
            if delta.value.inner_types != value.inner_types:
                raise PayloadShapeMismatch("embedded nested value has different inner types")
            if value.tuples:
                raise PayloadShapeMismatch("cannot embed into a non-empty nested stream")
            return delta.value
        raise PayloadShapeMismatch(f"nested stream cannot absorb {delta!r}")

    def is_fixed(self, value):
        return value.terminated

    def fix(self, value):
        if not value.tuples:
            return NestedSeqValue(True, (), value.inner_types)
        newest = tuple(
            (fix(c) if st.bound is B else c)
            for c, st in zip(value.tuples[0], value.inner_types)
        )
        return NestedSeqValue(True, (newest,) + value.tuples[1:], value.inner_types)

    def bottom(self, tag):
        return NestedSeqValue(False, (), tag.params)

    def bottom_of(self, value):
        return NestedSeqValue(False, (), value.inner_types)

    # Components go through ``jsonio``/``gen`` attributes, so wrappers on those count each.
    def to_json(self, value):
        tuples = [[jsonio.encode_value(c) for c in tup] for tup in value.tuples]
        return {"terminated": value.terminated, "tuples": tuples}

    def from_json(self, j, tag):
        tuples = tuple(
            tuple(jsonio.decode_value(c, st.collection) for c, st in zip(tup, tag.params))
            for tup in j.get("tuples", [])
        )
        return NestedSeqValue(bool(j.get("terminated", False)), tuples, tag.params)

    def sample(self, tag, rng, fixed):
        n = rng.randint(0, 3)
        terminated = draw_fixed(rng, fixed, p=0.25)
        # Tuple 0 is the newest; the others, and all once terminated, are closed.
        tuples = tuple(
            tuple(
                gen.gen_value(st.collection, rng, fixed=True if st.bound is B and (i > 0 or terminated) else None)
                for st in tag.params
            )
            for i in range(n)
        )
        return NestedSeqValue(terminated, tuples, tuple(tag.params))

    def sample_delta(self, tag, rng, current, roll):
        inner = tag.params
        closable = not current.tuples or all(
            st.bound is not B or is_fixed(c) for st, c in zip(inner, current.tuples[0])
        )
        pick = rng.choice(["extend", "push", "term"] if closable else ["extend"])
        if pick == "term":
            return TERMINATOR
        if pick == "push":
            return Push(tuple(
                gen.gen_value(st.collection, rng, fixed=True if st.bound is B else None)
                for st in inner
            ))
        if not current.tuples:
            return EMPTY
        # Component terminators could strand siblings unfixed only at the
        # value level, which the membership rules allow for the newest tuple.
        return Extend(tuple(
            gen.gen_delta(st.collection, rng, c) if rng.random() < 0.7 else EMPTY
            for st, c in zip(inner, current.tuples[0])
        ))

    def content_size(self, value):
        return len(value.tuples)

    def last_output(self, tag):
        if len(tag.params) != 1:
            raise FloError("last over nested streams requires a single inner component")
        return tag.params[0].collection

    def last_ready(self, value):
        # The oldest tuple is final once a newer one follows it or the stream ends.
        return len(value.tuples) >= 2 or (value.terminated and bool(value.tuples))

    def last_observe(self, latest, value):
        rest = NestedSeqValue(value.terminated, value.tuples[:-1], value.inner_types)
        return value.tuples[-1][0], rest

    def last_emit(self, latest, tag):
        if latest is NOTHING:
            latest = bottom(tag.params[0].collection)
        return Payload(fix(latest))

    def split_prefix(self, value, n):
        drainable = len(value.tuples) - (0 if value.terminated else 1)
        n = min(n, max(drainable, 0))
        if n <= 0:
            return None, value
        drained = NestedSeqValue(False, value.tuples[-n:], value.inner_types)
        rest = NestedSeqValue(value.terminated, value.tuples[:-n], value.inner_types)
        return drained, rest

    def recombine(self, total, piece):
        for tup in reversed(piece.tuples):
            total = concat(total, Push(tup))
        if piece.terminated:
            total = concat(total, TERMINATOR)
        return total


NESTED = register_language(NestedLanguage())


def nested_tag(inner_types: tuple) -> Tag:
    return Tag("nested", tuple(inner_types))


# ---------------------------------------------------------------------------
# defer operators


@record
class ReadDeferState:
    pending: Optional[object]


def read_defer(key: str, tag: Tag, init=None) -> OperatorDef:
    """Source that emits its pending collection once, then goes quiet.

    The pending value (an initial parameter, or whatever the matching
    write_defer accumulated last iteration) must be fixed before it can be
    observed.
    """
    if init is not None and not is_fixed(init):
        raise GraphTypeError(f"read_defer({key!r}) initial value must be fixed")
    params = {"key": key, "tag": str(tag)}
    if init is not None:
        params["init"] = init

    def steps(buffers, state, exhaustive):
        if state.pending is None:
            return []
        return [StepResult(buffers, ReadDeferState(None), (Payload(state.pending),), "read-defer-emit")]

    def enabled(buffers, state):
        return 0 if state.pending is None else 1

    def rank(buffers, state):
        return Rank((0 if state.pending is None else 1,))

    return OperatorDef(
        name="read_defer",
        inputs=(),
        outputs=(StreamType(tag, B),),
        initial_state=ReadDeferState(init),
        steps_fn=steps,
        rank_fn=rank,
        defer_reads=((key, tag),),
        params=params,
        enabled_fn=enabled,
    )


def write_defer(key: str, tag: Tag) -> OperatorDef:
    """Sink that only accumulates its buffer; nest harvests it between iterations."""

    def steps(buffers, state, exhaustive):
        return []

    def rank(buffers, state):
        return Rank((0,))

    return OperatorDef(
        name="write_defer",
        inputs=(StreamType(tag, B),),
        outputs=(),
        initial_state=None,
        steps_fn=steps,
        rank_fn=rank,
        defer_writes=((key, tag),),
        params={"key": key, "tag": str(tag)},
        enabled_fn=lambda buffers, state: 0,
    )


def collect_defer(e) -> dict:
    """Map each write_defer key to its accumulated buffer."""
    g = compile_graph(e)
    out: dict = {}
    for key, i in g.plan.writes:
        if key in out:
            raise DuplicateKey(f"write_defer key {key!r} appears twice")
        out[key] = g.nodes[i].buffers[0]
    return out


def set_defer(e, values: dict) -> FlatGraph:
    """The graph with every read_defer's pending value replaced; other
    nodes are kept as they are. The stuck-prefix hint drops to the first
    read_defer leaf."""
    flat = compile_graph(e)
    if not flat.plan.reads:
        return flat
    nodes = list(flat.nodes)
    for key, i in flat.plan.reads:
        if key not in values:
            raise MissingKey(f"no deferred value for read_defer key {key!r}")
        nodes[i] = Node(nodes[i].buffers, nodes[i].op, ReadDeferState(values[key]))
    return FlatGraph(flat.plan, tuple(nodes), min(flat.hint, flat.plan.reads[0][1]))


# ---------------------------------------------------------------------------
# nest


BEFORE, RUNNING_PHASE, DONE_PHASE = 0, 1, 2


@record
class NestState:
    phase: int
    current: FlatGraph  # the in-flight iteration's graph, or the one the next phase starts from
    iter_outputs: tuple  # outputs accumulated by the current iteration
    # The buffer tuple ``current`` was last synced to: its exterior inputs
    # are that tuple's components, object for object. Set by ``run_graph``.
    _fed: Optional[tuple] = memo()


_SET_FED = NestState._fed.__set__


def make_nest(g, g_o=None, outer_bound: Bound = U) -> OperatorDef:
    """Build the nest operator for an inner graph.

    The inner graph must typecheck under matching read and write defer
    contexts (every key read is written, at the same collection type,
    exactly once) and every inner output must be bounded, so each
    iteration finishes and its outputs can be frozen into the outer
    stream. The optional ``g_o`` is the template rebuilt for later
    iterations; it defaults to ``g`` itself and must have the same type.
    """
    first = compile_graph(g)
    # Both contexts are the graph's own writes; typecheck rejects a read
    # with no write or at another type, and a key written twice (the first
    # write's type is kept so the second is the one reported).
    writes: dict = {}
    for n in first.nodes:
        for key, tag in n.op.defer_writes:
            writes.setdefault(key, tag)
    ctx = DeferContexts(reads=tuple(sorted(writes.items())), writes=tuple(sorted(writes.items())))
    gt = typecheck(first, ctx)
    for st in gt.outputs:
        if st.bound is not B:
            raise NestOutputUnbounded(f"inner output {st} must be bounded")
    template = first
    if g_o is not None:
        template = compile_graph(g_o)
        if typecheck(template, ctx) != gt:
            raise DeferContextMismatch("iteration template has a different graph type")

    in_tag = nested_tag(gt.inputs)
    out_tag = nested_tag(gt.outputs)
    bottoms = tuple(bottom(st.collection) for st in gt.outputs)
    g_rank_arity = len(graph_rank(first).components)
    params = {"bound": outer_bound.value, "graph": g}
    if g_o is not None:
        params["copy"] = g_o

    def steps(buffers, state, exhaustive):
        (v,) = buffers
        if state.phase == DONE_PHASE:
            return []
        if state.phase == BEFORE:
            if v.tuples:
                running = NestState(RUNNING_PHASE, first, bottoms)
                return [StepResult(buffers, running, (Push(bottoms),), "nest-first")]
            if v.terminated:
                done = NestState(DONE_PHASE, first, ())
                return [StepResult(buffers, done, (TERMINATOR,), "nest-first-fixed")]
            return []
        if not v.tuples:
            return []
        oldest = v.tuples[-1]
        # A graph last synced to this very tuple needs no new sync: it keeps
        # its nodes' outcomes and its stuck-prefix hint, so step_first
        # resumes where the last inner step stopped.
        synced = state.current if oldest is state._fed else set_inputs(state.current, oldest)

        def run_graph(stepped, deltas, leaf):
            # Only a step on an input leaf can consume; any other step keeps
            # the buffer object, and one that wrote no output keeps the
            # outputs, so nothing is copied.
            bufs, fed = buffers, oldest
            if leaf in stepped.plan.in_set:
                consumed = inputs(stepped)
                if not all(map(is_, consumed, oldest)):
                    fed = consumed
                    bufs = (NestedSeqValue(v.terminated, v.tuples[:-1] + (fed,), v.inner_types),)
            if deltas is stepped.plan.blank:
                outs, outer = state.iter_outputs, EMPTY
            else:
                outs = tuple(concat(o, d) for o, d in zip(state.iter_outputs, deltas))
                outer = Extend(deltas)
            nxt = NestState(RUNNING_PHASE, stepped, outs)
            _SET_FED(nxt, fed)
            return StepResult(bufs, nxt, (outer,), "nest-run-graph")

        if exhaustive:
            moves = [run_graph(g2, deltas, ch.leaf) for ch, g2, deltas in successors(synced, True)]
            if moves:
                return moves
        else:
            hit = step_first(synced)
            if hit is not None:
                stepped, deltas, ch = hit
                return [run_graph(stepped, deltas, ch.leaf)]

        # inner graph stuck on this tuple
        if not all(is_fixed(o) for o in state.iter_outputs):
            return []
        if len(v.tuples) >= 2:
            harvested = collect_defer(synced)
            if not all(is_fixed(x) for x in harvested.values()):
                return []
            nxt = set_defer(template, harvested)
            v2 = NestedSeqValue(v.terminated, v.tuples[:-1], v.inner_types)
            return [
                StepResult(
                    (v2,),
                    NestState(RUNNING_PHASE, nxt, bottoms),
                    (Push(bottoms),),
                    "nest-run-step",
                )
            ]
        if v.terminated:
            # Final iteration: leftover deferred writes are discarded.
            v2 = NestedSeqValue(True, (), v.inner_types)
            return [
                StepResult((v2,), NestState(DONE_PHASE, template, ()), (TERMINATOR,), "nest-run-fixed")
            ]
        return []

    def rank(buffers, state):
        (v,) = buffers
        head = [
            len(v.tuples) + (0 if state.phase == DONE_PHASE else 1),
            1 if state.phase == BEFORE else 0,
        ]
        synced = state.current
        if state.phase == RUNNING_PHASE and v.tuples and v.tuples[-1] is not state._fed:
            synced = set_inputs(synced, v.tuples[-1])
        return Rank(tuple(head) + graph_rank(synced).components)

    return OperatorDef(
        name="nest",
        inputs=(StreamType(in_tag, outer_bound),),
        outputs=(StreamType(out_tag, outer_bound),),
        initial_state=NestState(BEFORE, first, ()),
        steps_fn=steps,
        rank_fn=rank,
        params=params,
        rank_arity=2 + g_rank_arity,
    )
