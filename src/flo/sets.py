"""Finite sets and the operators behind the iterative reachability programs.

Sets grow by union and are idempotent, which makes their operators
naturally confluent: draining pending elements in any interleaving reaches
the same stuck state. The nested-stream producers here (repeat_nested,
zip, nest_once) shape ordinary streams into sequences of inner streams
that drive nested graphs.
"""

from __future__ import annotations

from .core import (
    ANY,
    B,
    Bound,
    CollectionLanguage,
    ElemType,
    EMPTY,
    Extend,
    FINISHED,
    FloError,
    NOTHING,
    OperatorDef,
    Payload,
    PayloadShapeMismatch,
    Push,
    RUNNING,
    Rank,
    StepResult,
    StreamType,
    TERMINATOR,
    Tag,
    U,
    bottom,
    decode_atom,
    draw_fixed,
    encode_atom,
    gen_atom,
    is_fixed,
    memo,
    pair,
    record,
    register_language,
    sort_key,
)
from .nested import NestedSeqValue, nested_tag
from .seq import NAT_TAG, _flag, _require_take


@record
class SetValue:
    elems: frozenset
    fixed: bool
    # The element type ``elems`` last passed ``member`` at. A cache, not
    # part of the value: equality, hashing and repr ignore it, and it stays
    # true because ``elems`` never changes.
    _checked: object = memo()

    lang = "set"

    def __repr__(self):
        inner = ",".join(repr(e) for e in sorted(self.elems, key=sort_key))
        return f"{{{inner}}}{'!' if self.fixed else ''}"


def sset(elems, fixed: bool = False) -> SetValue:
    return SetValue(frozenset(elems), fixed)


def _carry(out: SetValue, source: SetValue) -> SetValue:
    """``out`` holds exactly ``source``'s elements, so it has passed the
    same checks: give it ``source``'s memo."""
    object.__setattr__(out, "_checked", source._checked)
    return out


class SetLanguage(CollectionLanguage):
    name = "set"

    def member(self, value, tag):
        if not isinstance(value, SetValue):
            return False
        elem = tag.params[0]
        if value._checked == elem:
            return True
        if not all(map(elem.check, value.elems)):
            return False
        object.__setattr__(value, "_checked", elem)
        return True

    def concat(self, value, delta):
        if delta is TERMINATOR:
            return _carry(SetValue(value.elems, True), value)
        if isinstance(delta, Payload) and isinstance(delta.value, SetValue):
            d = delta.value
            out = SetValue(value.elems | d.elems, value.fixed or d.fixed)
            return out if value.elems else _carry(out, d)
        raise PayloadShapeMismatch(f"set cannot absorb {delta!r}")

    def bottom(self, tag):
        return SetValue(frozenset(), False)

    def bottom_of(self, value):
        return SetValue(frozenset(), False)

    def to_json(self, value):
        return {"elems": [encode_atom(e) for e in sorted(value.elems, key=sort_key)], "fixed": value.fixed}

    def from_json(self, j, tag):
        return SetValue(frozenset(decode_atom(e) for e in j.get("elems", [])), bool(j.get("fixed", False)))

    def sample(self, tag, rng, fixed):
        elems = frozenset(gen_atom(tag.params[0], rng) for _ in range(rng.randint(0, 4)))
        return SetValue(elems, draw_fixed(rng, fixed))

    def sample_payload(self, tag, rng, current):
        elems = frozenset(gen_atom(tag.params[0], rng) for _ in range(rng.randint(1, 3)))
        return SetValue(elems, rng.random() < 0.15)

    def take_content(self, value):
        if not value.elems:
            return None
        content = _carry(SetValue(value.elems, False), value)
        return Payload(content), SetValue(frozenset(), value.fixed)

    def content_size(self, value):
        return len(value.elems)

    def last_output(self, tag):
        return tag

    def last_observe(self, latest, value):
        kept = frozenset() if latest is NOTHING else latest
        return kept | value.elems, SetValue(frozenset(), value.fixed)

    def last_emit(self, latest, tag):
        return Payload(SetValue(frozenset() if latest is NOTHING else latest, True))

    def split_prefix(self, value, n):
        ordered = sorted(value.elems, key=sort_key)
        n = min(n, len(ordered))
        if n == 0:
            return None, value
        drained = frozenset(ordered[:n])
        return SetValue(drained, False), SetValue(value.elems - drained, value.fixed)


SET = register_language(SetLanguage())


def set_tag(elem: ElemType = ANY) -> Tag:
    return Tag("set", (elem,))


def edge_tag(elem: ElemType = ANY) -> Tag:
    return set_tag(pair(elem, elem))


# ---------------------------------------------------------------------------
# set operators


def _drain_sides(name, elem, right_tag, bound, initial, on_left, on_right, on_end, rules) -> OperatorDef:
    """Two set inputs, each drained whole in one step, in either order.

    ``on_left``/``on_right(state, elems) -> (state', delta)`` take one
    side's pending elements. Once both inputs are fixed and drained,
    ``on_end(state) -> state'`` closes the output. ``rules`` names the
    left, right and closing steps.
    """
    left_rule, right_rule, end_rule = rules

    def steps(buffers, state, exhaustive):
        left, right = buffers
        results = []
        if left.elems:
            state2, delta = on_left(state, left.elems)
            results.append(StepResult((SetValue(frozenset(), left.fixed), right), state2, (delta,), left_rule))
        if right.elems:
            state2, delta = on_right(state, right.elems)
            results.append(StepResult((left, SetValue(frozenset(), right.fixed)), state2, (delta,), right_rule))
        if results:
            return results
        if left.fixed and right.fixed and not state.done:
            return [StepResult(buffers, on_end(state), (TERMINATOR,), end_rule)]
        return []

    def enabled(buffers, state):
        left, right = buffers
        drains = (1 if left.elems else 0) + (1 if right.elems else 0)
        return drains or (1 if left.fixed and right.fixed and not state.done else 0)

    def rank(buffers, state):
        return Rank((len(buffers[0].elems) + len(buffers[1].elems) + _flag(state.done),))

    st = StreamType(set_tag(elem), bound)
    return OperatorDef(
        name=name,
        inputs=(st, StreamType(right_tag, bound)),
        outputs=(st,),
        initial_state=initial,
        steps_fn=steps,
        rank_fn=rank,
        params={"elem": str(elem), "bound": bound.value},
        enabled_fn=enabled,
    )


def set_union(elem: ElemType = ANY, bound: Bound = U) -> OperatorDef:
    """Union of two set streams; terminates once both inputs fix."""

    def on_side(state, elems):
        return state, Payload(SetValue(elems, False))

    rules = ("union-left", "union-right", "union-terminated")
    return _drain_sides(
        "set_union", elem, set_tag(elem), bound, RUNNING, on_side, on_side, lambda state: FINISHED, rules
    )


@record
class EdgeJoinState:
    nodes: frozenset
    edges: frozenset
    done: bool


def edge_join(elem: ElemType = ANY, bound: Bound = U) -> OperatorDef:
    """Destinations of edges whose source is a known node, incrementally.

    Consumes pending nodes or pending edges (either order; the union of
    emissions is schedule-independent), joining each new batch against the
    stored other side.
    """

    def on_nodes(state, new):
        dests = frozenset(d for (s, d) in state.edges if s in new)
        return EdgeJoinState(state.nodes | new, state.edges, False), Payload(SetValue(dests, False))

    def on_edges(state, new_edges):
        # Pending nodes join against these edges once they drain, so only
        # sources already drained count here.
        dests = frozenset(d for (s, d) in new_edges if s in state.nodes)
        return EdgeJoinState(state.nodes, state.edges | new_edges, False), Payload(SetValue(dests, False))

    def on_end(state):
        return EdgeJoinState(state.nodes, state.edges, True)

    initial = EdgeJoinState(frozenset(), frozenset(), False)
    rules = ("edge-join-nodes", "edge-join-edges", "edge-join-terminated")
    return _drain_sides("edge_join", elem, edge_tag(elem), bound, initial, on_nodes, on_edges, on_end, rules)


# ---------------------------------------------------------------------------
# nested-stream producers


@record
class RepeatState:
    emitted: int
    done: bool


def repeat_nested(data_tag: Tag) -> OperatorDef:
    """Duplicate a bounded input into k closed inner streams.

    Waits for the input to fix (duplication must be complete) and for the
    count singleton to hold a value; each emitted inner stream is the
    fixed input itself. A zero count terminates immediately.
    """
    inner = StreamType(data_tag, B)
    out_tag = nested_tag((inner,))

    def steps(buffers, state, exhaustive):
        data, k = buffers
        if state.done:
            return []
        if k.value == 0 or (k.value is None and k.fixed):
            # Zero iterations requested, or the count stream closed without
            # ever delivering a count.
            return [StepResult(buffers, RepeatState(0, True), (TERMINATOR,), "repeat-done")]
        if k.value is not None and is_fixed(data):
            if state.emitted < k.value:
                return [
                    StepResult(
                        buffers,
                        RepeatState(state.emitted + 1, False),
                        (Push((data,)),),
                        "repeat-push",
                    )
                ]
            return [
                StepResult(buffers, RepeatState(state.emitted, True), (TERMINATOR,), "repeat-done")
            ]
        return []

    def rank(buffers, state):
        _data, k = buffers
        remaining = max(k.value - state.emitted, 0) if k.value is not None else 0
        return Rank((remaining + (0 if state.done else 1),))

    return OperatorDef(
        name="repeat_nested",
        inputs=(StreamType(data_tag, B), StreamType(NAT_TAG, B)),
        outputs=(StreamType(out_tag, B),),
        initial_state=RepeatState(0, False),
        steps_fn=steps,
        rank_fn=rank,
        params={"data": str(data_tag)},
    )


@record
class ZipState:
    opened: bool
    sent_fix: tuple  # per output component
    done: bool


def zip_nested(left_inner: tuple, right_inner: tuple, bound: Bound = U) -> OperatorDef:
    """Tuple two nested streams pairwise by inner-stream index.

    The oldest open pair streams incrementally: content of the paired
    inner collections is forwarded as it appears, fixedness follows once
    the source component fixes, and the pair advances when both sides have
    a next tuple. Termination needs both outer inputs terminated; unpaired
    leftover tuples on the longer side are dropped.
    """
    out_inner = tuple(left_inner) + tuple(right_inner)
    nl = len(left_inner)
    langs = [_require_take(st.collection, "zip") for st in out_inner]
    bottoms = tuple(bottom(st.collection) for st in out_inner)

    def comps_of(l, r):
        return tuple(l.tuples[-1]) + tuple(r.tuples[-1])

    def replace_oldest(v, comps):
        return NestedSeqValue(v.terminated, v.tuples[:-1] + (tuple(comps),), v.inner_types)

    def steps(buffers, state, exhaustive):
        l, r = buffers
        if state.done:
            return []
        if not state.opened:
            if l.tuples and r.tuples:
                return [
                    StepResult(
                        buffers,
                        ZipState(True, (False,) * len(out_inner), False),
                        (Push(bottoms),),
                        "zip-open",
                    )
                ]
            if l.terminated and r.terminated:
                return [
                    StepResult(buffers, ZipState(False, (), True), (TERMINATOR,), "zip-terminated")
                ]
            return []
        comps = comps_of(l, r)
        takes = [lang.take_content(c) for lang, c in zip(langs, comps)]
        if any(t is not None for t in takes):
            parts = tuple(t[0] if t is not None else EMPTY for t in takes)
            residues = [t[1] if t is not None else c for t, c in zip(takes, comps)]
            l2 = replace_oldest(l, residues[:nl])
            r2 = replace_oldest(r, residues[nl:])
            return [StepResult((l2, r2), state, (Extend(parts),), "zip-forward")]
        closable = tuple(
            (not sent) and is_fixed(c) for sent, c in zip(state.sent_fix, comps)
        )
        if any(closable):
            parts = tuple(TERMINATOR if c else EMPTY for c in closable)
            sent = tuple(s or c for s, c in zip(state.sent_fix, closable))
            return [
                StepResult(buffers, ZipState(True, sent, False), (Extend(parts),), "zip-close")
            ]
        pair_closed = all(
            state.sent_fix[j] for j, st in enumerate(out_inner) if st.bound is B
        )
        if pair_closed and len(l.tuples) >= 2 and len(r.tuples) >= 2:
            l2 = NestedSeqValue(l.terminated, l.tuples[:-1], l.inner_types)
            r2 = NestedSeqValue(r.terminated, r.tuples[:-1], r.inner_types)
            return [
                StepResult(
                    (l2, r2),
                    ZipState(True, (False,) * len(out_inner), False),
                    (Push(bottoms),),
                    "zip-advance",
                )
            ]
        if pair_closed and l.terminated and r.terminated:
            return [
                StepResult(buffers, ZipState(True, state.sent_fix, True), (TERMINATOR,), "zip-terminated")
            ]
        return []

    def rank(buffers, state):
        l, r = buffers
        c1 = len(l.tuples) + len(r.tuples) + (0 if state.done else 1) + (0 if state.opened else 1)
        c2 = 0
        c3 = 0
        if state.opened and l.tuples and r.tuples:
            comps = comps_of(l, r)
            c2 = sum(lang.content_size(c) for lang, c in zip(langs, comps))
            c3 = sum(1 for s in state.sent_fix if not s)
        return Rank((c1, c2, c3))

    return OperatorDef(
        name="zip",
        inputs=(
            StreamType(nested_tag(tuple(left_inner)), bound),
            StreamType(nested_tag(tuple(right_inner)), bound),
        ),
        outputs=(StreamType(nested_tag(out_inner), bound),),
        initial_state=ZipState(False, (), False),
        steps_fn=steps,
        rank_fn=rank,
        params={
            "left": [str(t) for t in left_inner],
            "right": [str(t) for t in right_inner],
            "bound": bound.value,
        },
        rank_arity=3,
    )


@record
class NestOnceState:
    opened: bool
    closed_first: bool
    empties: int
    done: bool


def nest_once(tag: Tag, bound: Bound = B, limit: int = 0) -> OperatorDef:
    """Wrap a stream as the first inner stream of a nested one.

    The first inner stream mirrors the input and closes when the input
    fixes; afterwards up to ``limit`` already-closed empty inner streams
    follow (consumers that pair streams index-wise use them as inert
    placeholders), then the outer terminator. While the input stays
    unfixed nothing past the first inner stream is ever emitted. At an
    unbounded binding the limit must be zero, otherwise the trailing
    empties would appear only upon input fixing and outputs would not be
    maximal.
    """
    lang = _require_take(tag, "nest_once")
    if bound is U and limit != 0:
        raise FloError("nest_once at an unbounded binding requires limit=0")
    inner = StreamType(tag, B)
    out_tag = nested_tag((inner,))
    fixed_empty = lang.fix(bottom(tag))

    def steps(buffers, state, exhaustive):
        (inp,) = buffers
        if state.done:
            return []
        if not state.opened:
            return [
                StepResult(
                    buffers,
                    NestOnceState(True, False, 0, False),
                    (Push((bottom(tag),)),),
                    "nest-once-open",
                )
            ]
        taken = lang.take_content(inp)
        if taken is not None:
            delta, residue = taken
            return [
                StepResult((residue,), state, (Extend((delta,)),), "nest-once-forward")
            ]
        if not state.closed_first:
            if lang.is_fixed(inp):
                return [
                    StepResult(
                        buffers,
                        NestOnceState(True, True, 0, False),
                        (Extend((TERMINATOR,)),),
                        "nest-once-close",
                    )
                ]
            return []
        if state.empties < limit:
            return [
                StepResult(
                    buffers,
                    NestOnceState(True, True, state.empties + 1, False),
                    (Push((fixed_empty,)),),
                    "nest-once-empty",
                )
            ]
        return [
            StepResult(
                buffers,
                NestOnceState(True, True, state.empties, True),
                (TERMINATOR,),
                "nest-once-terminated",
            )
        ]

    def enabled(buffers, state):
        (inp,) = buffers
        if state.done:
            return 0
        if not state.opened or state.closed_first or lang.content_size(inp):
            return 1
        return 1 if lang.is_fixed(inp) else 0

    def rank(buffers, state):
        (inp,) = buffers
        r = (0 if state.done else 1) + (0 if state.opened else 1)
        r += 0 if state.closed_first else 1
        r += lang.content_size(inp)
        r += limit - state.empties
        return Rank((r,))

    return OperatorDef(
        name="nest_once",
        inputs=(StreamType(tag, bound),),
        outputs=(StreamType(out_tag, bound),),
        initial_state=NestOnceState(False, False, 0, False),
        steps_fn=steps,
        rank_fn=rank,
        params={"tag": str(tag), "bound": bound.value, "limit": limit},
        enabled_fn=enabled,
    )
