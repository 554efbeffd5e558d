"""Ordered sequences and the classic stream operators over them.

Sequence values keep the newest element on the left; concatenation
prepends the payload's items and a terminated sequence absorbs every
delta. A payload is itself a sequence value, so a single delta can carry
items together with the terminator (which is how ``fold`` releases its
accumulator and end-of-stream in one step). Only ``SeqLanguage`` knows
that order: operators consume through ``SEQ.take_oldest``, so the
representation is a one-class decision.

Operators come in skeletons. ``_per_item`` is the one shape of ``map``,
``filter``, ``scan``, ``fold`` and ``lvar.fold_lattice``: a step per
consumed item, then one closing step once the input terminates.
``_pass_through`` is ``tee`` and ``forward``, which work over any
collection language with content consumption (sequences, sets, z-sets,
nat singletons), as does ``last``. ``window`` keeps its own step.

Every operator here declares its step count (``enabled_fn``), so a run
counts these leaves without evaluating them: ``_content_count`` for the
two skeletons (and ``zset_map``), a few field reads of its own for
``window`` and ``last``. Across the catalog only ``nest``, ``zip``,
``repeat_nested`` and the ``constant_rank`` fixture are evaluated to be
counted: ``nest``'s count is an inner step of its graph, a count for
``zip`` or ``repeat_nested`` would restate their whole step, and
``constant_rank`` is never stuck.

Also home to the natural-number singleton used to parameterize repeated
nesting.
"""

from __future__ import annotations

from typing import Optional

from .core import (
    ANY,
    B,
    EMPTY,
    TERMINATOR,
    Bound,
    CollectionLanguage,
    ElemType,
    FINISHED,
    FloError,
    LANGUAGES,
    NAT,
    NOTHING,
    OperatorDef,
    Payload,
    PayloadShapeMismatch,
    Push,
    RUNNING,
    Rank,
    StepResult,
    StreamType,
    Tag,
    U,
    decode_atom,
    draw_fixed,
    encode_atom,
    gen_atom,
    record,
    register_language,
)
from . import catalog


# ---------------------------------------------------------------------------
# sequence values


@record
class SeqValue:
    """Ordered sequence; ``items[0]`` is the newest element."""

    terminated: bool
    items: tuple

    lang = "seq"

    def __repr__(self):
        inner = ",".join(repr(i) for i in self.items)
        return f"[{'T,' if self.terminated else ''}{inner}]"


def seq(*items, terminated: bool = False) -> SeqValue:
    """Build a sequence from oldest-first arguments (reads like arrival order)."""
    return SeqValue(terminated, tuple(reversed(items)))


class SeqLanguage(CollectionLanguage):
    name = "seq"

    def member(self, value, tag):
        if not isinstance(value, SeqValue):
            return False
        return all(map(tag.params[0].check, value.items))

    def concat(self, value, delta):
        if delta is TERMINATOR:
            return SeqValue(True, value.items)
        if isinstance(delta, Payload) and isinstance(delta.value, SeqValue):
            d = delta.value
            return SeqValue(value.terminated or d.terminated, d.items + value.items)
        raise PayloadShapeMismatch(f"seq cannot absorb {delta!r}")

    def is_fixed(self, value):
        return value.terminated

    def bottom(self, tag):
        return SeqValue(False, ())

    def bottom_of(self, value):
        return SeqValue(False, ())

    def to_json(self, value):
        return {"terminated": value.terminated, "items": [encode_atom(i) for i in value.items]}

    def from_json(self, j, tag):
        return SeqValue(bool(j.get("terminated", False)), tuple(decode_atom(i) for i in j.get("items", [])))

    def sample(self, tag, rng, fixed):
        items = tuple(gen_atom(tag.params[0], rng) for _ in range(rng.randint(0, 4)))
        return SeqValue(draw_fixed(rng, fixed), items)

    def sample_payload(self, tag, rng, current):
        items = tuple(gen_atom(tag.params[0], rng) for _ in range(rng.randint(1, 3)))
        return SeqValue(rng.random() < 0.2, items)

    def take_content(self, value):
        if not value.items:
            return None
        return Payload(SeqValue(False, value.items)), SeqValue(value.terminated, ())

    def content_size(self, value):
        return len(value.items)

    def take_oldest(self, value):
        """The oldest item and the sequence without it, or None when empty.
        Operators consume a sequence item by item only through this."""
        items = value.items
        if not items:
            return None
        return items[-1], SeqValue(value.terminated, items[:-1])

    def last_output(self, tag):
        return tag

    def last_observe(self, latest, value):
        return value.items[0], SeqValue(value.terminated, ())

    def last_emit(self, latest, tag):
        return Payload(SeqValue(True, () if latest is NOTHING else (latest,)))

    def split_prefix(self, value, n):
        n = min(n, len(value.items))
        if n == 0:
            return None, value
        drained = SeqValue(False, value.items[-n:])
        return drained, SeqValue(value.terminated, value.items[:-n])


SEQ = register_language(SeqLanguage())


def seq_tag(elem: ElemType = ANY) -> Tag:
    return Tag("seq", (elem,))


# ---------------------------------------------------------------------------
# natural-number singleton


@record
class SingletonNat:
    """Holds at most one natural, ever; a second distinct value is an error."""

    value: Optional[int]
    fixed: bool

    lang = "nat"


class NatLanguage(CollectionLanguage):
    name = "nat"

    def member(self, value, tag):
        return isinstance(value, SingletonNat) and (value.value is None or NAT.check(value.value))

    def concat(self, value, delta):
        if delta is TERMINATOR:
            return SingletonNat(value.value, True)
        if isinstance(delta, Payload) and isinstance(delta.value, SingletonNat):
            d = delta.value
            if d.value is not None and value.value is not None and d.value != value.value:
                raise PayloadShapeMismatch(
                    f"singleton already holds {value.value}, got {d.value}"
                )
            merged = value.value if value.value is not None else d.value
            return SingletonNat(merged, value.fixed or d.fixed)
        raise PayloadShapeMismatch(f"nat singleton cannot absorb {delta!r}")

    def bottom(self, tag):
        return SingletonNat(None, False)

    def bottom_of(self, value):
        return SingletonNat(None, False)

    def to_json(self, value):
        return {"value": value.value, "fixed": value.fixed}

    def from_json(self, j, tag):
        return SingletonNat(j.get("value"), bool(j.get("fixed", False)))

    def sample(self, tag, rng, fixed):
        value = None if rng.random() < 0.3 else rng.randint(0, 3)
        return SingletonNat(value, draw_fixed(rng, fixed))

    def sample_payload(self, tag, rng, current):
        held = getattr(current, "value", None)
        return SingletonNat(held if held is not None else rng.randint(0, 3), rng.random() < 0.3)

    def take_content(self, value):
        if value.value is None:
            return None
        # Re-delivery downstream is idempotent: merging an equal value is
        # identity, so taking leaves the fixedness behind only.
        return (
            Payload(SingletonNat(value.value, False)),
            SingletonNat(None, value.fixed),
        )

    def content_size(self, value):
        return 0 if value.value is None else 1

    def split_all(self, value):
        # A one-shot singleton leaves the loop whole, once it is fixed.
        return (value, self.bottom_of(value)) if value.fixed else (None, value)


NATLANG = register_language(NatLanguage())

NAT_TAG = Tag("nat")


# ---------------------------------------------------------------------------
# operator state records


@record
class AccState:
    acc: object
    done: bool


@record
class WindowState:
    buffer: tuple  # (value, timestamp) pairs, newest first
    done: bool


@record
class LastState:
    latest: object
    done: bool


def _flag(done: bool) -> int:
    return 0 if done else 1


def _content_rank(lang):
    """Rank of a one-input operator that drains its buffer, then closes once."""

    def rank(buffers, state):
        return Rank((lang.content_size(buffers[0]) + _flag(state.done),))

    return rank


def _content_count(lang):
    """``enabled_fn`` of a one-input operator that takes one step while its
    buffer has content, else one closing step once the input is fixed."""

    def enabled(buffers, state):
        (inp,) = buffers
        return 1 if lang.content_size(inp) or (lang.is_fixed(inp) and not state.done) else 0

    return enabled


# ---------------------------------------------------------------------------
# per-item sequence operators: map / filter / scan / fold (and fold_lattice)


def _finish(state):
    return FINISHED, TERMINATOR


def _per_item(name, elem_in, out_tag, bound, initial, on_item, on_end, params, rules=None) -> OperatorDef:
    """One sequence input consumed oldest item first.

    ``on_item(state, x) -> (state', delta)`` is the step for one consumed
    item. Once the input is terminated and drained, ``on_end(state) ->
    (state', delta)`` is the one closing step. ``rules`` names the item and
    closing steps; it defaults to ``name`` and ``name-terminator``.
    """
    item_rule, end_rule = rules or (name, f"{name}-terminator")

    def steps(buffers, state, exhaustive):
        (inp,) = buffers
        taken = SEQ.take_oldest(inp)
        if taken is not None:
            x, rest = taken
            state2, delta = on_item(state, x)
            return [StepResult((rest,), state2, (delta,), item_rule)]
        if inp.terminated and not state.done:
            state2, delta = on_end(state)
            return [StepResult(buffers, state2, (delta,), end_rule)]
        return []

    return OperatorDef(
        name=name,
        inputs=(StreamType(seq_tag(elem_in), bound),),
        outputs=(StreamType(out_tag, bound),),
        initial_state=initial,
        steps_fn=steps,
        rank_fn=_content_rank(SEQ),
        params=params,
        enabled_fn=_content_count(SEQ),
    )


def _one(x) -> Payload:
    return Payload(SeqValue(False, (x,)))


def seq_map(fn, elem_in: ElemType = ANY, elem_out: ElemType = ANY, bound: Bound = U) -> OperatorDef:
    """Element-wise transform; consumes the oldest element per step."""
    f = catalog.resolve(fn, arity=1)

    def on_item(state, x):
        return state, _one(catalog.call(f, x))

    params = {"fn": catalog.spec_of(f), "elem": str(elem_in), "elem_out": str(elem_out), "bound": bound.value}
    return _per_item("map", elem_in, seq_tag(elem_out), bound, RUNNING, on_item, _finish, params)


def seq_filter(pred, elem: ElemType = ANY, bound: Bound = U) -> OperatorDef:
    p = catalog.resolve(pred, arity=1)

    def on_item(state, x):
        return state, _one(x) if catalog.call(p, x) else EMPTY

    params = {"fn": catalog.spec_of(p), "elem": str(elem), "bound": bound.value}
    return _per_item("filter", elem, seq_tag(elem), bound, RUNNING, on_item, _finish, params)


def scan(init, fn, elem_in: ElemType = ANY, elem_out: ElemType = ANY, bound: Bound = U) -> OperatorDef:
    """Running aggregation: emits each new accumulator, forwards the terminator.

    The terminator step does not re-emit the accumulator, so a scan
    followed by last over a bounded stream agrees with fold.
    """
    f = catalog.resolve(fn, arity=2)

    def on_item(state, x):
        acc = catalog.call(f, state.acc, x)
        return AccState(acc, False), _one(acc)

    def on_end(state):
        return AccState(state.acc, True), TERMINATOR

    params = {"init": init, "fn": catalog.spec_of(f), "elem": str(elem_in), "elem_out": str(elem_out), "bound": bound.value}
    return _per_item("scan", elem_in, seq_tag(elem_out), bound, AccState(init, False), on_item, on_end, params)


def fold(init, fn, elem_in: ElemType = ANY, elem_out: ElemType = ANY) -> OperatorDef:
    """Aggregate a bounded stream; releases the result only at end of stream.

    Typed bounded-in, bounded-out: on an unbounded input it would withhold
    output forever, which the typechecker rejects upstream.
    """
    f = catalog.resolve(fn, arity=2)

    def on_item(state, x):
        return AccState(catalog.call(f, state.acc, x), False), EMPTY

    def on_end(state):
        return AccState(state.acc, True), Payload(SeqValue(True, (state.acc,)))

    params = {"init": init, "fn": catalog.spec_of(f), "elem": str(elem_in), "elem_out": str(elem_out)}
    return _per_item("fold", elem_in, seq_tag(elem_out), B, AccState(init, False), on_item, on_end, params)


# ---------------------------------------------------------------------------
# window


def window(interval: int, elem: ElemType = ANY) -> OperatorDef:
    """Group (value, timestamp) pairs into bounded inner streams.

    Buffers while the incoming timestamp stays within ``interval`` of the
    oldest buffered one; a farther timestamp closes the window, emitting
    it as an already-terminated inner sequence, and starts a new buffer
    with the incoming pair. End of input flushes the partial window and
    then terminates the outer stream. Timestamps are expected to be
    non-decreasing in arrival order; late timestamps are accepted but only
    a far-enough one closes a window.

    Typed bounded-in, bounded-out: once the input fixes, the partial
    window is flushed, and that flush is new content, not a fixing, so at
    U the outputs of a run would not be maximal.
    """
    from .nested import nested_tag  # local import: nested depends on graph

    inner = StreamType(seq_tag(elem), B)
    out_tag = nested_tag((inner,))

    def steps(buffers, state, exhaustive):
        (inp,) = buffers
        taken = SEQ.take_oldest(inp)
        if taken is not None:
            (v, t), rest = taken
            if not state.buffer:
                return [StepResult((rest,), WindowState(((v, t),), False), (EMPTY,), "window-first")]
            oldest_ts = state.buffer[-1][1]
            if t - oldest_ts <= interval:
                return [
                    StepResult(
                        (rest,),
                        WindowState(((v, t),) + state.buffer, False),
                        (EMPTY,),
                        "window",
                    )
                ]
            closed = SeqValue(True, tuple(w for w, _ in state.buffer))
            return [
                StepResult(
                    (rest,),
                    WindowState(((v, t),), False),
                    (Push((closed,)),),
                    "window-emit",
                )
            ]
        if inp.terminated and state.buffer:
            closed = SeqValue(True, tuple(w for w, _ in state.buffer))
            return [StepResult(buffers, WindowState((), False), (Push((closed,)),), "window-flush")]
        if inp.terminated and not state.done:
            return [StepResult(buffers, WindowState((), True), (TERMINATOR,), "window-terminator")]
        return []

    def enabled(buffers, state):
        (inp,) = buffers
        return 1 if SEQ.content_size(inp) or (inp.terminated and (state.buffer or not state.done)) else 0

    def rank(buffers, state):
        return Rank(
            (
                SEQ.content_size(buffers[0]) + _flag(state.done),
                1 if state.buffer else 0,
            )
        )

    return OperatorDef(
        name="window",
        inputs=(StreamType(seq_tag(ElemType("pair", (elem, NAT))), B),),
        outputs=(StreamType(out_tag, B),),
        initial_state=WindowState((), False),
        steps_fn=steps,
        rank_fn=rank,
        params={"interval": interval, "elem": str(elem)},
        rank_arity=2,
        enabled_fn=enabled,
    )


# ---------------------------------------------------------------------------
# generic pass-through operators: tee, forward, last
#
# These work over any collection language that supports content
# consumption. They drain the buffer's content, then forward the
# terminator once the input is fixed.


def _require_take(tag: Tag, opname: str):
    lang = LANGUAGES[tag.language]
    if not hasattr(lang, "take_content"):
        raise FloError(f"{opname} does not support {tag.language} inputs")
    return lang


def _pass_through(name: str, tag: Tag, bound: Bound, n_out: int) -> OperatorDef:
    """Drain the input's content onto ``n_out`` copies of it, then forward
    the terminator to each once the input is fixed."""
    lang = _require_take(tag, name)
    end_rule, ends = f"{name}-terminator", (TERMINATOR,) * n_out

    def steps(buffers, state, exhaustive):
        (inp,) = buffers
        taken = lang.take_content(inp)
        if taken is not None:
            delta, residue = taken
            return [StepResult((residue,), state, (delta,) * n_out, name)]
        if lang.is_fixed(inp) and not state.done:
            return [StepResult(buffers, FINISHED, ends, end_rule)]
        return []

    st = StreamType(tag, bound)
    return OperatorDef(
        name=name,
        inputs=(st,),
        outputs=(st,) * n_out,
        initial_state=RUNNING,
        steps_fn=steps,
        rank_fn=_content_rank(lang),
        params={"tag": str(tag), "bound": bound.value},
        enabled_fn=_content_count(lang),
    )


def tee(tag: Tag, bound: Bound = U) -> OperatorDef:
    """Duplicate a stream onto two outputs."""
    return _pass_through("tee", tag, bound, 2)


def forward(tag: Tag, bound: Bound = U) -> OperatorDef:
    """Identity pass-through; wiring glue for parallel compositions."""
    return _pass_through("forward", tag, bound, 1)


def last(tag: Tag) -> OperatorDef:
    """Extract the final value of a bounded stream.

    Sequence inputs yield the last element (or just the terminator when
    empty); set inputs yield the accumulated set; nested inputs with a
    single inner component yield the newest inner collection. Emission
    happens once, as a single already-fixed delta, when the input fixes.
    What each language keeps and emits is its ``last_*`` protocol.
    """
    lang = LANGUAGES.get(tag.language)
    out = None if lang is None else lang.last_output(tag)
    if out is None:
        raise FloError(f"last does not support {tag.language} inputs")

    def steps(buffers, state, exhaustive):
        (inp,) = buffers
        if lang.last_ready(inp):
            latest, residue = lang.last_observe(state.latest, inp)
            return [StepResult((residue,), LastState(latest, False), (EMPTY,), "last")]
        if lang.is_fixed(inp) and not state.done:
            emitted = lang.last_emit(state.latest, tag)
            return [StepResult(buffers, LastState(state.latest, True), (emitted,), "last-emit")]
        return []

    def enabled(buffers, state):
        (inp,) = buffers
        return 1 if lang.last_ready(inp) or (lang.is_fixed(inp) and not state.done) else 0

    return OperatorDef(
        name="last",
        inputs=(StreamType(tag, B),),
        outputs=(StreamType(out, B),),
        initial_state=LastState(NOTHING, False),
        steps_fn=steps,
        rank_fn=_content_rank(lang),
        params={"tag": str(tag)},
        enabled_fn=enabled,
    )
