"""Core contracts: collection languages, stream types, deltas, and operators.

Everything downstream builds on three ideas:

* a *collection value* is a finite, immutable datum flowing on a dataflow
  edge (ordered sequence, lattice point, z-set, set, nested stream, ...);
* a *delta* is the right-hand side of the concatenation operator: how a
  collection grows, including the terminator that makes it fixed;
* an *operator* is a small-step machine over input buffers and private
  state that emits one delta per output port per step, together with a
  rank function whose strict descent witnesses termination.

Collection languages register themselves in ``LANGUAGES`` at import time;
values carry their language name in ``.lang`` so generic helpers
(``concat``, ``is_fixed``, ``fix``) can dispatch without extra context.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Optional


# ---------------------------------------------------------------------------
# errors


class FloError(Exception):
    """Base class for all model-level errors."""


class PayloadShapeMismatch(FloError):
    """Delta payload does not match the collection language's delta grammar."""


class BoundednessInvariantViolation(FloError):
    """A nested-stream update would strand an unfixed bounded component."""


class FunctionEvalError(FloError):
    """A catalog function failed on the given argument."""


class RankViolation(FloError):
    """An operator step did not strictly decrease its rank."""


class TypeViolation(FloError):
    """An operator step broke collection-type membership."""


class InvalidChoice(FloError):
    """A step choice that is not currently enabled."""


class StepBudgetExceeded(FloError):
    """A fixed step cap ran out before the run reached a stuck state.

    This reports exhausted work, not a broken operator: ranks bound every
    run, but a large valid input can need more steps than the cap allows.
    The message names the cap, the steps taken and the graph's rank.
    """


class BatchShapeMismatch(FloError):
    """Input batch arity or delta shapes do not match the graph inputs."""


class GraphTypeError(FloError):
    """Base class for typechecking failures."""

    def __init__(self, message: str, position: str = ""):
        self.position = position
        super().__init__(f"{message}" + (f" at {position}" if position else ""))


class SubtypeMismatch(GraphTypeError):
    pass


class ArityMismatch(GraphTypeError):
    pass


class BufferTypeMismatch(GraphTypeError):
    pass


class DeferKeyUnbound(GraphTypeError):
    pass


class DeferKeyReusedOrUnused(GraphTypeError):
    pass


class BoundednessViolation(GraphTypeError):
    pass


class NestOutputUnbounded(GraphTypeError):
    pass


class DeferContextMismatch(GraphTypeError):
    pass


class ThresholdsNotIncompatible(GraphTypeError):
    pass


class MissingKey(FloError):
    pass


class DuplicateKey(FloError):
    pass


# ---------------------------------------------------------------------------
# boundedness and element types


class Bound(Enum):
    BOUNDED = "B"
    UNBOUNDED = "U"

    def __repr__(self):
        return self.value


B = Bound.BOUNDED
U = Bound.UNBOUNDED


@dataclass(frozen=True, slots=True)
class ElemType:
    """Structural element type for collection contents.

    Kept deliberately small: ``any``, ``int``, ``nat``, ``bool``, ``str``
    and ``pair`` cover every operator in the standard library. Membership
    is decidable so collection-type membership is decidable.

    ``check`` is ``matches`` compiled once, at construction, into one
    predicate; collection ``member`` looks it up once per value and calls
    it per element.
    """

    name: str
    args: tuple = ()
    check: Callable = field(init=False, compare=False, hash=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "check", _compile_elem(self))

    def matches(self, value) -> bool:
        if self.name == "any":
            return True
        if self.name == "int":
            return isinstance(value, int) and not isinstance(value, bool)
        if self.name == "nat":
            return isinstance(value, int) and not isinstance(value, bool) and value >= 0
        if self.name == "bool":
            return isinstance(value, bool)
        if self.name == "str":
            return isinstance(value, str)
        if self.name == "pair":
            return (
                isinstance(value, tuple)
                and len(value) == 2
                and self.args[0].matches(value[0])
                and self.args[1].matches(value[1])
            )
        raise FloError(f"unknown element type {self.name!r}")

    def __str__(self):
        if self.args:
            return f"{self.name}<{','.join(str(a) for a in self.args)}>"
        return self.name


def _compile_elem(t: ElemType) -> Callable:
    """One predicate equivalent to ``t.matches``."""
    name = t.name
    if name == "any":
        return lambda v: True
    if name == "int":
        return lambda v: isinstance(v, int) and not isinstance(v, bool)
    if name == "nat":
        return lambda v: isinstance(v, int) and not isinstance(v, bool) and v >= 0
    if name == "bool":
        return lambda v: isinstance(v, bool)
    if name == "str":
        return lambda v: isinstance(v, str)
    if name == "pair" and len(t.args) == 2 and all(isinstance(a, ElemType) for a in t.args):
        first, second = t.args[0].check, t.args[1].check
        return lambda v: isinstance(v, tuple) and len(v) == 2 and first(v[0]) and second(v[1])
    return t.matches  # raises FloError for an unknown name, as matches does


ANY = ElemType("any")
INT = ElemType("int")
NAT = ElemType("nat")
STR = ElemType("str")
BOOL = ElemType("bool")


def pair(a: ElemType, b: ElemType) -> ElemType:
    return ElemType("pair", (a, b))


@dataclass(frozen=True, slots=True)
class Tag:
    """A collection type: language name plus its type parameters.

    Parameters are language-specific: element type for sequences, sets and
    z-sets, a lattice id for lattice variables, a tuple of inner stream
    types for nested streams.
    """

    language: str
    params: tuple = ()

    def __str__(self):
        if not self.params:
            return self.language
        return f"{self.language}<{','.join(str(p) for p in self.params)}>"


@dataclass(frozen=True, slots=True)
class StreamType:
    """A collection type paired with a boundedness flag."""

    collection: Tag
    bound: Bound

    def __str__(self):
        return f"({self.collection},{self.bound.value})"


def subtype(a: StreamType, b: StreamType) -> bool:
    """Reflexivity plus bounded-below-unbounded; nothing else."""
    if a == b:
        return True
    return a.collection == b.collection and a.bound is B and b.bound is U


# ---------------------------------------------------------------------------
# deltas

# Deltas form a tiny closed grammar shared by all languages: the
# terminator, a universal identity, a language-specific payload (always a
# plain collection value of the same language), and the two nested-stream
# extension forms. Payload values are interpreted by each language's
# concat; embedding values keeps single-step emission of "data plus
# fixedness" possible (a fold emits its accumulator and the terminator as
# one delta).


@dataclass(frozen=True, slots=True)
class Terminator:
    def __repr__(self):
        return "TERMINATOR"


@dataclass(frozen=True, slots=True)
class EmptyDelta:
    def __repr__(self):
        return "EMPTY"


@dataclass(frozen=True, slots=True)
class Payload:
    value: object


@dataclass(frozen=True, slots=True)
class Push:
    """Nested streams only: open a new tuple of inner collections."""

    values: tuple


@dataclass(frozen=True, slots=True)
class Extend:
    """Nested streams only: apply one delta per component to the newest tuple."""

    parts: tuple


TERMINATOR = Terminator()
EMPTY = EmptyDelta()

Delta = object  # Terminator | EmptyDelta | Payload | Push | Extend


# ---------------------------------------------------------------------------
# ranks


@functools.total_ordering
@dataclass(frozen=True, slots=True)
class Rank:
    """Tuple of naturals compared lexicographically.

    Unequal lengths compare by padding the shorter tuple with zeros on the
    right, so appending trailing zero components never changes an order.
    """

    components: tuple

    def __post_init__(self):
        if any(c < 0 for c in self.components):
            raise ValueError("rank components must be naturals")

    def _padded(self, n):
        return self.components + (0,) * (n - len(self.components))

    def __lt__(self, other: "Rank") -> bool:
        n = max(len(self.components), len(other.components))
        return self._padded(n) < other._padded(n)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Rank):
            return NotImplemented
        n = max(len(self.components), len(other.components))
        return self._padded(n) == other._padded(n)

    def __hash__(self):
        comps = self.components
        while comps and comps[-1] == 0:
            comps = comps[:-1]
        return hash(comps)


# ---------------------------------------------------------------------------
# collection language contract


class CollectionLanguage:
    """Abstract contract every concrete collection instantiates.

    Laws (checked by the property suite):

    * ``is_fixed(fix(c))`` for all ``c``;
    * ``is_fixed(c)`` implies ``concat(c, d) == c`` for all ``d``;
    * ``concat(c, EMPTY) == c``;
    * concat preserves membership in any tag of this language.
    """

    name: str = ""

    def member(self, value, tag: Tag) -> bool:
        raise NotImplementedError

    def concat(self, value, delta):
        raise NotImplementedError

    def is_fixed(self, value) -> bool:
        raise NotImplementedError

    def fix(self, value):
        raise NotImplementedError

    @property
    def empty_delta(self):
        return EMPTY

    def bottom(self, tag: Tag):
        """The language's neutral starting value for the given tag."""
        raise NotImplementedError

    def value_delta(self, value):
        """A single delta that rebuilds ``value`` when applied to bottom."""
        return Payload(value)

    # Content consumption: used by pass-through operators (tee, forward,
    # zip) that stream a buffer onward. Returns (delta, residue) where the
    # delta carries all current content without fixedness and the residue
    # keeps the buffer's fixedness flag, or None if there is no content.
    supports_take = False

    def take_content(self, value):
        return None

    def content_size(self, value) -> int:
        raise NotImplementedError

    # ``last``: the final value of a bounded stream, released once the input
    # fixes. ``last_output(tag)`` is the output's collection tag, or None if
    # the language has no last value. ``last_observe(latest, value)`` folds
    # the buffer's observable content into what was kept so far (NOTHING
    # before anything was seen) and returns (latest, residue), or None when
    # there is nothing to observe yet. ``last_emit(latest, tag)`` is the one
    # fixed delta released at the end.
    def last_output(self, tag: Tag):
        return None

    def last_observe(self, latest, value):
        return None

    def last_emit(self, latest, tag: Tag):
        raise NotImplementedError

    # Drain support for the event loop: split a pending output into a
    # drained part and a remainder such that re-applying value_delta of
    # the drained parts in drain order rebuilds the original stream.
    def split_all(self, value):
        """(drained, remainder) for a full drain."""
        return value, self.bottom_like(value)

    def split_prefix(self, value, n: int):
        """Drain up to n oldest units; default drains nothing."""
        return None, value

    # A full drain of a value that can only be delivered whole (one-shot
    # singletons, lattice points) waits until the value is fixed.
    whole_drain_requires_fixed = False

    def recombine(self, total, piece):
        """Fold one drained piece back into the running total."""
        return concat(total, self.value_delta(piece))

    def bottom_like(self, value):
        raise NotImplementedError


class _Nothing:
    __slots__ = ()

    def __repr__(self):
        return "<nothing>"


NOTHING = _Nothing()  # what ``last`` holds before it has seen a value


LANGUAGES: dict[str, CollectionLanguage] = {}


def register_language(lang: CollectionLanguage) -> CollectionLanguage:
    LANGUAGES[lang.name] = lang
    return lang


def language_of(value) -> CollectionLanguage:
    try:
        return LANGUAGES[value.lang]
    except (AttributeError, KeyError):
        raise FloError(f"not a registered collection value: {value!r}")


def concat(value, delta):
    """Apply one delta to a collection value.

    Fixed values absorb every delta; the universal empty delta is identity
    on every value. Everything else dispatches to the value's language.
    """
    if delta is EMPTY:
        return value
    lang = language_of(value)
    if lang.is_fixed(value):
        return value
    return lang.concat(value, delta)


def is_fixed(value) -> bool:
    return language_of(value).is_fixed(value)


def fix(value):
    return language_of(value).fix(value)


def member(value, tag: Tag) -> bool:
    lang = LANGUAGES.get(tag.language)
    return lang is not None and lang.member(value, tag)


def bottom(tag: Tag):
    return LANGUAGES[tag.language].bottom(tag)


# ---------------------------------------------------------------------------
# operators


@dataclass(frozen=True, slots=True)
class StepResult:
    """Outcome of one operator small step."""

    buffers: tuple
    state: object
    deltas: tuple
    rule: str


@dataclass(frozen=True, slots=True)
class DoneState:
    """State of an operator whose only memory is whether it has terminated."""

    done: bool


RUNNING = DoneState(False)
FINISHED = DoneState(True)


@dataclass(frozen=True, eq=False)
class OperatorDef:
    """An operator: signature, defer keys, step function and rank.

    ``steps_fn(buffers, state, exhaustive)`` returns every currently
    enabled step outcome; an empty list means the operator is stuck.
    ``steps_fn`` and ``rank_fn`` must be pure functions of their
    arguments: the graph engine reuses a listed outcome instead of asking
    again, and remembers on a node that it is stuck until its buffers or
    state change.
    Deterministic operators return at most one outcome. Operators with
    internal nondeterminism order their outcomes canonically and may
    expose extra equivalent choices when ``exhaustive`` is set, for the
    schedule explorer to cover.

    Identity equality is intentional: graph rewrites replace buffers and
    state but never the operator object itself.
    """

    name: str
    inputs: tuple  # tuple[StreamType, ...]
    outputs: tuple  # tuple[StreamType, ...]
    initial_state: object
    steps_fn: Callable
    rank_fn: Callable
    defer_reads: tuple = ()  # tuple[(key, Tag)]
    defer_writes: tuple = ()
    params: dict = field(default_factory=dict)  # rebuild record; encode_graph makes it JSON
    rank_arity: int = 1

    def steps(self, buffers, state, exhaustive: bool = False) -> list:
        return self.steps_fn(buffers, state, exhaustive)

    def rank(self, buffers, state) -> Rank:
        return self.rank_fn(buffers, state)

    def __repr__(self):
        return f"<op {self.name}>"


def step_operator(
    op: OperatorDef,
    inputs: tuple,
    state,
    choice: int = 0,
    verify: bool = True,
) -> Optional[StepResult]:
    """Take one operator small step, or None when stuck.

    With ``verify`` set, checks the two per-step operator laws after the
    fact: strict rank descent and preservation of input membership.
    """
    outcomes = op.steps(inputs, state)
    if not outcomes:
        return None
    if choice >= len(outcomes):
        raise InvalidChoice(f"{op.name}: choice {choice} of {len(outcomes)}")
    result = outcomes[choice]
    if verify:
        before = op.rank(inputs, state)
        after = op.rank(result.buffers, result.state)
        if not after < before:
            raise RankViolation(
                f"{op.name}/{result.rule}: rank {after} not below {before}"
            )
        for buf, st in zip(result.buffers, op.inputs):
            if not member(buf, st.collection):
                raise TypeViolation(f"{op.name}/{result.rule}: buffer left {st}")
    return result


def sort_key(x):
    """Deterministic ordering over mixed scalar/tuple keys."""
    if isinstance(x, bool):
        return (1, x)
    if isinstance(x, int):
        return (0, x)
    if isinstance(x, str):
        return (2, x)
    if isinstance(x, tuple):
        return (3, tuple(sort_key(e) for e in x))
    return (4, repr(x))
