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
from dataclasses import MISSING, dataclass, field, fields
from enum import Enum
from typing import Callable, Optional


# ---------------------------------------------------------------------------
# records


def record(cls):
    """Declare an immutable record: ``dataclass(frozen=True, slots=True)``
    with a cheaper constructor.

    The ``__init__`` a frozen dataclass generates stores each field through
    ``object.__setattr__``, a generic attribute store per field. Every step
    builds several records, so this ``__init__`` stores each field through
    its slot's member descriptor instead, fetched once here. Signature,
    defaults, ``init=False`` fields and ``__post_init__`` behave as in the
    generated one; equality, hashing and repr are the dataclass's, and
    assignment and deletion still raise ``FrozenInstanceError``.
    """
    cls = dataclass(frozen=True, slots=True)(cls)
    env: dict = {}
    params, body = [], []
    for f in fields(cls):
        if f.default_factory is not MISSING or f.kw_only:
            raise TypeError(f"record {cls.__name__}.{f.name}: no default_factory or kw_only")
        setter, default = f"_set_{f.name}", f"_dflt_{f.name}"
        env[setter] = cls.__dict__[f.name].__set__
        if f.default is not MISSING:
            env[default] = f.default
        if f.init:
            params.append(f.name if f.default is MISSING else f"{f.name}={default}")
            body.append(f"{setter}(self, {f.name})")
        elif f.default is not MISSING:
            body.append(f"{setter}(self, {default})")
    if hasattr(cls, "__post_init__"):
        body.append("self.__post_init__()")
    # The descriptors and defaults reach __init__ as closure cells, which
    # load faster than globals.
    names = ", ".join(env)
    src = (
        f"def make({names}):\n"
        f"    def __init__({', '.join(['self', *params])}):\n"
        + "".join(f"        {line}\n" for line in body or ["pass"])
        + "    return __init__\n"
    )
    scope: dict = {}
    exec(compile(src, "<record>", "exec"), {}, scope)
    init, generated = scope["make"](**env), cls.__init__
    init.__qualname__ = generated.__qualname__
    init.__module__ = generated.__module__
    init.__annotations__ = generated.__annotations__
    cls.__init__ = init
    return cls


def memo():
    """Declare a record's cache field: ``None`` until filled, and outside
    the constructor, equality, hashing and repr. A memo holds what a pure
    function of the record's other fields returned, so filling it after
    construction changes nothing the record means."""
    return field(default=None, init=False, compare=False, hash=False, repr=False)


# ---------------------------------------------------------------------------
# errors


class FloError(Exception):
    """Base class for all model-level errors."""


class ParseError(FloError):
    """Input that does not describe a graph, a value, a trace or a report:
    malformed JSON, or a name no catalog knows."""


class PayloadShapeMismatch(FloError):
    """Delta payload does not match the collection language's delta grammar."""


class BoundednessInvariantViolation(FloError):
    """A nested-stream update would strand an unfixed bounded component."""


class FunctionEvalError(FloError):
    """A catalog function failed on the given argument."""


class RankViolation(FloError):
    """An operator step did not strictly decrease its rank."""


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


@record
class ElemType:
    """Structural element type for collection contents.

    Kept deliberately small: ``any``, ``int``, ``nat``, ``bool``, ``str``
    and ``pair`` cover every operator in the standard library. Membership
    is decidable so collection-type membership is decidable.

    ``check`` is the membership predicate, compiled once, at construction;
    collection ``member`` looks it up once per value and calls it per
    element. An unknown name raises FloError when it is checked.
    """

    name: str
    args: tuple = ()
    check: Callable = memo()

    def __post_init__(self):
        object.__setattr__(self, "check", _compile_elem(self))

    def __str__(self):
        if self.args:
            return f"{self.name}<{','.join(str(a) for a in self.args)}>"
        return self.name


def _compile_elem(t: ElemType) -> Callable:
    """The one definition of element-type membership, as a predicate."""
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

    def unknown(v):
        raise FloError(f"unknown element type {t.name!r}")

    return unknown


ANY = ElemType("any")
INT = ElemType("int")
NAT = ElemType("nat")
STR = ElemType("str")
BOOL = ElemType("bool")


def pair(a: ElemType, b: ElemType) -> ElemType:
    return ElemType("pair", (a, b))


# Atoms, the elements of collections, are their own JSON, except that a
# pair is a list and a frozenset (a ``set_union`` point) ``{"set": [...]}``.


def encode_atom(x):
    if isinstance(x, tuple):
        return [encode_atom(e) for e in x]
    if isinstance(x, frozenset):
        return {"set": sorted((encode_atom(e) for e in x), key=repr)}
    return x


def decode_atom(j):
    if isinstance(j, list):
        return tuple(decode_atom(e) for e in j)
    if isinstance(j, dict) and "set" in j:
        return frozenset(decode_atom(e) for e in j["set"])
    return j


def gen_atom(elem: ElemType, rng):
    """A seeded random atom of the element type."""
    if elem.name == "bool":
        return rng.random() < 0.5
    if elem.name == "str":
        return rng.choice("abcde")
    if elem.name == "pair":
        return (gen_atom(elem.args[0], rng), gen_atom(elem.args[1], rng))
    return rng.randint(0, 9)  # int, nat and any


def draw_fixed(rng, fixed, p=0.3):
    """``fixed`` if it is given, else True with probability ``p``."""
    return fixed if fixed is not None else rng.random() < p


@record
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


@record
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


@record
class Terminator:
    def __repr__(self):
        return "TERMINATOR"


@record
class EmptyDelta:
    def __repr__(self):
        return "EMPTY"


@record
class Payload:
    value: object


@record
class Push:
    """Nested streams only: open a new tuple of inner collections."""

    values: tuple


@record
class Extend:
    """Nested streams only: apply one delta per component to the newest tuple."""

    parts: tuple


TERMINATOR = Terminator()
EMPTY = EmptyDelta()

Delta = object  # Terminator | EmptyDelta | Payload | Push | Extend


# ---------------------------------------------------------------------------
# ranks


@functools.total_ordering
@record
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

    A language owns all that reads its values' layout, its JSON form
    (``to_json``/``from_json``) and seeded draws (``sample``,
    ``sample_payload``, ``sample_delta``) included.
    """

    name: str = ""

    def member(self, value, tag: Tag) -> bool:
        raise NotImplementedError

    def concat(self, value, delta):
        raise NotImplementedError

    def is_fixed(self, value) -> bool:
        return value.fixed

    def fix(self, value):
        return self.concat(value, TERMINATOR)

    def bottom(self, tag: Tag):
        """The language's neutral starting value for the given tag.
        ``Payload(value)`` applied to it rebuilds ``value``."""
        raise NotImplementedError

    # The JSON form ``jsonio.encode_value``/``decode_value`` dispatch to;
    # ``from_json`` raises KeyError, TypeError or AttributeError on bad JSON.
    def to_json(self, value):
        raise NotImplementedError

    def from_json(self, j, tag: Tag):
        raise NotImplementedError

    # Seeded draws, the ones ``gen.gen_value``/``gen_delta`` dispatch to.
    # ``sample`` is a member of ``tag``, fixed as given (None: drawn).
    # ``sample_delta`` is valid for ``current`` and any consumed version of
    # it; given ``gen_delta``'s roll in [0.15, 1) it is the terminator
    # below 0.35, else a ``Payload`` of ``sample_payload``.
    def sample(self, tag: Tag, rng, fixed):
        raise NotImplementedError

    def sample_payload(self, tag: Tag, rng, current):
        raise NotImplementedError

    def sample_delta(self, tag: Tag, rng, current, roll):
        if roll < 0.35:
            return TERMINATOR
        return Payload(self.sample_payload(tag, rng, current))

    # Content consumption: pass-through operators (tee, forward, zip)
    # stream a buffer onward through ``take_content(value)``, which a
    # language that supports them defines. It returns (delta, residue)
    # where the delta carries all current content without fixedness and
    # the residue keeps the buffer's fixedness flag, or None if there is
    # no content, which is exactly when ``content_size`` is 0.
    def content_size(self, value) -> int:
        raise NotImplementedError

    # ``last``: the final value of a bounded stream, released once the input
    # fixes. ``last_output(tag)`` is the output's collection tag, or None if
    # the language has no last value. ``last_ready(value)`` is whether the
    # buffer holds content to observe; ``last_observe(latest, value)``,
    # called only then, folds it into what was kept so far (NOTHING before
    # anything was seen) and returns (latest, residue). ``last_emit(latest,
    # tag)`` is the one fixed delta released at the end.
    def last_output(self, tag: Tag):
        return None

    def last_ready(self, value) -> bool:
        return self.content_size(value) > 0

    def last_observe(self, latest, value):
        raise NotImplementedError

    def last_emit(self, latest, tag: Tag):
        raise NotImplementedError

    # Drain support for the event loop: split a pending output into a
    # drained part (or None) and a remainder such that recombining the
    # drained parts in drain order rebuilds the original stream.
    def split_all(self, value):
        """(drained, remainder) for a full drain."""
        return value, self.bottom_of(value)

    def split_prefix(self, value, n: int):
        """Drain up to n oldest units; default drains nothing."""
        return None, value

    def recombine(self, total, piece):
        """Fold one drained piece back into the running total."""
        return concat(total, Payload(piece))

    def bottom_of(self, value):
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


@record
class StepResult:
    """Outcome of one operator small step."""

    buffers: tuple
    state: object
    deltas: tuple
    rule: str


@record
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
    arguments: the graph engine keeps a node's outcomes on the node and
    never asks again for the same buffers and state.
    Deterministic operators return at most one outcome. Operators with
    internal nondeterminism order their outcomes canonically and may
    expose extra equivalent choices when ``exhaustive`` is set, for the
    schedule explorer to cover.

    ``enabled_fn(buffers, state)``, when given, is how many outcomes
    ``steps_fn(buffers, state, False)`` would return, worked out without
    building them. A run counts a leaf's steps with it and evaluates only
    the leaf it steps. The run compares the count with the outcomes only
    on that leaf: a count that is too high raises FloError there, but a
    count that is too low (0 on a leaf with work) leaves the leaf
    unstepped, and the run ends as if stuck, with no error. So it must
    be pure as well, and exactly that count on every buffers and state
    the operator can meet; the property suite checks it on sampled cases
    and along their runs, and is what catches a count that is too low.

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
    enabled_fn: Optional[Callable] = None

    def steps(self, buffers, state, exhaustive: bool = False) -> list:
        return self.steps_fn(buffers, state, exhaustive)

    def rank(self, buffers, state) -> Rank:
        return self.rank_fn(buffers, state)

    def __repr__(self):
        return f"<op {self.name}>"


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
