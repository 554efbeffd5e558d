"""Lattice variables: join-updated collections read via threshold queries.

An LVar holds a single lattice point plus a fixedness flag. Concatenation
joins the payload's point into the current one while unfixed; the
terminator freezes it. Determinism downstream comes from reading such a
value only through pairwise-incompatible thresholds, or as a whole once
it is fixed.

Registered lattices: naturals under max, finite sets under union, and
pairwise products of registered lattices. All three have a total join, so
any two distinct points are compatible and a threshold operator over them
admits exactly one threshold.
"""

from __future__ import annotations

from .core import (
    ANY,
    B,
    Bound,
    CollectionLanguage,
    ElemType,
    FINISHED,
    FloError,
    NAT,
    OperatorDef,
    Payload,
    PayloadShapeMismatch,
    RUNNING,
    Rank,
    StepResult,
    StreamType,
    TERMINATOR,
    Tag,
    ThresholdsNotIncompatible,
    U,
    record,
    register_language,
)
from . import catalog
from .seq import SeqValue, _finish, _per_item, seq_tag


# ---------------------------------------------------------------------------
# lattices


class Lattice:
    id: str = ""
    elem_type: ElemType = ANY

    def join(self, a, b):
        raise NotImplementedError

    @property
    def bottom(self):
        raise NotImplementedError

    def leq(self, a, b) -> bool:
        return self.join(a, b) == b

    def member(self, x) -> bool:
        raise NotImplementedError

    def compatible(self, a, b) -> bool:
        """Whether a common upper bound exists. Total joins make this True."""
        return True


class MaxNat(Lattice):
    id = "max_nat"
    elem_type = NAT

    def join(self, a, b):
        return a if a >= b else b

    @property
    def bottom(self):
        return 0

    def member(self, x):
        return isinstance(x, int) and not isinstance(x, bool) and x >= 0


class SetUnion(Lattice):
    id = "set_union"
    elem_type = ANY

    def join(self, a, b):
        return a | b

    @property
    def bottom(self):
        return frozenset()

    def member(self, x):
        return isinstance(x, frozenset)


class Product(Lattice):
    def __init__(self, left: Lattice, right: Lattice):
        self.left = left
        self.right = right
        self.id = f"{left.id}*{right.id}"
        self.elem_type = ElemType("pair", (left.elem_type, right.elem_type))

    def join(self, a, b):
        return (self.left.join(a[0], b[0]), self.right.join(a[1], b[1]))

    @property
    def bottom(self):
        return (self.left.bottom, self.right.bottom)

    def member(self, x):
        return (
            isinstance(x, tuple)
            and len(x) == 2
            and self.left.member(x[0])
            and self.right.member(x[1])
        )


LATTICES: dict[str, Lattice] = {}


def register_lattice(lat: Lattice) -> Lattice:
    LATTICES[lat.id] = lat
    return lat


register_lattice(MaxNat())
register_lattice(SetUnion())
register_lattice(Product(MaxNat(), MaxNat()))


def lattice(lattice_id: str) -> Lattice:
    if lattice_id not in LATTICES:
        raise FloError(f"unknown lattice {lattice_id!r}")
    return LATTICES[lattice_id]


# ---------------------------------------------------------------------------
# values


@record
class LVarValue:
    lattice: str
    value: object
    fixed: bool

    lang = "lvar"


class LVarLanguage(CollectionLanguage):
    name = "lvar"

    def member(self, value, tag):
        if not isinstance(value, LVarValue) or value.lattice != tag.params[0]:
            return False
        return lattice(value.lattice).member(value.value)

    def concat(self, value, delta):
        if delta is TERMINATOR:
            return LVarValue(value.lattice, value.value, True)
        if isinstance(delta, Payload) and isinstance(delta.value, LVarValue):
            d = delta.value
            if d.lattice != value.lattice:
                raise PayloadShapeMismatch(f"lattice mismatch {d.lattice} vs {value.lattice}")
            joined = lattice(value.lattice).join(value.value, d.value)
            return LVarValue(value.lattice, joined, d.fixed)
        raise PayloadShapeMismatch(f"lvar cannot absorb {delta!r}")

    def is_fixed(self, value):
        return value.fixed

    def fix(self, value):
        return LVarValue(value.lattice, value.value, True)

    def bottom(self, tag):
        return LVarValue(tag.params[0], lattice(tag.params[0]).bottom, False)

    def bottom_like(self, value):
        return LVarValue(value.lattice, lattice(value.lattice).bottom, False)

    def content_size(self, value):
        return 0

    # A lattice point has no meaningful split; only the whole value, once
    # fixed, can leave the loop.
    whole_drain_requires_fixed = True


LVAR = register_language(LVarLanguage())


def lvar_tag(lattice_id: str) -> Tag:
    return Tag("lvar", (lattice_id,))


# ---------------------------------------------------------------------------
# operators


WATCHING, FIRED, CLOSED = 2, 1, 0


@record
class ThreshState:
    phase: int


def fold_lattice(fn, lattice_id: str, elem_in: ElemType = ANY, bound: Bound = U) -> OperatorDef:
    """Join each transformed element into an LVar; forwards the terminator."""
    lattice(lattice_id)  # rejects an unregistered lattice
    f = catalog.resolve(fn, arity=1)

    def on_item(state, x):
        return state, Payload(LVarValue(lattice_id, catalog.call(f, x), False))

    params = {"fn": catalog.spec_of(f), "lattice": lattice_id, "elem": str(elem_in), "bound": bound.value}
    rules = ("fold-lattice", "fold-lattice-terminated")
    return _per_item(
        "fold_lattice", elem_in, lvar_tag(lattice_id), bound, RUNNING, on_item, _finish, params, rules
    )


def thresh(lattice_id: str, thresholds: tuple, bound: Bound = U) -> OperatorDef:
    """Emit the unique reached threshold, then close once the input fixes.

    Thresholds must be pairwise incompatible so at most one can ever be
    reached; in a lattice with a total join any two distinct points are
    compatible, which leaves exactly one threshold. Reaching it emits the
    threshold once; the input buffer keeps joining afterwards but the
    operator's view of it is spent. When the input is fixed and nothing
    (more) can fire, the output terminates.
    """
    lat = lattice(lattice_id)
    thresholds = tuple(thresholds)
    if not thresholds:
        raise ThresholdsNotIncompatible("at least one threshold required")
    for i, a in enumerate(thresholds):
        for b in thresholds[i + 1 :]:
            if a != b and lat.compatible(a, b):
                raise ThresholdsNotIncompatible(
                    f"{a!r} and {b!r} share an upper bound in {lattice_id}"
                )
            if a == b:
                raise ThresholdsNotIncompatible(f"duplicate threshold {a!r}")

    def reached(v):
        for t in thresholds:
            if lat.leq(t, v):
                return t
        return None

    def steps(buffers, state, exhaustive):
        (inp,) = buffers
        if state.phase == WATCHING:
            t = reached(inp.value)
            if t is not None:
                return [
                    StepResult(
                        buffers,
                        ThreshState(FIRED),
                        (Payload(SeqValue(False, (t,))),),
                        "lvar-threshold",
                    )
                ]
            if inp.fixed:
                return [
                    StepResult(buffers, ThreshState(CLOSED), (TERMINATOR,), "lvar-threshold-terminated")
                ]
        elif state.phase == FIRED and inp.fixed:
            return [
                StepResult(buffers, ThreshState(CLOSED), (TERMINATOR,), "lvar-threshold-terminated")
            ]
        return []

    def rank(buffers, state):
        return Rank((state.phase,))

    return OperatorDef(
        name="thresh",
        inputs=(StreamType(lvar_tag(lattice_id), bound),),
        outputs=(StreamType(seq_tag(lat.elem_type), bound),),
        initial_state=ThreshState(WATCHING),
        steps_fn=steps,
        rank_fn=rank,
        params={"lattice": lattice_id, "thresholds": list(thresholds), "bound": bound.value},
    )


def to_sequence(lattice_id: str, *, _bound: Bound = B) -> OperatorDef:
    """Read a whole LVar as a one-element bounded sequence, after it fixes.

    Bounded-only by type: on an unbounded input the value might never fix
    and the withheld output would break progress.
    """
    lat = lattice(lattice_id)

    def steps(buffers, state, exhaustive):
        (inp,) = buffers
        if inp.fixed and not state.done:
            return [
                StepResult(
                    buffers,
                    FINISHED,
                    (Payload(SeqValue(True, (inp.value,))),),
                    "to-sequence",
                )
            ]
        return []

    def rank(buffers, state):
        return Rank((0 if state.done else 1,))

    return OperatorDef(
        name="to_sequence",
        inputs=(StreamType(lvar_tag(lattice_id), _bound),),
        outputs=(StreamType(seq_tag(lat.elem_type), _bound),),
        initial_state=RUNNING,
        steps_fn=steps,
        rank_fn=rank,
        params={"lattice": lattice_id},
    )


def to_sequence_naive(lattice_id: str, bound: Bound = U) -> OperatorDef:
    """Negative fixture: reads the LVar without waiting for fixedness.

    Emits the current point the moment it steps, so a join arriving before
    versus after the step yields different stuck outputs. Kept as the
    canonical eager-execution failure.
    """
    lat = lattice(lattice_id)

    def steps(buffers, state, exhaustive):
        (inp,) = buffers
        if not state.done:
            return [
                StepResult(
                    buffers,
                    FINISHED,
                    (Payload(SeqValue(False, (inp.value,))),),
                    "to-sequence-naive",
                )
            ]
        return []

    def rank(buffers, state):
        return Rank((0 if state.done else 1,))

    return OperatorDef(
        name="to_sequence_naive",
        inputs=(StreamType(lvar_tag(lattice_id), bound),),
        outputs=(StreamType(seq_tag(lat.elem_type), bound),),
        initial_state=RUNNING,
        steps_fn=steps,
        rank_fn=rank,
        params={"lattice": lattice_id, "bound": bound.value},
    )


def to_sequence_unbounded(lattice_id: str) -> OperatorDef:
    """Negative fixture: the guarded read mistyped as unbounded-capable."""
    op = to_sequence(lattice_id, _bound=U)
    return OperatorDef(
        name="to_sequence_unbounded",
        inputs=op.inputs,
        outputs=op.outputs,
        initial_state=op.initial_state,
        steps_fn=op.steps_fn,
        rank_fn=op.rank_fn,
        params={"lattice": lattice_id},
    )
