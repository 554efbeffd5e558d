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
    decode_atom,
    draw_fixed,
    encode_atom,
    record,
    register_language,
)
from . import catalog
from .seq import _finish, _flag, _one, _per_item, seq, seq_tag


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

    def sample(self, rng):
        """A seeded random point."""
        raise NotImplementedError


class MaxNat(Lattice):
    id = "max_nat"
    elem_type = NAT

    def join(self, a, b):
        return a if a >= b else b

    @property
    def bottom(self):
        return 0

    def member(self, x):
        return NAT.check(x)

    def sample(self, rng):
        return rng.randint(0, 20)


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

    def sample(self, rng):
        return frozenset(rng.randint(0, 6) for _ in range(rng.randint(0, 3)))


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

    def sample(self, rng):
        return (self.left.sample(rng), self.right.sample(rng))


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

    def bottom(self, tag):
        return LVarValue(tag.params[0], lattice(tag.params[0]).bottom, False)

    def bottom_of(self, value):
        return LVarValue(value.lattice, lattice(value.lattice).bottom, False)

    def to_json(self, value):
        return {"lattice": value.lattice, "value": encode_atom(value.value), "fixed": value.fixed}

    def from_json(self, j, tag):
        return LVarValue(j.get("lattice", tag.params[0]), decode_atom(j["value"]), bool(j.get("fixed", False)))

    def sample(self, tag, rng, fixed):
        lat = lattice(tag.params[0])
        point = lat.bottom
        for _ in range(rng.randint(0, 3)):
            point = lat.join(point, lat.sample(rng))
        return LVarValue(tag.params[0], point, draw_fixed(rng, fixed))

    def sample_payload(self, tag, rng, current):
        return LVarValue(tag.params[0], lattice(tag.params[0]).sample(rng), rng.random() < 0.15)

    def content_size(self, value):
        return 0

    def split_all(self, value):
        # A lattice point has no meaningful split: it leaves whole, once fixed.
        return (value, self.bottom_of(value)) if value.fixed else (None, value)


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
                return [StepResult(buffers, ThreshState(FIRED), (_one(t),), "lvar-threshold")]
            if inp.fixed:
                return [
                    StepResult(buffers, ThreshState(CLOSED), (TERMINATOR,), "lvar-threshold-terminated")
                ]
        elif state.phase == FIRED and inp.fixed:
            return [
                StepResult(buffers, ThreshState(CLOSED), (TERMINATOR,), "lvar-threshold-terminated")
            ]
        return []

    def enabled(buffers, state):
        (inp,) = buffers
        if state.phase == WATCHING:
            return 1 if inp.fixed or reached(inp.value) is not None else 0
        return 1 if state.phase == FIRED and inp.fixed else 0

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
        enabled_fn=enabled,
    )


def _read_whole(name: str, lattice_id: str, bound: Bound, params: dict, wait: bool) -> OperatorDef:
    """Read a whole LVar once as a one-item sequence: with ``wait``, after
    it fixes and terminated; without, at once and left open."""
    lat = lattice(lattice_id)
    rule = name.replace("_", "-")

    def ready(buffers, state):
        return not state.done and (buffers[0].fixed or not wait)

    def steps(buffers, state, exhaustive):
        if ready(buffers, state):
            delta = Payload(seq(buffers[0].value, terminated=wait))
            return [StepResult(buffers, FINISHED, (delta,), rule)]
        return []

    def enabled(buffers, state):
        return 1 if ready(buffers, state) else 0

    def rank(buffers, state):
        return Rank((_flag(state.done),))

    return OperatorDef(
        name=name,
        inputs=(StreamType(lvar_tag(lattice_id), bound),),
        outputs=(StreamType(seq_tag(lat.elem_type), bound),),
        initial_state=RUNNING,
        steps_fn=steps,
        rank_fn=rank,
        params=params,
        enabled_fn=enabled,
    )


def to_sequence(lattice_id: str) -> OperatorDef:
    """Read a whole LVar as a one-element bounded sequence, after it fixes.

    Bounded-only by type: on an unbounded input the value might never fix
    and the withheld output would break progress.
    """
    return _read_whole("to_sequence", lattice_id, B, {"lattice": lattice_id}, wait=True)


def to_sequence_naive(lattice_id: str, bound: Bound = U) -> OperatorDef:
    """Negative fixture: reads the LVar without waiting for fixedness.

    Emits the current point the moment it steps, so a join arriving before
    versus after the step yields different stuck outputs. Kept as the
    canonical eager-execution failure.
    """
    params = {"lattice": lattice_id, "bound": bound.value}
    return _read_whole("to_sequence_naive", lattice_id, bound, params, wait=False)

