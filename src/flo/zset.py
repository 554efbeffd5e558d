"""Z-sets: keyed integer cardinalities with retractions.

A z-set maps keys to nonzero integer cardinalities; negative entries are
retractions. Concatenation adds cardinalities keywise and canonicalizes
zero entries away, so structural equality is semantic equality. The
incremental operators distribute over that addition: map requires a
cardinality-linear function, and join exploits bilinearity of the keywise
product, storing consumed input on each side.

Every z-set step costs O(|delta|) in Python, whatever the stored state:
``zset_map`` emits its one key as it is, a join drain works once per
delta key and keeps each stored side as a ``CardMap`` (a shared base dict
plus a small overlay, so a drain copies only the overlay), and
``ZSetLanguage.concat`` places a one-key delta by one bisection and keeps
the buffer itself for an empty one.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from collections.abc import Mapping
from itertools import chain, product

from .core import (
    ANY,
    Bound,
    CollectionLanguage,
    ElemType,
    FINISHED,
    OperatorDef,
    Payload,
    PayloadShapeMismatch,
    RUNNING,
    Rank,
    StepResult,
    StreamType,
    TERMINATOR,
    Tag,
    U,
    decode_atom,
    draw_fixed,
    encode_atom,
    record,
    register_language,
    sort_key,
)
from . import catalog
from .seq import _content_count, _content_rank


@record
class ZSetValue:
    cards: tuple  # sorted ((key, cardinality), ...) with no zero entries
    fixed: bool

    lang = "zset"

    def as_dict(self) -> dict:
        return dict(self.cards)

    def __repr__(self):
        inner = ",".join(f"{k!r}:{v}" for k, v in self.cards)
        return f"zset({{{inner}}}{',fixed' if self.fixed else ''})"


def zset(cards: dict, fixed: bool = False) -> ZSetValue:
    cleaned = {k: v for k, v in cards.items() if v != 0}
    ordered = tuple(sorted(cleaned.items(), key=lambda kv: sort_key(kv[0])))
    return ZSetValue(ordered, fixed)


def merge_cards(cards: tuple, delta: tuple) -> tuple:
    """Keywise sum of two sorted card tuples, sorted, with cancelled keys dropped.

    Each delta key is placed by bisecting ``cards`` from where the previous
    one landed, so ``sort_key`` runs only on the delta's keys and on the
    probes: O(|delta| log |cards|) calls, and one C-level copy of the rest.
    """
    if not cards:
        return delta
    pieces, lo, n = [], 0, len(cards)
    for k, v in delta:
        i = bisect_left(cards, sort_key(k), lo, n, key=_card_key)
        pieces.append(cards[lo:i])
        if i < n and cards[i][0] == k:
            v += cards[i][1]
            i += 1
        if v:
            pieces.append(((k, v),))
        lo = i
    pieces.append(cards[lo:])
    return tuple(chain.from_iterable(pieces))


def _card_key(card):
    return sort_key(card[0])


def _key_domain(elem: ElemType):
    """The keys a z-set over ``elem`` draws from: ``range(8)`` for int,
    nat and any, and members of the key type for the others."""
    if elem.name == "bool":
        return (False, True)
    if elem.name == "str":
        return tuple("abcdefgh")
    if elem.name == "pair":
        return tuple(product(_key_domain(elem.args[0]), _key_domain(elem.args[1])))
    return range(8)


def _draw_keys(tag: Tag, rng, n: int) -> list:
    """Up to ``n`` distinct keys of the tag's key type (fewer only when
    the domain is smaller), drawn as ``rng.sample`` draws them."""
    domain = _key_domain(tag.params[0])
    return rng.sample(domain, min(n, len(domain)))


class ZSetLanguage(CollectionLanguage):
    name = "zset"

    def member(self, value, tag):
        if not isinstance(value, ZSetValue):
            return False
        check = tag.params[0].check
        return all(check(k) and v != 0 for k, v in value.cards)

    def concat(self, value, delta):
        if delta is TERMINATOR:
            return ZSetValue(value.cards, True)
        if isinstance(delta, Payload) and isinstance(delta.value, ZSetValue):
            d = delta.value
            if not d.cards and d.fixed == value.fixed:
                return value  # so the engine keeps the buffer's node and its outcomes
            return ZSetValue(merge_cards(value.cards, d.cards), d.fixed)
        raise PayloadShapeMismatch(f"zset cannot absorb {delta!r}")

    def bottom(self, tag):
        return ZSetValue((), False)

    def bottom_of(self, value):
        return ZSetValue((), False)

    def to_json(self, value):
        return {"cards": {_key_str(k): c for k, c in value.cards}, "fixed": value.fixed}

    def from_json(self, j, tag):
        cards = {_key_from_str(k): int(c) for k, c in j.get("cards", {}).items()}
        return zset(cards, bool(j.get("fixed", False)))

    def sample(self, tag, rng, fixed):
        keys = _draw_keys(tag, rng, rng.randint(0, 5))
        cards = {k: rng.choice([-3, -2, -1, 1, 2, 3]) for k in keys}
        return zset(cards, draw_fixed(rng, fixed))

    def sample_payload(self, tag, rng, current):
        keys = _draw_keys(tag, rng, rng.randint(1, 3))
        return zset({k: rng.choice([-2, -1, 1, 2]) for k in keys}, rng.random() < 0.15)

    def take_content(self, value):
        if not value.cards:
            return None
        return Payload(ZSetValue(value.cards, False)), ZSetValue((), value.fixed)

    def content_size(self, value):
        return len(value.cards)

    def split_prefix(self, value, n):
        n = min(n, len(value.cards))
        if n == 0:
            return None, value
        drained = ZSetValue(value.cards[:n], False)
        return drained, ZSetValue(value.cards[n:], value.fixed)


ZSET = register_language(ZSetLanguage())


def _key_str(k) -> str:
    """A key as a JSON object key: a string as itself, else its atom's JSON."""
    if isinstance(k, str):
        return k
    return json.dumps(encode_atom(k))


def _key_from_str(s: str):
    try:
        return decode_atom(json.loads(s))
    except (json.JSONDecodeError, ValueError):
        return s


def zset_tag(key_type: ElemType = ANY) -> Tag:
    return Tag("zset", (key_type,))


# ---------------------------------------------------------------------------
# operators

_NO_EMISSION = Payload(ZSetValue((), False))  # concat keeps a non-fixed buffer as it is


def zset_map(fn, key_type: ElemType = ANY, bound: Bound = U) -> OperatorDef:
    """Keywise transform of cardinalities; linear in the cardinality.

    Consumes one key per step (canonically the smallest; all pending keys
    are exposed as choices to the exhaustive explorer), emitting that
    key's transformed contribution.
    """
    f = catalog.resolve(fn, arity=2)

    def step_key(inp, state, i):
        k, v = inp.cards[i]
        rest = ZSetValue(inp.cards[:i] + inp.cards[i + 1 :], inp.fixed)
        out = catalog.call(f, k, v)
        emitted = Payload(ZSetValue(((k, out),), False)) if out else _NO_EMISSION
        return StepResult((rest,), state, (emitted,), "map-zset")

    def steps(buffers, state, exhaustive):
        (inp,) = buffers
        if inp.cards:
            indices = range(len(inp.cards)) if exhaustive else (0,)
            return [step_key(inp, state, i) for i in indices]
        if inp.fixed and not state.done:
            return [StepResult(buffers, FINISHED, (TERMINATOR,), "map-zset-terminated")]
        return []

    return OperatorDef(
        name="zset_map",
        inputs=(StreamType(zset_tag(key_type), bound),),
        outputs=(StreamType(zset_tag(key_type), bound),),
        initial_state=RUNNING,
        steps_fn=steps,
        rank_fn=_content_rank(ZSET),
        params={"fn": catalog.spec_of(f), "key": str(key_type), "bound": bound.value},
        enabled_fn=_content_count(ZSET),
    )


_NO_OVERLAY: dict = {}  # shared, never mutated


def _folded(base: dict, over: dict) -> dict:
    """``base`` with ``over``'s entries written over it, a 0 removing its key."""
    out = dict(base)
    for k, v in over.items():
        if v:
            out[k] = v
        else:
            del out[k]
    return out


class CardMap(Mapping):
    """An immutable mapping of keys to nonzero cardinalities, kept as a base
    dict plus an overlay of the keys changed since.

    The overlay holds exactly the keys whose cardinality differs from the
    base's, with 0 for a base key that cancelled. ``plus`` copies only the
    overlay, in C, and works once per delta key; when the overlay outgrows
    about the square root of the base, it is folded into a new base. So a
    change of d keys costs O(d) in Python and O(d + sqrt(n)) in C, amortised,
    on a mapping of n keys. Neither dict is ever mutated once it is part
    of a ``CardMap``, so mappings share them freely.

    It behaves as the dict it stands for, whatever the layout: it compares
    equal to that dict and to every ``CardMap`` of the same items, hashes
    by its items and prints as a dict with sorted keys.
    """

    __slots__ = ("base", "over")

    def __init__(self, base: dict, over: dict = _NO_OVERLAY):
        self.base = base
        self.over = over

    @classmethod
    def of(cls, cards) -> "CardMap":
        """The mapping of a dict or of (key, cardinality) pairs, zero entries dropped."""
        return cls({k: v for k, v in dict(cards).items() if v})

    def plus(self, delta) -> "CardMap":
        """This mapping with ``delta``'s (key, nonzero cardinality) pairs
        added keywise, cancelled keys dropped: itself for an empty delta."""
        if not delta:
            return self
        base, over = self.base, dict(self.over)
        for k, v in delta:
            b = base.get(k, 0)
            v += over.get(k, b)
            if v == b:
                over.pop(k, None)
            else:
                over[k] = v
        if len(over) ** 2 > len(base):
            return CardMap(_folded(base, over))
        return CardMap(base, over)

    def _flat(self) -> dict:
        return _folded(self.base, self.over) if self.over else self.base

    def get(self, k, default=None):
        v = self.over.get(k)
        if v is None:
            return self.base.get(k, default)
        return v if v else default

    def __getitem__(self, k):
        v = self.get(k)
        if v is None:
            raise KeyError(k)
        return v

    def __iter__(self):
        return iter(self._flat())

    def __len__(self):
        base = self.base
        return len(base) + sum((v != 0) - (k in base) for k, v in self.over.items())

    def __eq__(self, other):
        if isinstance(other, CardMap):
            if other.base is self.base:
                return other.over == self.over
            return self._flat() == other._flat()
        if isinstance(other, Mapping):
            return self._flat() == other
        return NotImplemented

    def __hash__(self):
        return hash(frozenset(self._flat().items()))

    def __repr__(self):
        items = sorted(self._flat().items(), key=_card_key)
        return "{" + ", ".join(f"{k!r}: {v!r}" for k, v in items) + "}"


@record
class JoinState:
    """The consumed input of each side, as key -> cardinality ``CardMap``s.

    A drain gives each side its delta touches a new ``CardMap`` that
    shares the old one's base, and keeps the other side as it is. Given
    dicts, the constructor takes each as a ``CardMap``, so a state built
    from dicts and one that drains reached are one state: the sides
    compare, hash and print by their items, whatever their layout, and
    the explorer deduplicates states that different drain orders reach.
    """

    seen_left: CardMap  # no zero entries
    seen_right: CardMap
    done: bool

    def __post_init__(self):
        if type(self.seen_left) is not CardMap:
            object.__setattr__(self, "seen_left", CardMap.of(self.seen_left))
        if type(self.seen_right) is not CardMap:
            object.__setattr__(self, "seen_right", CardMap.of(self.seen_right))


def zset_join(key_type: ElemType = ANY, bound: Bound = U) -> OperatorDef:
    """Incremental keywise-product join of two z-set streams.

    The canonical step drains both pending buffers at once, adds them to
    the stored sides, and emits the three cross terms. Under exhaustive
    exploration, single-key drains of either side are exposed as extra
    confluent choices (bilinearity makes every interleaving agree).
    """

    def drain(state, dl: tuple, dr: tuple, left_rest, right_rest):
        # One pass over the delta's keys: each emits (sl+dl)(sr+dr) - sl*sr,
        # the three cross terms at once. Only a result of two or more keys
        # is sorted.
        sl, sr = state.seen_left, state.seen_right
        dld, drd = dict(dl), dict(dr)
        out = []
        for k in dld.keys() | drd.keys() if dl and dr else dld or drd:
            a, b = sl.get(k, 0), sr.get(k, 0)
            v = (a + dld.get(k, 0)) * (b + drd.get(k, 0)) - a * b
            if v:
                out.append((k, v))
        if len(out) > 1:
            out.sort(key=_card_key)
        emitted = Payload(ZSetValue(tuple(out), False)) if out else _NO_EMISSION
        new_state = JoinState(sl.plus(dl), sr.plus(dr), False)
        return StepResult((left_rest, right_rest), new_state, (emitted,), "join-zset")

    def steps(buffers, state, exhaustive):
        left, right = buffers
        results = []
        if left.cards or right.cards:
            results.append(
                drain(
                    state,
                    left.cards,
                    right.cards,
                    ZSetValue((), left.fixed),
                    ZSetValue((), right.fixed),
                )
            )
            if exhaustive:
                for i in range(len(left.cards)):
                    k, v = left.cards[i]
                    rest = ZSetValue(left.cards[:i] + left.cards[i + 1 :], left.fixed)
                    results.append(drain(state, ((k, v),), (), rest, right))
                for i in range(len(right.cards)):
                    k, v = right.cards[i]
                    rest = ZSetValue(right.cards[:i] + right.cards[i + 1 :], right.fixed)
                    results.append(drain(state, (), ((k, v),), left, rest))
            return results
        if left.fixed and right.fixed and not state.done:
            return [
                StepResult(
                    buffers,
                    JoinState(state.seen_left, state.seen_right, True),
                    (TERMINATOR,),
                    "join-zset-terminated",
                )
            ]
        return []

    def enabled(buffers, state):
        left, right = buffers
        return 1 if left.cards or right.cards or (left.fixed and right.fixed and not state.done) else 0

    def rank(buffers, state):
        left, right = buffers
        return Rank((len(left.cards) + len(right.cards) + (0 if state.done else 1),))

    st = StreamType(zset_tag(key_type), bound)
    return OperatorDef(
        name="zset_join",
        inputs=(st, st),
        outputs=(st,),
        initial_state=JoinState({}, {}, False),
        steps_fn=steps,
        rank_fn=rank,
        params={"key": str(key_type), "bound": bound.value},
        enabled_fn=enabled,
    )
