"""Z-sets: keyed integer cardinalities with retractions.

A z-set maps keys to nonzero integer cardinalities; negative entries are
retractions. Concatenation adds cardinalities keywise and canonicalizes
zero entries away, so structural equality is semantic equality. The
incremental operators distribute over that addition: map requires a
cardinality-linear function, and join exploits bilinearity of the keywise
product, storing consumed input on each side.
"""

from __future__ import annotations

import json
from bisect import bisect_left
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


def add_cards(a: dict, b: dict) -> dict:
    """Keywise sum as a new dict, dropping keys that cancel to zero.

    One C-level copy of ``a``, then a Python loop over ``b`` only, so the
    cost in Python is O(|b|). ``a`` must hold no zero entries.
    """
    out = dict(a)
    for k, v in b.items():
        v += out.get(k, 0)
        if v:
            out[k] = v
        else:
            out.pop(k, None)
    return out


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


def join_cards(a: dict, b: dict) -> dict:
    """Keywise cardinality product."""
    return {k: a[k] * b[k] for k in a.keys() & b.keys() if a[k] * b[k] != 0}


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
            return ZSetValue(merge_cards(value.cards, delta.value.cards), delta.value.fixed)
        raise PayloadShapeMismatch(f"zset cannot absorb {delta!r}")

    def fix(self, value):
        return ZSetValue(value.cards, True)

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

    supports_take = True

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
        return StepResult((rest,), state, (Payload(zset({k: out})),), "map-zset")

    def steps(buffers, state, exhaustive):
        (inp,) = buffers
        if inp.cards:
            indices = range(len(inp.cards)) if exhaustive else (0,)
            return [step_key(inp, state, i) for i in indices]
        if inp.fixed and not state.done:
            return [StepResult(buffers, FINISHED, (TERMINATOR,), "map-zset-terminated")]
        return []

    def rank(buffers, state):
        return Rank((len(buffers[0].cards) + (0 if state.done else 1),))

    return OperatorDef(
        name="zset_map",
        inputs=(StreamType(zset_tag(key_type), bound),),
        outputs=(StreamType(zset_tag(key_type), bound),),
        initial_state=RUNNING,
        steps_fn=steps,
        rank_fn=rank,
        params={"fn": catalog.spec_of(f), "key": str(key_type), "bound": bound.value},
    )


@record
class JoinState:
    """The consumed input of each side, as key -> cardinality dicts.

    The dicts are never mutated after construction: a drain copies a side
    and updates only the keys in its delta. Dict equality ignores
    insertion order and the hash is structural to match, so the explorer
    deduplicates states that different drain orders reach.
    """

    seen_left: dict  # no zero entries
    seen_right: dict
    done: bool

    def __hash__(self):
        return hash(
            (frozenset(self.seen_left.items()), frozenset(self.seen_right.items()), self.done)
        )


def zset_join(key_type: ElemType = ANY, bound: Bound = U) -> OperatorDef:
    """Incremental keywise-product join of two z-set streams.

    The canonical step drains both pending buffers at once, adds them to
    the stored sides, and emits the three cross terms. Under exhaustive
    exploration, single-key drains of either side are exposed as extra
    confluent choices (bilinearity makes every interleaving agree).
    """

    def drain(state, dl: dict, dr: dict, left_rest, right_rest):
        sl, sr = state.seen_left, state.seen_right
        emitted = add_cards(
            add_cards(join_cards(sl, dr), join_cards(dl, sr)), join_cards(dl, dr)
        )
        new_state = JoinState(add_cards(sl, dl), add_cards(sr, dr), False)
        return StepResult(
            (left_rest, right_rest),
            new_state,
            (Payload(zset(emitted)),),
            "join-zset",
        )

    def steps(buffers, state, exhaustive):
        left, right = buffers
        results = []
        if left.cards or right.cards:
            results.append(
                drain(
                    state,
                    left.as_dict(),
                    right.as_dict(),
                    ZSetValue((), left.fixed),
                    ZSetValue((), right.fixed),
                )
            )
            if exhaustive:
                for i in range(len(left.cards)):
                    k, v = left.cards[i]
                    rest = ZSetValue(left.cards[:i] + left.cards[i + 1 :], left.fixed)
                    results.append(drain(state, {k: v}, {}, rest, right))
                for i in range(len(right.cards)):
                    k, v = right.cards[i]
                    rest = ZSetValue(right.cards[:i] + right.cards[i + 1 :], right.fixed)
                    results.append(drain(state, {}, {k: v}, left, rest))
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
    )
