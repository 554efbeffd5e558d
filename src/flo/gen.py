"""Seeded random generators for collection values and deltas.

Sizes are bounded tightly (sequences up to five elements, z-sets up to
eight keys with cardinalities in [-3,3], nested streams up to three
tuples) so exhaustive exploration of the sampled configurations stays
cheap. Generated deltas are always applicable to the value they were
drawn for, and stay applicable after operators consume from that buffer,
since consumption never changes a buffer's fixedness.
"""

from __future__ import annotations

import random

from .core import B, EMPTY, ElemType, Extend, Payload, Push, TERMINATOR, Tag, is_fixed
from .lvar import LVarValue, lattice
from .nested import NestedSeqValue
from .seq import SeqValue, SingletonNat
from .sets import SetValue
from .zset import zset


def gen_atom(elem: ElemType, rng: random.Random):
    if elem.name == "int":
        return rng.randint(0, 9)
    if elem.name == "nat":
        return rng.randint(0, 9)
    if elem.name == "bool":
        return rng.random() < 0.5
    if elem.name == "str":
        return rng.choice("abcde")
    if elem.name == "pair":
        return (gen_atom(elem.args[0], rng), gen_atom(elem.args[1], rng))
    return rng.randint(0, 9)  # any


def _decide_fixed(rng, fixed, p=0.3):
    return fixed if fixed is not None else rng.random() < p


def gen_value(tag: Tag, rng: random.Random, fixed=None):
    lang = tag.language
    if lang == "seq":
        items = tuple(gen_atom(tag.params[0], rng) for _ in range(rng.randint(0, 4)))
        return SeqValue(_decide_fixed(rng, fixed), items)
    if lang == "lvar":
        lat = lattice(tag.params[0])
        point = lat.bottom
        for _ in range(rng.randint(0, 3)):
            point = lat.join(point, gen_lattice_point(tag.params[0], rng))
        return LVarValue(tag.params[0], point, _decide_fixed(rng, fixed))
    if lang == "zset":
        keys = rng.sample(range(8), rng.randint(0, 5))
        cards = {k: rng.choice([-3, -2, -1, 1, 2, 3]) for k in keys}
        return zset(cards, _decide_fixed(rng, fixed))
    if lang == "set":
        elems = frozenset(gen_atom(tag.params[0], rng) for _ in range(rng.randint(0, 4)))
        return SetValue(elems, _decide_fixed(rng, fixed))
    if lang == "nat":
        value = None if rng.random() < 0.3 else rng.randint(0, 3)
        return SingletonNat(value, _decide_fixed(rng, fixed))
    if lang == "nested":
        return gen_nested(tag, rng, fixed)
    raise ValueError(f"no generator for {tag}")


def gen_lattice_point(lattice_id: str, rng: random.Random):
    if lattice_id == "max_nat":
        return rng.randint(0, 20)
    if lattice_id == "set_union":
        return frozenset(rng.randint(0, 6) for _ in range(rng.randint(0, 3)))
    if lattice_id == "max_nat*max_nat":
        return (rng.randint(0, 20), rng.randint(0, 20))
    raise ValueError(f"no generator for lattice {lattice_id}")


def gen_nested(tag: Tag, rng: random.Random, fixed=None) -> NestedSeqValue:
    inner = tag.params
    n = rng.randint(0, 3)
    terminated = _decide_fixed(rng, fixed, p=0.25)
    tuples = []
    for i in range(n):  # i == 0 is the newest
        newest = i == 0
        comps = tuple(
            gen_value(
                st.collection,
                rng,
                fixed=True
                if (st.bound is B and (not newest or terminated))
                else None,
            )
            for st in inner
        )
        tuples.append(comps)
    return NestedSeqValue(terminated, tuple(tuples), tuple(inner))


def gen_delta(tag: Tag, rng: random.Random, current):
    """A delta valid for ``current`` (and for any consumed version of it)."""
    lang = tag.language
    roll = rng.random()
    if roll < 0.15:
        return EMPTY
    if lang == "nested":
        return gen_nested_delta(tag, rng, current)
    if lang not in ("seq", "lvar", "zset", "set", "nat"):
        raise ValueError(f"no delta generator for {tag}")
    if roll < 0.35:
        return TERMINATOR
    if lang == "seq":
        items = tuple(gen_atom(tag.params[0], rng) for _ in range(rng.randint(1, 3)))
        return Payload(SeqValue(rng.random() < 0.2, items))
    if lang == "lvar":
        return Payload(
            LVarValue(tag.params[0], gen_lattice_point(tag.params[0], rng), rng.random() < 0.15)
        )
    if lang == "zset":
        keys = rng.sample(range(8), rng.randint(1, 3))
        return Payload(zset({k: rng.choice([-2, -1, 1, 2]) for k in keys}, rng.random() < 0.15))
    if lang == "set":
        elems = frozenset(gen_atom(tag.params[0], rng) for _ in range(rng.randint(1, 3)))
        return Payload(SetValue(elems, rng.random() < 0.15))
    held = getattr(current, "value", None)  # nat
    value = held if held is not None else rng.randint(0, 3)
    return Payload(SingletonNat(value, rng.random() < 0.3))


def gen_nested_delta(tag: Tag, rng: random.Random, current: NestedSeqValue):
    inner = tag.params
    leftmost_closable = not current.tuples or all(
        st.bound is not B or is_fixed(c)
        for st, c in zip(inner, current.tuples[0])
    )
    options = ["extend"]
    if leftmost_closable:
        options += ["push", "term"]
    pick = rng.choice(options)
    if pick == "term":
        return TERMINATOR
    if pick == "push":
        comps = tuple(
            gen_value(st.collection, rng, fixed=True if st.bound is B else None)
            for st in inner
        )
        return Push(comps)
    if not current.tuples:
        return EMPTY
    parts = tuple(
        gen_delta(st.collection, rng, c) if rng.random() < 0.7 else EMPTY
        for st, c in zip(inner, current.tuples[0])
    )
    # Component terminators could strand siblings unfixed only at the
    # value level, which the membership rules allow for the newest tuple.
    return Extend(parts)
