"""Every registered collection language against one table of tags.

The table covers each element type, each registered lattice and nested
streams with bounded and unbounded components. For every tag, seeded
draws must be members, stay members after one drawn delta, survive a JSON
round trip and come back whole from a drain. A digest pins the draws
themselves, so a change that moves one draw fails here.
"""

import hashlib
import json
import random

import pytest

from flo.core import (
    EMPTY,
    Extend,
    LANGUAGES,
    Payload,
    PayloadShapeMismatch,
    bottom,
    concat,
    is_fixed,
    member,
)
from flo.gen import gen_delta, gen_value
from flo.jsonio import decode_delta, decode_value, encode_delta, encode_value
from flo.opcatalog import parse_tag
from flo.scheduler import DrainAll, DrainPrefix, drain_value, recombine

TAGS = (
    "seq<int>",
    "seq<nat>",
    "seq<bool>",
    "seq<str>",
    "seq<any>",
    "seq<pair<int,str>>",
    "set<int>",
    "set<nat>",
    "set<bool>",
    "set<str>",
    "set<any>",
    "set<pair<nat,bool>>",
    "zset<int>",
    "zset<nat>",
    "zset<any>",
    "zset<str>",
    "zset<bool>",
    "zset<pair<int,int>>",
    "nat",
    "lvar<max_nat>",
    "lvar<set_union>",
    "lvar<max_nat*max_nat>",
    "nested<(seq<int>,B),(set<str>,U)>",
    "nested<(zset<int>,U),(nat,B),(lvar<set_union>,B)>",
    "nested<(nested<(seq<bool>,B)>,U)>",
)
DRAWS = 40

# The first 16 hex digits of the sha256 of the JSON of every (value,
# delta) drawn below, taken while ``gen.py`` still switched on the
# language, before the samplers moved onto the languages. The z-sets
# whose key type is not an integer drew non-member keys from range(8)
# then; their member draws are pinned apart, so PINNED still pins the rest.
KEYED_ZSETS = ("zset<str>", "zset<bool>", "zset<pair<int,int>>")
PINNED = "8649f4c5475a83b1"
PINNED_KEYED_ZSETS = "5d808d57146d56f2"


def _draws(text):
    """(tag, [(value, delta), ...]): seeded by the tag's text, with the
    value's fixedness left to the sampler, forced on, then forced off."""
    tag = parse_tag(text)
    rng = random.Random(text)
    out = []
    for i in range(DRAWS):
        v = gen_value(tag, rng, (None, True, False)[i % 3])
        out.append((v, gen_delta(tag, rng, v)))
    return tag, out


@pytest.fixture(scope="module")
def table():
    return {text: _draws(text) for text in TAGS}


def test_the_table_covers_every_registered_language():
    assert {parse_tag(t).language for t in TAGS} == set(LANGUAGES)


def _digest(table, tags):
    h = hashlib.sha256()
    for text in tags:
        for v, d in table[text][1]:
            h.update(json.dumps([encode_value(v), encode_delta(d)], sort_keys=True).encode())
    return h.hexdigest()[:16]


def test_draws_match_the_pinned_digest(table):
    assert _digest(table, [t for t in TAGS if t not in KEYED_ZSETS]) == PINNED
    assert _digest(table, KEYED_ZSETS) == PINNED_KEYED_ZSETS


@pytest.mark.parametrize("text", TAGS)
def test_draws_are_members_and_a_drawn_delta_keeps_them_members(table, text):
    tag, draws = table[text]
    for v, d in draws:
        assert member(v, tag), v
        assert member(concat(v, d), tag), (v, d)


@pytest.mark.parametrize("text", TAGS)
def test_json_round_trip(table, text):
    tag, draws = table[text]
    for v, d in draws:
        assert decode_value(json.loads(json.dumps(encode_value(v))), tag) == v
        assert decode_delta(json.loads(json.dumps(encode_delta(d))), tag) == d


@pytest.mark.parametrize("text", TAGS)
def test_drained_pieces_recombine_into_the_value(table, text):
    tag, draws = table[text]
    for v, _ in draws:
        for policy in (DrainAll(), DrainPrefix(0), DrainPrefix(1), DrainPrefix(3)):
            piece, rest = drain_value(v, policy, None)
            if piece is not None and isinstance(policy, DrainPrefix):
                assert not is_fixed(piece) and 0 < LANGUAGES[tag.language].content_size(piece) <= policy.n
            total = bottom(tag) if piece is None else recombine(bottom(tag), piece)
            assert recombine(total, rest) == v, (v, policy)


@pytest.mark.parametrize(
    "text", [t for t in TAGS if LANGUAGES[parse_tag(t).language].supports_take]
)
def test_taken_content_recombines_into_the_value(table, text):
    tag, draws = table[text]
    lang = LANGUAGES[tag.language]
    for v, _ in draws:
        taken = lang.take_content(v)
        if taken is None:
            assert lang.content_size(v) == 0
            continue
        delta, residue = taken
        assert not is_fixed(delta.value)
        assert recombine(concat(bottom(tag), delta), residue) == v


@pytest.mark.parametrize("text", TAGS)
def test_a_payload_of_the_value_rebuilds_it_from_bottom(table, text):
    tag, draws = table[text]
    for v, _ in draws:
        assert concat(bottom(tag), Payload(v)) == v


@pytest.mark.parametrize("text", ("nat", "lvar<max_nat>", "lvar<max_nat*max_nat>"))
def test_a_whole_value_drains_only_once_fixed(table, text):
    tag, draws = table[text]
    for v, _ in draws:
        piece, rest = drain_value(v, DrainAll(), None)
        assert (piece, rest) == ((v, bottom(tag)) if is_fixed(v) else (None, v))


def test_nested_extend_and_embedding_on_an_empty_stream(table):
    text = "nested<(seq<int>,B),(set<str>,U)>"
    tag, draws = table[text]
    empty = bottom(tag)
    assert concat(empty, Extend((EMPTY, EMPTY))) == empty
    grown = next(v for v, _ in draws if v.tuples and not v.terminated)
    with pytest.raises(PayloadShapeMismatch, match="empty nested stream"):
        concat(empty, Extend((Payload(grown.tuples[0][0]), EMPTY)))
    with pytest.raises(PayloadShapeMismatch, match="non-empty"):
        concat(grown, Payload(grown))
    other = bottom(parse_tag("nested<(seq<int>,U),(set<str>,U)>"))
    with pytest.raises(PayloadShapeMismatch, match="different inner types"):
        concat(empty, Payload(other))
