"""JSON round-trips for values, deltas, graphs and traces."""

import json

import pytest

from flo import programs
from flo.core import B, INT, StreamType, U
from flo.gen import gen_delta, gen_value
from flo.graph import inputs, typecheck
from flo.jsonio import (
    decode_delta,
    decode_graph,
    decode_trace,
    decode_value,
    encode_delta,
    encode_graph,
    encode_value,
)
from flo.lvar import lvar_tag
from flo.nested import nested_tag
from flo.seq import NAT_TAG, seq_tag
from flo.sets import edge_tag, set_tag
from flo.zset import zset_tag


TAGS = [
    seq_tag(INT),
    set_tag(INT),
    edge_tag(INT),
    zset_tag(INT),
    lvar_tag("max_nat"),
    NAT_TAG,
    nested_tag((StreamType(seq_tag(INT), B), StreamType(set_tag(INT), B))),
]


@pytest.mark.parametrize("tag", TAGS, ids=str)
def test_value_round_trip(tag, rng):
    for _ in range(50):
        v = gen_value(tag, rng)
        assert decode_value(encode_value(v), tag) == v


@pytest.mark.parametrize("tag", TAGS, ids=str)
def test_delta_round_trip(tag, rng):
    for _ in range(50):
        v = gen_value(tag, rng)
        d = gen_delta(tag, rng, v)
        assert decode_delta(encode_delta(d), tag) == d


def test_zset_tuple_keys_round_trip(rng):
    from flo.zset import zset

    v = zset({(1, 2): 3, "a": -1, 5: 2})
    assert decode_value(encode_value(v), zset_tag()) == v


def test_graph_round_trip():
    spec = {
        "seq": [
            {"op": {"name": "map", "params": {"fn": "inc", "elem": "int", "elem_out": "int", "bound": "U"}}},
            {
                "op": {
                    "name": "scan",
                    "params": {"init": 0, "fn": "add", "elem": "int", "elem_out": "int", "bound": "U"},
                    "buffers": [{"terminated": False, "items": [4]}],
                }
            },
        ]
    }
    g = decode_graph(spec)
    gt = typecheck(g)
    assert str(gt.inputs[0]) == "(seq<int>,U)"
    again = decode_graph(encode_graph(g))
    assert inputs(again.right) == inputs(g.right)


def test_nest_graph_from_named_inner():
    g = decode_graph({"op": {"name": "nest", "params": {"graph": "fold_sum", "bound": "U"}}})
    gt = typecheck(g)
    assert gt.inputs[0].collection.language == "nested"


def test_nest_graph_from_inline_inner():
    inner = {"op": {"name": "fold", "params": {"init": 0, "fn": "add", "elem": "int", "elem_out": "int"}}}
    g = decode_graph({"op": {"name": "nest", "params": {"graph": inner, "bound": "B"}}})
    gt = typecheck(g)
    assert gt.outputs[0].bound is B


def test_parse_tag_grammar():
    from flo.opcatalog import parse_stream, parse_tag

    assert str(parse_tag("seq<pair<int,int>>")) == "seq<pair<int,int>>"
    assert str(parse_tag("nested<(seq<int>,B),(set<int>,U)>")) == "nested<(seq<int>,B),(set<int>,U)>"
    st = parse_stream("(lvar<max_nat>,U)")
    assert st.bound is U and st.collection.params == ("max_nat",)


def test_nest_and_read_defer_round_trip():
    # The encoding carries each nest's inner graph and each read_defer's
    # initial value, so decoding rebuilds the same program.
    from flo.scheduler import run_trace

    g = programs.reachability_dynamic(0, 3)
    doc = encode_graph(g)
    again = decode_graph(json.loads(json.dumps(doc)))
    assert encode_graph(again) == doc
    edges = {"elems": [[0, 1], [1, 2], [2, 3], [3, 4]], "fixed": True}
    trace = decode_trace(
        [
            {"batch": [{"push": [edges]}, {"push": [{"value": k, "fixed": True}]}], "drain": "all"}
            for k in (1, 2)
        ],
        typecheck(g).inputs,
    )
    (want,) = run_trace(g, trace).totals
    (got,) = run_trace(again, trace).totals
    assert got == want
    assert [t[0].elems for t in reversed(want.tuples)] == [{0, 1}, {0, 1, 2, 3}]
