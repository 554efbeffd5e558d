"""Named registry of operators: builders, harness bindings, fixtures.

Each entry knows how to build its operator from JSON-able parameters (for
graph files and replay), which binding the per-operator checks run at,
and how to sample random cases for it. Negative fixtures live here too:
operators that deliberately violate one guarantee each, kept so the
checkers stay honest.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Optional

from .core import (
    B,
    Bound,
    ElemType,
    FloError,
    INT,
    OperatorDef,
    Payload,
    Rank,
    StepResult,
    StreamType,
    Tag,
    U,
)
from .gen import gen_delta, gen_value
from .graph import Par, node, seq_chain
from .harness import OpCase
from .lvar import (
    fold_lattice,
    thresh,
    to_sequence,
    to_sequence_naive,
    to_sequence_unbounded,
)
from .nested import make_nest, read_defer, write_defer
from .seq import (
    SEQ,
    SeqValue,
    fold,
    forward,
    last,
    scan,
    seq_filter,
    seq_map,
    seq_tag,
    tee,
    window,
)
from .sets import (
    edge_join,
    nest_once,
    repeat_nested,
    set_tag,
    set_union,
    sset,
    zip_nested,
)
from .zset import zset_join, zset_map


# ---------------------------------------------------------------------------
# textual type parsing (graph files reference types by name)


def _split_args(s: str) -> list:
    parts, depth, cur = [], 0, ""
    for ch in s:
        if ch in "<(":
            depth += 1
        elif ch in ">)":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append(cur)
            cur = ""
        else:
            cur += ch
    if cur:
        parts.append(cur)
    return parts


def parse_elem(s: str) -> ElemType:
    s = s.strip()
    if s.startswith("pair<") and s.endswith(">"):
        a, b = _split_args(s[5:-1])
        return ElemType("pair", (parse_elem(a), parse_elem(b)))
    if s in ("any", "int", "nat", "bool", "str"):
        return ElemType(s)
    raise FloError(f"cannot parse element type {s!r}")


def parse_stream(s: str) -> StreamType:
    s = s.strip()
    if not (s.startswith("(") and s.endswith(")")):
        raise FloError(f"cannot parse stream type {s!r}")
    tag_s, bound_s = _split_args(s[1:-1])
    bound = B if bound_s.strip() == "B" else U
    return StreamType(parse_tag(tag_s), bound)


def parse_tag(s: str) -> Tag:
    s = s.strip()
    if s == "nat":
        return Tag("nat")
    if "<" not in s:
        raise FloError(f"cannot parse collection type {s!r}")
    head, rest = s.split("<", 1)
    body = rest[:-1]
    if head in ("seq", "set", "zset"):
        return Tag(head, (parse_elem(body),))
    if head == "lvar":
        return Tag("lvar", (body.strip(),))
    if head == "nested":
        return Tag("nested", tuple(parse_stream(a) for a in _split_args(body)))
    raise FloError(f"cannot parse collection type {s!r}")


def _bound(params, default="U") -> Bound:
    return B if params.get("bound", default) == "B" else U


# ---------------------------------------------------------------------------
# negative fixtures


def coin(elem: ElemType = INT, bound: Bound = U) -> OperatorDef:
    """Non-confluent fixture: two steps that disagree forever."""

    def steps(buffers, state, exhaustive):
        taken = SEQ.take_oldest(buffers[0])
        if taken is None:
            return []
        x, rest = taken
        return [
            StepResult((rest,), state, (Payload(SeqValue(False, (x,))),), "coin-heads"),
            StepResult((rest,), state, (Payload(SeqValue(False, (x + 100,))),), "coin-tails"),
        ]

    def rank(buffers, state):
        return Rank((SEQ.content_size(buffers[0]),))

    st = StreamType(seq_tag(elem), bound)
    return OperatorDef(
        name="coin",
        inputs=(st,),
        outputs=(st,),
        initial_state=None,
        steps_fn=steps,
        rank_fn=rank,
        params={"elem": str(elem)},
    )


def constant_rank(elem: ElemType = INT) -> OperatorDef:
    """Rank-law violation fixture: steps forever without descending."""

    def steps(buffers, state, exhaustive):
        from .core import EMPTY

        return [StepResult(buffers, state, (EMPTY,), "spin")]

    def rank(buffers, state):
        return Rank((1,))

    st = StreamType(seq_tag(elem), U)
    return OperatorDef(
        name="constant_rank",
        inputs=(st,),
        outputs=(st,),
        initial_state=None,
        steps_fn=steps,
        rank_fn=rank,
        params={"elem": str(elem)},
    )


# ---------------------------------------------------------------------------
# inner graphs for nest


def defer_accumulator_graph():
    """Set accumulator carried across iterations through a defer pair.

    Per iteration: deferred = read_defer("acc"), merged = deferred union
    input, output merged and also write it back for the next round.
    """
    t = set_tag(INT)
    stage1 = Par(node(read_defer("acc", t, sset((), fixed=True))), node(forward(t, B)))
    stage2 = node(set_union(INT, B))
    stage3 = node(tee(t, B))
    stage4 = Par(node(forward(t, B)), node(write_defer("acc", t)))
    return seq_chain(stage1, stage2, stage3, stage4)


def fold_inner_graph():
    return node(fold(0, "add", INT, INT))


# ---------------------------------------------------------------------------
# registry


@dataclass
class OpEntry:
    name: str
    op_eager: OperatorDef
    op_progress: OperatorDef
    build: Callable[[dict], OperatorDef]
    default_params: dict = field(default_factory=dict)
    # Expected harness verdicts; fixtures flip one of these to False.
    expect: dict = field(default_factory=lambda: {"eager": True, "progress": True, "rank": True})


def _generic_case(op: OperatorDef, rng: random.Random, progress: bool) -> OpCase:
    if progress:
        buffers = tuple(
            gen_value(st.collection, rng, fixed=True if st.bound is B else None)
            for st in op.inputs
        )
        return OpCase(buffers=buffers)
    buffers = tuple(gen_value(st.collection, rng) for st in op.inputs)
    delta = tuple(gen_delta(st.collection, rng, b) for st, b in zip(op.inputs, buffers))
    return OpCase(buffers=buffers, delta=delta, presteps=rng.randint(0, 3))


def cases_for(entry: OpEntry, kind: str, count: int, seed: int):
    """Stream of sampled cases for one check kind (eager|progress|rank)."""
    rng = random.Random(seed)
    op = entry.op_progress if kind == "progress" else entry.op_eager
    for _ in range(count):
        yield _generic_case(op, rng, progress=kind == "progress")


REGISTRY: dict[str, OpEntry] = {}


def _register(entry: OpEntry):
    REGISTRY[entry.name] = entry
    return entry


def build_operator(name: str, params: Optional[dict] = None) -> OperatorDef:
    if name not in REGISTRY:
        raise FloError(f"unknown operator {name!r}")
    entry = REGISTRY[name]
    merged = dict(entry.default_params)
    merged.update(params or {})
    return entry.build(merged)


def _entry_simple(name, build, default_params, progress_params=None, expect=None):
    op = build(default_params)
    _register(
        OpEntry(
            name=name,
            op_eager=op,
            op_progress=build({**default_params, **progress_params}) if progress_params else op,
            build=build,
            default_params=default_params,
            expect=expect or {"eager": True, "progress": True, "rank": True},
        )
    )


def _elem(params, key="elem", default="int"):
    return parse_elem(params.get(key, default))


def _populate():
    _entry_simple(
        "map",
        lambda p: seq_map(p["fn"], _elem(p), _elem(p, "elem_out"), _bound(p)),
        {"fn": "inc", "elem": "int", "elem_out": "int", "bound": "U"},
    )
    _entry_simple(
        "filter",
        lambda p: seq_filter(p["fn"], _elem(p), _bound(p)),
        {"fn": {"name": "ge", "c": 5}, "elem": "int", "bound": "U"},
    )
    _entry_simple(
        "scan",
        lambda p: scan(p.get("init", 0), p["fn"], _elem(p), _elem(p, "elem_out"), _bound(p)),
        {"init": 0, "fn": "add", "elem": "int", "elem_out": "int", "bound": "U"},
    )
    _entry_simple(
        "fold",
        lambda p: fold(p.get("init", 0), p["fn"], _elem(p), _elem(p, "elem_out")),
        {"init": 0, "fn": "add", "elem": "int", "elem_out": "int"},
    )
    _entry_simple(
        "window",
        lambda p: window(p["interval"], _elem(p), _bound(p)),
        {"interval": 4, "elem": "int", "bound": "U"},
        # Progress holds at the bounded binding; the flush of a partial
        # window is new content, not a fixing, at unbounded ones.
        progress_params={"bound": "B"},
    )
    _entry_simple(
        "tee",
        lambda p: tee(parse_tag(p["tag"]), _bound(p)),
        {"tag": "seq<int>", "bound": "U"},
    )
    _entry_simple(
        "forward",
        lambda p: forward(parse_tag(p["tag"]), _bound(p)),
        {"tag": "set<int>", "bound": "U"},
    )
    _entry_simple(
        "last",
        lambda p: last(parse_tag(p["tag"])),
        {"tag": "seq<int>"},
    )
    _entry_simple(
        "fold_lattice",
        lambda p: fold_lattice(p["fn"], p["lattice"], _elem(p), _bound(p)),
        {"fn": "id", "lattice": "max_nat", "elem": "nat", "bound": "U"},
    )
    _entry_simple(
        "thresh",
        lambda p: thresh(p["lattice"], tuple(p["thresholds"]), _bound(p)),
        {"lattice": "max_nat", "thresholds": [10], "bound": "U"},
    )
    _entry_simple(
        "to_sequence",
        lambda p: to_sequence(p["lattice"]),
        {"lattice": "max_nat"},
    )
    _entry_simple(
        "zset_map",
        lambda p: zset_map(p["fn"], _elem(p, "key"), _bound(p)),
        {"fn": {"name": "scale", "c": 3}, "key": "int", "bound": "U"},
    )
    _entry_simple(
        "zset_join",
        lambda p: zset_join(_elem(p, "key"), _bound(p)),
        {"key": "int", "bound": "U"},
    )
    _entry_simple(
        "edge_join",
        lambda p: edge_join(_elem(p), _bound(p)),
        {"elem": "int", "bound": "U"},
    )
    _entry_simple(
        "set_union",
        lambda p: set_union(_elem(p), _bound(p)),
        {"elem": "int", "bound": "U"},
    )
    _entry_simple(
        "repeat_nested",
        lambda p: repeat_nested(parse_tag(p["data"])),
        {"data": "set<int>"},
    )
    _entry_simple(
        "zip",
        lambda p: zip_nested(
            tuple(parse_stream(s) for s in p["left"]),
            tuple(parse_stream(s) for s in p["right"]),
            _bound(p),
        ),
        {"left": ["(seq<int>,B)"], "right": ["(set<int>,B)"], "bound": "U"},
    )
    _entry_simple(
        "nest_once",
        lambda p: nest_once(parse_tag(p["tag"]), _bound(p, "B"), p.get("limit", 0)),
        {"tag": "set<int>", "bound": "B", "limit": 2},
    )
    _entry_simple(
        "nest",
        _build_nest,
        {"graph": "defer_accumulator", "bound": "U"},
    )
    _entry_simple(
        "read_defer",
        _build_read_defer,
        {"key": "k", "tag": "set<int>", "init": {"elems": [0], "fixed": True}},
    )
    _entry_simple(
        "write_defer",
        lambda p: write_defer(p["key"], parse_tag(p["tag"])),
        {"key": "k", "tag": "set<int>"},
    )

    # fixtures
    _entry_simple(
        "to_sequence_naive",
        lambda p: to_sequence_naive(p["lattice"], _bound(p)),
        {"lattice": "max_nat", "bound": "U"},
        expect={"eager": False, "progress": True, "rank": True},
    )
    _entry_simple(
        "to_sequence_unbounded",
        lambda p: to_sequence_unbounded(p["lattice"]),
        {"lattice": "max_nat"},
        expect={"eager": True, "progress": False, "rank": True},
    )
    _entry_simple(
        "fold_unbounded",
        lambda p: fold(p.get("init", 0), p["fn"], _elem(p), _elem(p, "elem_out"), _bound=U),
        {"init": 0, "fn": "add", "elem": "int", "elem_out": "int"},
        expect={"eager": True, "progress": False, "rank": True},
    )
    _entry_simple(
        "last_unbounded",
        lambda p: last(parse_tag(p["tag"]), _bound=U),
        {"tag": "seq<int>"},
        expect={"eager": True, "progress": False, "rank": True},
    )
    _entry_simple(
        "coin",
        lambda p: coin(_elem(p), _bound(p)),
        {"elem": "int", "bound": "U"},
        expect={"eager": True, "progress": True, "rank": True, "determinism": False},
    )
    _entry_simple(
        "constant_rank",
        lambda p: constant_rank(_elem(p)),
        {"elem": "int"},
        expect={"eager": True, "progress": True, "rank": False},
    )


def _build_nest(p):
    inner_name = p.get("graph", "defer_accumulator")
    if isinstance(inner_name, str):
        if inner_name == "defer_accumulator":
            g = defer_accumulator_graph()
        elif inner_name == "fold_sum":
            g = fold_inner_graph()
        else:
            raise FloError(f"unknown inner graph {inner_name!r}")
    else:
        from .jsonio import decode_graph

        g = decode_graph(inner_name)
    copy = p.get("copy")
    g_o = None
    if copy is not None:
        from .jsonio import decode_graph

        g_o = decode_graph(copy)
    return make_nest(g, g_o, _bound(p))


def _build_read_defer(p):
    init = p.get("init")
    value = None
    if init is not None:
        from .jsonio import decode_value

        value = decode_value(init, parse_tag(p["tag"]))
    return read_defer(p["key"], parse_tag(p["tag"]), value)


_populate()

# The operator-obligation suite named by the acceptance criteria.
STDLIB_OPERATORS = (
    "map",
    "scan",
    "fold",
    "window",
    "tee",
    "last",
    "fold_lattice",
    "thresh",
    "to_sequence",
    "zset_map",
    "zset_join",
    "edge_join",
    "set_union",
    "repeat_nested",
    "zip",
    "nest_once",
    "nest",
    "read_defer",
    "write_defer",
)
