"""Canonical JSON forms for values, deltas, graphs, traces and reports.

Values decode against a known collection type (the graph supplies it), so
the encodings carry no type discriminators:

* sequence: {"terminated": bool, "items": [...]} with items newest first
* lattice variable: {"lattice": id, "value": ..., "fixed": bool}
* z-set: {"cards": {key: card, ...}, "fixed": bool}
* set: {"elems": [...], "fixed": bool}
* nat singleton: {"value": n | null, "fixed": bool}
* nested: {"terminated": bool, "tuples": [[inner, ...], ...]}

Deltas: {"term": true} | {"empty": true} | {"payload": value}
| {"push": [value, ...]} | {"extend": [delta, ...]}.
"""

from __future__ import annotations

import json

from .core import (
    EMPTY,
    Extend,
    FloError,
    LANGUAGES,
    Payload,
    Push,
    TERMINATOR,
    Tag,
    sort_key,
)
from .lvar import LVarValue
from .nested import NestedSeqValue
from .seq import SeqValue, SingletonNat
from .sets import SetValue
from .zset import ZSetValue, zset


class ParseError(FloError):
    pass


# ---------------------------------------------------------------------------
# atoms


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


def _key_str(k) -> str:
    if isinstance(k, str):
        return k
    return json.dumps(encode_atom(k))


def _key_from_str(s: str):
    try:
        return decode_atom(json.loads(s))
    except (json.JSONDecodeError, ValueError):
        return s


# ---------------------------------------------------------------------------
# values


def encode_value(v):
    if isinstance(v, SeqValue):
        return {"terminated": v.terminated, "items": [encode_atom(i) for i in v.items]}
    if isinstance(v, LVarValue):
        return {"lattice": v.lattice, "value": encode_atom(v.value), "fixed": v.fixed}
    if isinstance(v, ZSetValue):
        return {"cards": {_key_str(k): c for k, c in v.cards}, "fixed": v.fixed}
    if isinstance(v, SetValue):
        return {
            "elems": [encode_atom(e) for e in sorted(v.elems, key=sort_key)],
            "fixed": v.fixed,
        }
    if isinstance(v, SingletonNat):
        return {"value": v.value, "fixed": v.fixed}
    if isinstance(v, NestedSeqValue):
        return {
            "terminated": v.terminated,
            "tuples": [[encode_value(c) for c in tup] for tup in v.tuples],
        }
    raise FloError(f"cannot encode {v!r}")


def decode_value(j, tag: Tag):
    try:
        if tag.language == "seq":
            return SeqValue(bool(j.get("terminated", False)), tuple(decode_atom(i) for i in j.get("items", [])))
        if tag.language == "lvar":
            return LVarValue(j.get("lattice", tag.params[0]), decode_atom(j["value"]), bool(j.get("fixed", False)))
        if tag.language == "zset":
            cards = {_key_from_str(k): int(c) for k, c in j.get("cards", {}).items()}
            return zset(cards, bool(j.get("fixed", False)))
        if tag.language == "set":
            return SetValue(frozenset(decode_atom(e) for e in j.get("elems", [])), bool(j.get("fixed", False)))
        if tag.language == "nat":
            return SingletonNat(j.get("value"), bool(j.get("fixed", False)))
        if tag.language == "nested":
            tuples = tuple(
                tuple(decode_value(c, st.collection) for c, st in zip(tup, tag.params))
                for tup in j.get("tuples", [])
            )
            return NestedSeqValue(bool(j.get("terminated", False)), tuples, tag.params)
    except (KeyError, TypeError, AttributeError) as exc:
        raise ParseError(f"bad value for {tag}: {exc}") from exc
    raise ParseError(f"no decoder for collection type {tag}")


# ---------------------------------------------------------------------------
# deltas


def encode_delta(d):
    if d is TERMINATOR:
        return {"term": True}
    if d is EMPTY:
        return {"empty": True}
    if isinstance(d, Payload):
        return {"payload": encode_value(d.value)}
    if isinstance(d, Push):
        return {"push": [encode_value(v) for v in d.values]}
    if isinstance(d, Extend):
        return {"extend": [encode_delta(p) for p in d.parts]}
    raise FloError(f"cannot encode delta {d!r}")


def decode_delta(j, tag: Tag):
    if not isinstance(j, dict):
        raise ParseError(f"bad delta {j!r}")
    if j.get("term"):
        return TERMINATOR
    if j.get("empty"):
        return EMPTY
    if "payload" in j:
        return Payload(decode_value(j["payload"], tag))
    if "push" in j:
        return Push(
            tuple(decode_value(v, st.collection) for v, st in zip(j["push"], tag.params))
        )
    if "extend" in j:
        return Extend(
            tuple(decode_delta(d, st.collection) for d, st in zip(j["extend"], tag.params))
        )
    raise ParseError(f"bad delta {j!r}")


# ---------------------------------------------------------------------------
# graphs


def _encode_param(p):
    """Operator params are JSON except for a nest's graphs and a read_defer's init."""
    from .graph import Node, Par, Seq

    if isinstance(p, (Node, Seq, Par)):
        return encode_graph(p)
    if getattr(p, "lang", None) in LANGUAGES:
        return encode_value(p)
    return p


def encode_graph(e):
    from .graph import Node, Seq

    if isinstance(e, Node):
        return {
            "op": {
                "name": e.op.name,
                "params": {k: _encode_param(v) for k, v in e.op.params.items()},
                "buffers": [encode_value(b) for b in e.buffers],
            }
        }
    if isinstance(e, Seq):
        return {"seq": [encode_graph(e.left), encode_graph(e.right)]}
    return {"par": [encode_graph(e.left), encode_graph(e.right)]}


def decode_graph(j):
    from .graph import node, par, seq_chain
    from .opcatalog import build_operator

    if not isinstance(j, dict):
        raise ParseError(f"bad graph {j!r}")
    if "seq" in j:
        return seq_chain(*(decode_graph(g) for g in j["seq"]))
    if "par" in j:
        return par(*(decode_graph(g) for g in j["par"]))
    if "op" in j:
        spec = j["op"]
        op = build_operator(spec["name"], spec.get("params"))
        buffers = None
        if spec.get("buffers"):
            buffers = tuple(
                decode_value(v, st.collection)
                for v, st in zip(spec["buffers"], op.inputs)
            )
        return node(op, buffers)
    raise ParseError(f"bad graph {j!r}")


# ---------------------------------------------------------------------------
# traces


def decode_trace(j, input_types):
    from .scheduler import DrainAll, DrainNone, DrainPrefix, DrainRandom, InputBatch, TraceStep

    if not isinstance(j, list):
        raise ParseError("trace must be a list of iterations")
    steps = []
    for entry in j:
        batch = entry.get("batch", [])
        if len(batch) != len(input_types):
            raise ParseError(
                f"batch has {len(batch)} deltas for {len(input_types)} inputs"
            )
        deltas = tuple(
            decode_delta(d, st.collection) for d, st in zip(batch, input_types)
        )
        raw_steps = entry.get("steps", "max")
        budget = None if raw_steps == "max" else int(raw_steps)
        drain_spec = entry.get("drain", "none")
        if drain_spec == "all":
            drain = DrainAll()
        elif drain_spec == "none":
            drain = DrainNone()
        elif isinstance(drain_spec, dict) and "prefix" in drain_spec:
            drain = DrainPrefix(int(drain_spec["prefix"]))
        elif isinstance(drain_spec, dict) and "random" in drain_spec:
            drain = DrainRandom(int(drain_spec["random"]))
        else:
            raise ParseError(f"bad drain policy {drain_spec!r}")
        steps.append(TraceStep(InputBatch(deltas), budget, drain))
    return steps


# ---------------------------------------------------------------------------
# reports and counterexamples


def encode_report(report, subject_desc: dict) -> dict:
    out = {
        "property": report.prop,
        "verdict": report.verdict,
        "cases": report.cases,
        "details": {k: _plain(v) for k, v in report.details.items()},
    }
    out.update(subject_desc)
    if report.counterexample is not None:
        out["counterexample"] = encode_counterexample(report, subject_desc)
    return out


def encode_counterexample(report, subject_desc: dict) -> dict:
    cx = report.counterexample
    out = dict(subject_desc)
    out["property"] = report.prop
    out["verdict"] = report.verdict
    case = cx.get("case")
    if case is not None:
        out["case"] = {
            "buffers": [encode_value(b) for b in case.buffers],
            "delta": [encode_delta(d) for d in case.delta],
            "presteps": case.presteps,
        }
    if "inputs" in cx:
        out["inputs"] = [encode_value(v) for v in cx["inputs"]]
    if "schedule_a" in cx:
        out["schedule_a"] = [{"path": "".join(c.path), "choice": c.index} for c in cx["schedule_a"]]
        out["schedule_b"] = [{"path": "".join(c.path), "choice": c.index} for c in cx["schedule_b"]]
    info = {
        k: _plain(v)
        for k, v in cx.items()
        if k not in ("case", "inputs", "schedule_a", "schedule_b")
    }
    if info:
        out["info"] = info
    return out


def _plain(x):
    if isinstance(x, (str, int, float, bool)) or x is None:
        return x
    if isinstance(x, (list, tuple)):
        return [_plain(e) for e in x]
    if isinstance(x, dict):
        return {str(k): _plain(v) for k, v in x.items()}
    return repr(x)


def dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2)
