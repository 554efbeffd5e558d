"""Canonical JSON forms for values, deltas, graphs, traces and reports.

Values decode against a known collection type (the graph supplies it), so
the encodings carry no type discriminators. Each language writes and
reads its own form (``to_json``/``from_json``); the forms are:

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
)


class ParseError(FloError):
    pass


# ---------------------------------------------------------------------------
# values: each language writes and reads its own form


def encode_value(v):
    try:
        lang = LANGUAGES[v.lang]
    except (AttributeError, KeyError):
        raise FloError(f"cannot encode {v!r}") from None
    return lang.to_json(v)


def decode_value(j, tag: Tag):
    lang = LANGUAGES.get(tag.language)
    if lang is None:
        raise ParseError(f"no decoder for collection type {tag}")
    try:
        return lang.from_json(j, tag)
    except (KeyError, TypeError, AttributeError) as exc:
        raise ParseError(f"bad value for {tag}: {exc}") from exc


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
    from .graph import FlatGraph, Node, Par, Seq

    if isinstance(p, (Node, Seq, Par, FlatGraph)):
        return encode_graph(p)
    if getattr(p, "lang", None) in LANGUAGES:
        return encode_value(p)
    return p


def encode_graph(e) -> dict:
    """The JSON form of a tree or a compiled graph, written with an explicit
    stack. A right-nested chain of one kind is one n-ary list."""
    from .graph import FlatGraph, Node, Seq

    if isinstance(e, FlatGraph):
        e = e.tree()
    top: list = []
    stack = [(e, top)]  # (subtree, the list its JSON goes into)
    while stack:
        g, into = stack.pop()
        if isinstance(g, Node):
            params = {k: _encode_param(v) for k, v in g.op.params.items()}
            buffers = [encode_value(b) for b in g.buffers]
            into.append({"op": {"name": g.op.name, "params": params, "buffers": buffers}})
            continue
        kind, parts = type(g), []
        while type(g) is kind:
            parts.append(g.left)
            g = g.right
        parts.append(g)
        items: list = []
        into.append({"seq" if kind is Seq else "par": items})
        stack += ((part, items) for part in reversed(parts))
    return top[0]


def decode_graph(j):
    """The tree a JSON graph stands for, built with an explicit stack.

    Operators are pure, so the nodes of one identical ``{"name", "params"}``
    spec share one operator object, built once."""
    from .graph import node, par, seq_chain
    from .opcatalog import build_operator

    built: list = []  # finished subtrees, left to right
    ops: dict = {}  # canonical JSON of a spec's name and params -> its operator
    stack = [(j, False)]  # (JSON graph, its parts built)
    while stack:
        j, expanded = stack.pop()
        key = next((k for k in ("seq", "par", "op") if k in j), None) if isinstance(j, dict) else None
        if key is None or (key != "op" and not isinstance(j[key], list)):
            raise ParseError(f"bad graph {j!r}")
        if key == "op":
            spec = j["op"]
            try:  # a spec that is not an object, lacks a name, or has params or buffers of the wrong shape
                ident = json.dumps([spec["name"], spec.get("params")], sort_keys=True)
                op = ops.get(ident)
                if op is None:
                    op = ops[ident] = build_operator(spec["name"], spec.get("params"))
                buffers = None
                if spec.get("buffers"):
                    buffers = tuple(decode_value(v, st.collection) for v, st in zip(spec["buffers"], op.inputs))
            except (KeyError, TypeError, ValueError, AttributeError) as exc:
                raise ParseError(f"bad operator {spec!r}: {type(exc).__name__}: {exc}") from exc
            built.append(node(op, buffers))
        elif expanded:
            first = len(built) - len(j[key])
            built[first:] = [(seq_chain if key == "seq" else par)(*built[first:])]
        else:
            stack.append((j, True))
            stack += ((part, False) for part in reversed(j[key]))
    return built[0]


# ---------------------------------------------------------------------------
# traces


def _integer(raw, what: str) -> int:
    try:
        return int(raw)
    except (TypeError, ValueError):
        raise ParseError(f"bad {what} {raw!r}") from None


def _count(raw, what: str) -> int:
    n = _integer(raw, what)
    if n < 0:
        raise ParseError(f"bad {what} {raw!r}: must not be negative")
    return n


def decode_trace(j, input_types):
    from .scheduler import DrainAll, DrainNone, DrainPrefix, DrainRandom, InputBatch, TraceStep

    if not isinstance(j, list):
        raise ParseError("trace must be a list of iterations")
    steps = []
    for entry in j:
        if not isinstance(entry, dict):
            raise ParseError(f"bad trace iteration {entry!r}")
        batch = entry.get("batch", [])
        if not isinstance(batch, list):
            raise ParseError(f"bad batch {batch!r}")
        if len(batch) != len(input_types):
            raise ParseError(
                f"batch has {len(batch)} deltas for {len(input_types)} inputs"
            )
        deltas = tuple(
            decode_delta(d, st.collection) for d, st in zip(batch, input_types)
        )
        raw_steps = entry.get("steps", "max")
        budget = None if raw_steps == "max" else _count(raw_steps, "steps")
        drain_spec = entry.get("drain", "none")
        if drain_spec == "all":
            drain = DrainAll()
        elif drain_spec == "none":
            drain = DrainNone()
        elif isinstance(drain_spec, dict) and "prefix" in drain_spec:
            drain = DrainPrefix(_count(drain_spec["prefix"], "drain prefix"))
        elif isinstance(drain_spec, dict) and "random" in drain_spec:
            drain = DrainRandom(_integer(drain_spec["random"], "drain seed"))
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


# Counterexample keys that hold schedules, already as [{"path", "choice"}].
_SCHEDULES = ("schedule_a", "schedule_b", "schedule", "cycle")


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
    for key in _SCHEDULES:
        if key in cx:
            out[key] = cx[key]
    info = {k: _plain(v) for k, v in cx.items() if k not in ("case", "inputs", *_SCHEDULES)}
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
