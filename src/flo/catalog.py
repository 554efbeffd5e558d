"""A small catalog of pure functions usable as operator parameters.

Graph files reference these by name (optionally with parameters), which
keeps program descriptions fully serializable and runs reproducible. Every
entry is total and pure on its declared domain; evaluation failures
surface as FunctionEvalError.

Functions used by the z-set map must be linear in the cardinality
argument, since incremental emission relies on distributing over delta
sums; ``scale`` and ``keep_key_ge`` are the linear entries.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import FloError, FunctionEvalError, ParseError


@dataclass(frozen=True)
class FnEntry:
    name: str
    arity: int
    fn: object
    spec: object  # JSON-able description for replay


def _simple(name, arity, fn):
    return FnEntry(name, arity, fn, name)


_SIMPLE = {
    e.name: e
    for e in [
        _simple("add", 2, lambda a, b: a + b),
        _simple("mul", 2, lambda a, b: a * b),
        _simple("max", 2, lambda a, b: a if a >= b else b),
        _simple("inc", 1, lambda a: a + 1),
        _simple("id", 1, lambda a: a),
        _simple("uppercase", 1, lambda a: a.upper()),
        _simple("singleton", 1, lambda a: frozenset({a})),
        _simple("swap", 1, lambda a: (a[1], a[0])),
    ]
}


def _parameterized(spec: dict) -> FnEntry:
    name = spec["name"]
    if name == "const":
        c = spec["c"]
        return FnEntry("const", 1, lambda _a: c, {"name": "const", "c": c})
    if name == "proj":
        i = spec["i"]
        return FnEntry("proj", 1, lambda a: a[i], {"name": "proj", "i": i})
    if name == "ge":
        c = spec["c"]
        return FnEntry("ge", 1, lambda a: a >= c, {"name": "ge", "c": c})
    if name == "scale":
        c = spec["c"]
        return FnEntry("scale", 2, lambda _k, v: v * c, {"name": "scale", "c": c})
    if name == "keep_key_ge":
        c = spec["c"]
        return FnEntry(
            "keep_key_ge",
            2,
            lambda k, v: v if k >= c else 0,
            {"name": "keep_key_ge", "c": c},
        )
    raise ParseError(f"unknown catalog function {name!r}")


def resolve(fn, arity: int) -> FnEntry:
    """Turn a name, parameter record, or entry into a checked FnEntry."""
    if isinstance(fn, FnEntry):
        entry = fn
    elif isinstance(fn, str):
        if fn not in _SIMPLE:
            raise ParseError(f"unknown catalog function {fn!r}")
        entry = _SIMPLE[fn]
    elif isinstance(fn, dict):
        entry = _parameterized(fn)
    elif callable(fn):
        # Escape hatch for tests; not serializable.
        entry = FnEntry(getattr(fn, "__name__", "fn"), arity, fn, None)
    else:
        raise ParseError(f"cannot resolve function from {fn!r}")
    if entry.arity != arity:
        raise ParseError(f"{entry.name} has arity {entry.arity}, expected {arity}")
    return entry


def call(entry: FnEntry, *args):
    try:
        return entry.fn(*args)
    except FloError:
        raise
    except Exception as exc:
        raise FunctionEvalError(f"{entry.name}{args!r}: {exc}") from exc


def spec_of(entry: FnEntry):
    return entry.spec
