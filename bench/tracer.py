"""Span tracing of flo's layers, installed at run time from outside the package.

``Tracer.install`` replaces the public functions of each module with
wrappers that record one span per call: name, start, end, parent span and
the request (batch, query or check) being served. The program's files are
left untouched, and ``uninstall`` puts every original back.

A name bound with ``from .graph import step_first`` is a separate global
in each importing module, so every flo module (and any extra module
given) that holds the original object gets the wrapper. A function that
calls itself (``step_first``, ``inputs``, ``set_inputs``) records only its
outermost call: a call whose parent span has the same name runs
unrecorded inside that span.

Spans stay in memory, in flat arrays, until ``write`` saves them.
"""

from __future__ import annotations

import json
import sys
import time
from array import array

# per-span flag bits
OUTER = 1  # no enclosing span of the same name
IN_OP = 2  # inside an operator's steps or rank (not a top-level graph call)

GRAPH_FUNCS = (
    "enabled_steps",
    "step_graph",
    "step_first",
    "inputs",
    "set_inputs",
    "out_arity",
    "typecheck",
    "explore_all",
)
HARNESS_FUNCS = (
    "check_eager",
    "check_progress",
    "check_rank_and_preservation",
    "check_determinism",
)
JSONIO_FUNCS = ("decode_graph", "decode_trace", "decode_value", "decode_delta")


def _module_layer(qualname: str) -> str:
    return qualname.rsplit(".", 1)[-1]


class Tracer:
    def __init__(self):
        self.names: list = []
        self.ids: dict = {}
        self.s_name = array("i")
        self.s_t0 = array("d")
        self.s_t1 = array("d")
        self.s_parent = array("q")
        self.s_req = array("q")
        self.s_flags = array("b")
        self.s_out = array("q")
        self.stack: list = []
        self.active: list = []  # per name id: enclosing spans of that name
        self.counts: dict = {}  # counting-only wrappers
        self.request = -1
        self.op_depth = 0
        self._undo: list = []

    # -- recording ---------------------------------------------------------

    def name_id(self, name: str) -> int:
        nid = self.ids.get(name)
        if nid is None:
            nid = self.ids[name] = len(self.names)
            self.names.append(name)
            self.active.append(0)
        return nid

    def wrap(self, fn, name=None, name_of=None, outcome=None, op_scope=False):
        """A recording wrapper; ``name_of(args)`` names spans per call when given."""
        fixed = None if name is None else self.name_id(name)
        names, t0s, t1s = self.s_name, self.s_t0, self.s_t1
        parents, reqs, flags, outs = self.s_parent, self.s_req, self.s_flags, self.s_out
        stack, active, clock, tracer = self.stack, self.active, time.perf_counter, self

        def wrapper(*args, **kwargs):
            nid = fixed if name_of is None else name_of(args)
            if stack and names[stack[-1]] == nid:
                return fn(*args, **kwargs)
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            reqs.append(tracer.request)
            flags.append((OUTER if not active[nid] else 0) | (IN_OP if tracer.op_depth else 0))
            outs.append(0)
            t1s.append(0.0)
            stack.append(idx)
            active[nid] += 1
            if op_scope:
                tracer.op_depth += 1
            t0s.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                t1s[idx] = clock()
                stack.pop()
                active[nid] -= 1
                if op_scope:
                    tracer.op_depth -= 1
            if outcome is not None:
                outs[idx] = outcome(result)
            return result

        return wrapper

    def counter(self, fn, name):
        counts = self.counts
        counts[name] = 0

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installing --------------------------------------------------------

    def _rebind(self, modules, original, replacement):
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)
                    self._undo.append((setattr, mod, attr, original))

    def install(self, extra_modules=()):
        from flo import core, gen, graph, harness, jsonio, scheduler

        modules = [m for n, m in list(sys.modules.items()) if n == "flo" or n.startswith("flo.")]
        modules += list(extra_modules)

        def patch(module, func, name, **kw):
            original = getattr(module, func)
            self._rebind(modules, original, self.wrap(original, name, **kw))

        for func in ("loop_iteration", "drain_value", "recombine"):
            patch(scheduler, func, f"scheduler.{func}")
        patch(graph, "step_first", "graph.step_first", outcome=lambda r: r is not None)
        patch(graph, "explore_all", "graph.explore_all", outcome=lambda r: r.visited)
        for func in GRAPH_FUNCS:
            if func not in ("step_first", "explore_all"):
                patch(graph, func, f"graph.{func}")
        for func in HARNESS_FUNCS:
            patch(harness, func, f"harness.{func}", outcome=lambda r: r.cases)
        for func in ("gen_value", "gen_delta"):
            patch(gen, func, f"gen.{func}")
        for func in JSONIO_FUNCS:
            patch(jsonio, func, f"jsonio.{func}")
        self._rebind(modules, core.concat, self.counter(core.concat, "core.concat"))

        # Operators: one span name per operator, under the module that defines it.
        op_ids: dict = {}

        def op_name(kind):
            def name_of(args):
                op = args[0]
                key = (op.name, kind)
                nid = op_ids.get(key)
                if nid is None:
                    layer = _module_layer(op.steps_fn.__module__)
                    suffix = "" if kind == "steps" else ".rank"
                    nid = op_ids[key] = self.name_id(f"{layer}.op.{op.name}{suffix}")
                return nid

            return name_of

        op_cls = core.OperatorDef
        for kind, outcome in (("steps", len), ("rank", None)):
            original = getattr(op_cls, kind)
            setattr(op_cls, kind, self.wrap(original, name_of=op_name(kind), outcome=outcome, op_scope=True))
            self._undo.append((setattr, op_cls, kind, original))

        # Each registered language's concat, on the instance.
        for lang in core.LANGUAGES.values():
            layer = _module_layer(type(lang).__module__)
            size = (lambda r: len(r.items)) if lang.name == "seq" else None
            lang.concat = self.wrap(lang.concat, f"{layer}.concat", outcome=size)
            self._undo.append((delattr, lang, "concat"))

    def uninstall(self):
        while self._undo:
            action, *target = self._undo.pop()
            action(*target)

    # -- reading -----------------------------------------------------------

    def write(self, path: str):
        """Save the spans: one JSON header line, then the raw arrays in order.

        The header names the arrays, their ``array`` typecodes and the span
        count; ``array(code).fromfile(fh, count)`` reads each one back.
        """
        arrays = (self.s_name, self.s_t0, self.s_t1, self.s_parent, self.s_req, self.s_flags, self.s_out)
        header = {
            "names": self.names,
            "spans": len(self.s_name),
            "arrays": ["name", "t0", "t1", "parent", "request", "flags", "outcome"],
            "typecodes": [a.typecode for a in arrays],
            "counts": self.counts,
        }
        with open(path, "wb") as fh:
            fh.write((json.dumps(header) + "\n").encode())
            for a in arrays:
                a.tofile(fh)


class Summary:
    """Per-name call counts, inclusive and self times, and the raw relations."""

    def __init__(self, tr: Tracer):
        self.tr = tr
        n = len(tr.s_name)
        names, parents = tr.s_name, tr.s_parent
        dur = [b - a for a, b in zip(tr.s_t0, tr.s_t1)]
        child = [0.0] * n
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += dur[i]
        k = len(tr.names)
        self.calls = [0] * k
        self.inclusive = [0.0] * k  # outermost spans of each name
        self.self_time = [0.0] * k
        flags = tr.s_flags
        for i in range(n):
            nid = names[i]
            self.calls[nid] += 1
            if flags[i] & OUTER:
                self.inclusive[nid] += dur[i]
            self.self_time[nid] += dur[i] - child[i]
        self.dur = dur

    def _ids(self, names):
        return [self.tr.ids[n] for n in names if n in self.tr.ids]

    def n_calls(self, *names) -> int:
        return sum(self.calls[i] for i in self._ids(names))

    def incl(self, *names) -> float:
        return sum(self.inclusive[i] for i in self._ids(names))

    def self_s(self, *names) -> float:
        return sum(self.self_time[i] for i in self._ids(names))

    def group_total(self, names) -> float:
        """Time in a group of names, counting a span only when its parent is outside it."""
        ids = set(self._ids(names))
        tr, total = self.tr, 0.0
        for i, nid in enumerate(tr.s_name):
            if nid in ids:
                p = tr.s_parent[i]
                if p < 0 or tr.s_name[p] not in ids:
                    total += self.dur[i]
        return total

    def where(self, name, pred) -> list:
        """Span indices of ``name`` that satisfy ``pred(index)``."""
        nid = self.tr.ids.get(name)
        if nid is None:
            return []
        return [i for i, x in enumerate(self.tr.s_name) if x == nid and pred(i)]
