"""The benchmark under ``bench/`` runs against flo's current names.

``bench/tracer.py`` patches flo's functions by name at run time, so a
renamed function would break ``--trace 1`` without any failing import.
These checks run the benchmark's own self-test, look up every name the
tracer patches, and check that ``nest`` still takes each inner step
through a name the tracer rebinds.
"""

import os
import subprocess
import sys
from pathlib import Path

from flo import gen, graph, harness, jsonio, scheduler

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"


def _listing(path: Path) -> dict:
    if not path.is_dir():
        return {}
    return {p.name: p.stat().st_mtime_ns for p in path.iterdir()}


def test_bench_self_test_passes_and_writes_no_records():
    before = _listing(BENCH / "out")
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--self-test"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert "[FAIL]" not in done.stdout
    assert _listing(BENCH / "out") == before


def test_every_name_the_tracer_patches_exists():
    sys.path.insert(0, str(BENCH))
    try:
        import tracer
    finally:
        sys.path.remove(str(BENCH))
    wanted = [(graph, name) for name in tracer.GRAPH_FUNCS]
    wanted += [(harness, name) for name in tracer.HARNESS_FUNCS]
    wanted += [(jsonio, name) for name in tracer.JSONIO_FUNCS]
    wanted += [(scheduler, name) for name in ("loop_iteration", "drain_value", "recombine")]
    wanted += [(gen, name) for name in ("gen_value", "gen_delta")]
    missing = [f"{mod.__name__}.{name}" for mod, name in wanted if not callable(getattr(mod, name, None))]
    assert missing == []


def test_the_tracer_sees_every_inner_step_first_call(monkeypatch):
    # The tracer counts ``graph.step_first.calls`` by rebinding every flo
    # module's name for the function; a nest step that stopped calling it by
    # that name would read 0 there without failing anything else.
    from flo.core import OperatorDef, Push
    from flo.nested import RUNNING_PHASE
    from flo.programs import reachability_dynamic
    from flo.scheduler import InputBatch, RoundRobin, TraceStep, run_trace
    from flo.seq import SingletonNat
    from flo.sets import sset

    calls = {"step_first": 0, "hits": 0, "running": 0, "run_graph": 0}
    original = graph.step_first

    def counting(e):
        calls["step_first"] += 1
        hit = original(e)
        calls["hits"] += hit is not None
        return hit

    for name, mod in list(sys.modules.items()):
        if name == "flo" or name.startswith("flo."):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, counting)
    steps = OperatorDef.steps

    def nest_steps(self, buffers, state, exhaustive=False):
        out = steps(self, buffers, state, exhaustive)
        if self.name == "nest" and not exhaustive and state.phase == RUNNING_PHASE and buffers[0].tuples:
            calls["running"] += 1
            calls["run_graph"] += sum(r.rule == "nest-run-graph" for r in out)
        return out

    monkeypatch.setattr(OperatorDef, "steps", nest_steps)
    edges = sset([(0, 1), (1, 2), (2, 3), (3, 0)], fixed=True)
    trace = [TraceStep(InputBatch((Push((edges,)), Push((SingletonNat(2, True),)))), None)]
    (out,) = run_trace(reachability_dynamic(0, 3), trace, RoundRobin()).totals
    assert out.tuples[0][0].elems == frozenset({0, 1, 2})
    assert calls["hits"] == calls["run_graph"] > 0
    assert calls["step_first"] == calls["running"]
