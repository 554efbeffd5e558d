"""The benchmark under ``bench/`` runs against flo's current names.

``bench/tracer.py`` patches flo's functions by name at run time, so a
renamed function would break ``--trace 1`` without any failing import.
These checks run the benchmark's own self-test and look up every name the
tracer patches.
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
