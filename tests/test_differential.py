"""The compiled engine against the tree-walking reference in ``reference_engine``.

Both engines are driven from the same seeded inputs and schedules, feeding
new deltas between bounded runs as the event loop does. Their step logs,
outputs and graphs must agree after every run, and exceptions must match.
"""

import random

import pytest

import reference_engine as ref
from flo import programs
from flo.core import bottom, concat
from flo.gen import gen_delta, gen_value
from flo.graph import as_tree, compile_graph, explore_all, in_types, inputs, node, out_types, run_steps, set_inputs
from flo.opcatalog import REGISTRY
from flo.scheduler import RandomSched, RoundRobin, make_picker
from flo.seq import seq

PROGRAMS = {
    "fold_pipeline": programs.fold_pipeline,
    "scan_pipeline": programs.scan_pipeline,
    "window_fold_pipeline": lambda: programs.window_fold_pipeline(3),
    "lattice_threshold_pipeline": lambda: programs.lattice_threshold_pipeline(4),
    "zset_mix_pipeline": programs.zset_mix_pipeline,
    "closure_step_graph": lambda: programs.closure_step_graph(0),
    "reachability_fixed": programs.reachability_fixed,
    "bootstrapped_closure_graph": programs.bootstrapped_closure_graph,
    "query_graph": lambda: programs.query_graph(0, 3),
    "reachability_dynamic": lambda: programs.reachability_dynamic(0, 3),
    "five_node_graph": programs.five_node_graph,
}
SUBJECTS = dict(PROGRAMS)
for _name, _entry in REGISTRY.items():
    SUBJECTS[f"op:{_name}"] = lambda e=_entry: node(e.op_eager)
    if _entry.op_progress is not _entry.op_eager:
        SUBJECTS[f"op:{_name}:progress"] = lambda e=_entry: node(e.op_progress)

SCHEDULES = [RoundRobin(), RandomSched(1), RandomSched(2), RandomSched(3)]
ROUNDS = 8  # feeds between bounded runs; the last one runs to stuck


def _outcome(run):
    try:
        return run()
    except Exception as exc:  # both engines must fail the same way
        return type(exc).__name__, str(exc)


@pytest.mark.parametrize("sched", SCHEDULES, ids=str)
@pytest.mark.parametrize("name", sorted(SUBJECTS))
def test_compiled_engine_matches_reference(name, sched):
    g = SUBJECTS[name]()
    types = in_types(g)
    rng = random.Random(f"{name}/{sched}")
    g = set_inputs(g, tuple(gen_value(st.collection, rng) for st in types))
    flat, tree = compile_graph(g), g
    outs = tuple(bottom(st.collection) for st in out_types(g))
    flat_outs, tree_outs = outs, outs
    pick_flat, pick_tree = make_picker(sched), make_picker(sched)
    for iteration in range(ROUNDS):
        if iteration:
            deltas = tuple(gen_delta(st.collection, rng, b) for st, b in zip(types, ref.inputs(tree)))
            flat = set_inputs(flat, tuple(concat(b, d) for b, d in zip(inputs(flat), deltas)))
            tree = ref.set_inputs(tree, tuple(concat(b, d) for b, d in zip(ref.inputs(tree), deltas)))
        cap = 500 if iteration == ROUNDS - 1 else rng.randint(0, 12)
        flat_log, tree_log = [], []
        got = _outcome(lambda: run_steps(flat, flat_outs, pick_flat, cap, flat_log, iteration)[:2])
        want = _outcome(lambda: ref.run_steps(tree, tree_outs, pick_tree, cap, tree_log, iteration))
        assert [ev.as_dict() for ev in flat_log] == tree_log
        if isinstance(want[0], str):
            assert got == want
            return
        (flat, flat_outs), (tree, tree_outs) = got, want
        assert flat_outs == tree_outs
        assert as_tree(flat) == tree and flat == compile_graph(tree)


@pytest.mark.parametrize("n", [2, 4])
def test_explore_all_matches_reference(n):
    g = set_inputs(
        programs.five_node_graph(),
        (seq(*range(n)), seq(*[(0 if i % 2 else 5) for i in range(n)])),
    )
    outs = tuple(bottom(st.collection) for st in out_types(g))
    res = explore_all(g, outs)
    visited, stuck, parents = ref.explore_all(g, outs)
    assert res.visited == visited and not res.capped
    assert set(res.stuck) == set(stuck)
    assert sorted(len(res.path_to(c)) for c in res.stuck) == sorted(
        len(ref.path_to(parents, c)) for c in stuck
    )
