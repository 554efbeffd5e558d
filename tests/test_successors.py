"""``successors`` against the tree-walking reference in ``reference_engine``.

Every configuration the explorer visits from a few seeded inputs, up to a
cap, is stepped both ways in both step modes: by the compiled engine's one
successor function, and by the reference listing the steps and then taking
each one. The choices must come in the same order, naming the same leaf and
index, and each must lead to an equal graph with equal output deltas. Fast
mode is how ``check_eager`` steps; exhaustive mode is how the explorer, the
lasso and ``nest``'s exhaustive branch step.
"""

import random

import pytest

import reference_engine as ref
from flo.core import bottom
from flo.gen import gen_value
from flo.graph import compile_graph, explore_all, in_types, out_types, successors
from test_differential import SUBJECTS

DRAWS = 8  # seeded input draws per subject
MAX_CONFIGS = 25  # per draw
NEVER_STEP = {"op:write_defer"}  # a sink that only accumulates for nest to harvest


@pytest.mark.parametrize("name", sorted(SUBJECTS))
def test_successors_match_the_reference(name):
    g = SUBJECTS[name]()
    rng = random.Random(f"{name}/successors")
    outs = tuple(bottom(st.collection) for st in out_types(g))
    compared = 0
    for _ in range(DRAWS):
        start = ref.set_inputs(g, tuple(gen_value(st.collection, rng) for st in in_types(g)))
        for flat, _outs in explore_all(start, outs, max_configs=MAX_CONFIGS).parents:
            tree = flat.tree()
            for exhaustive in (False, True):
                got = [
                    (flat.plan.where(ch.leaf)[0], ch.index, g2, deltas)
                    for ch, g2, deltas in successors(flat, exhaustive)
                ]
                want = []
                for ch in ref.enabled_steps(tree, exhaustive):
                    tree2, deltas, _rules = ref.step_graph(tree, ch, exhaustive)
                    want.append(("".join(ch.path), ch.index, compile_graph(tree2), deltas))
                assert got == want
                compared += len(got)
    assert compared or name in NEVER_STEP
