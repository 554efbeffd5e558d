"""Deep composition trees, at the interpreter's default recursion limit.

Every tree walk (compiling, typechecking, the type queries, rebuilding the
tree after a run and the builders) must run without recursion, so graphs
far deeper than the recursion limit work end to end.
"""

import json

import pytest

from flo.cli import main
from flo.core import INT, U, bottom
from flo.graph import (
    Par,
    Seq,
    compile_graph,
    in_types,
    node,
    out_types,
    par,
    run_to_stuck,
    seq_chain,
    set_inputs,
    typecheck,
)
from flo.seq import seq, seq_map, seq_tag, tee

N = 2_000

INC = seq_map("inc", INT, INT, U)
TEE = tee(seq_tag(INT), U)
ST = INC.inputs[0]


def chain():
    return seq_chain(*(node(INC) for _ in range(N)))


def wide():
    return par(*(node(INC) for _ in range(N)))


def mixed():
    # X_k = Seq(tee, Par(map, X_{k-1})): two tree levels per k, one output per map.
    g = node(INC)
    for _ in range(N // 2):
        g = Seq(node(TEE), Par(node(INC), g))
    return g


# (builder, number of inputs, expected outputs for one item 1 per input)
CASES = {
    "chain": (chain, 1, (seq(N + 1),)),
    "par": (wide, N, (seq(2),) * N),
    "mixed": (mixed, 1, (seq(2),) * (N // 2 + 1)),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_deep_graph_end_to_end(name):
    build, n_in, want = CASES[name]
    g = build()
    gt = typecheck(g)
    assert gt.inputs == (ST,) * n_in
    assert gt.outputs == (ST,) * len(want)

    flat = compile_graph(g)
    copy = compile_graph(build())
    assert flat.plan is not copy.plan
    assert flat == copy and hash(flat) == hash(copy)
    assert in_types(flat) == gt.inputs and out_types(flat) == gt.outputs

    fed = set_inputs(flat, (seq(1),) * n_in).tree()
    g2, outs, steps = run_to_stuck(fed, tuple(bottom(st.collection) for st in gt.outputs))
    assert outs == want
    assert steps == len(flat.nodes)
    assert type(g2) is type(g)


def test_cli_typechecks_a_long_nary_sequence(tmp_path, capsys):
    op = {"op": {"name": "map", "params": {"fn": "inc", "elem": "int", "elem_out": "int", "bound": "U"}}}
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"seq": [op] * N}))
    assert main(["typecheck", str(path)]) == 0
    assert json.loads(capsys.readouterr().out) == {"inputs": ["(seq<int>,U)"], "outputs": ["(seq<int>,U)"]}
