"""Deep composition trees, at the interpreter's default recursion limit.

Every walk of a graph (compiling, typechecking, the type queries, running,
hashing, comparing and printing a tree or a compiled graph, the JSON codec
and the builders) must run without recursion, so graphs far deeper than the
recursion limit work end to end. Compiling takes memory linear in the
tree, a run keeps nothing per leaf beyond its nodes and folds a step only
into the outputs it wrote, and every wire runs forward in tree order.
"""

import gc
import inspect
import json
import tracemalloc

import pytest

from flo import graph as graph_module
from flo import programs
from flo.cli import main
from flo.jsonio import decode_graph, encode_graph
from flo.core import INT, U, ArityMismatch, bottom
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
    step_first,
    trajectory,
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

    fed = set_inputs(flat, (seq(1),) * n_in)
    g2, outs, steps = run_to_stuck(fed, tuple(bottom(st.collection) for st in gt.outputs))
    assert outs == want
    assert steps == len(flat.nodes)
    assert g2.plan is flat.plan and all(n.buffers == (seq(),) for n in g2.nodes)


def test_a_run_keeps_no_rule_chains():
    fed = set_inputs(compile_graph(chain()), (seq(1),))
    outs = (bottom(ST.collection),)
    gc.collect()
    tracemalloc.start()
    try:
        done = run_to_stuck(fed, outs)  # alive while it is measured
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    # A rule chain kept per stepped leaf, as long as the leaf is deep,
    # retained 18.8 MB here.
    assert done[2] == N and retained < 2_000_000
    # Nor does a run through trajectory or step_first, as the rank checker
    # and nest take them: no path or rule chain is worked out.
    for _step in trajectory(fed, cap=10):
        pass
    step_first(fed)
    assert fed.plan.located == [None] * N


def test_a_step_folds_only_into_the_outputs_it_wrote(monkeypatch):
    calls = {"n": 0}
    original = graph_module.concat

    def counting(value, delta):
        calls["n"] += 1
        return original(value, delta)

    monkeypatch.setattr(graph_module, "concat", counting)
    n = 1_000
    g = set_inputs(par(*(node(INC) for _ in range(n))), (seq(1),) * n)
    _, outs, steps = run_to_stuck(g, (bottom(ST.collection),) * n)
    # Folding every step into every output made n concat calls per step.
    assert steps == n and outs == (seq(2),) * n
    assert calls["n"] / steps <= 2


def test_cli_typechecks_a_long_nary_sequence(tmp_path, capsys):
    op = {"op": {"name": "map", "params": {"fn": "inc", "elem": "int", "elem_out": "int", "bound": "U"}}}
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"seq": [op] * N}))
    assert main(["typecheck", str(path)]) == 0
    assert json.loads(capsys.readouterr().out) == {"inputs": ["(seq<int>,U)"], "outputs": ["(seq<int>,U)"]}


@pytest.mark.parametrize("name", sorted(CASES))
def test_deep_graph_round_trips_through_json(name):
    flat = compile_graph(CASES[name][0]())
    again = compile_graph(decode_graph(encode_graph(flat)))
    assert again.plan.shape == flat.plan.shape
    assert [(n.op.name, n.buffers) for n in again.nodes] == [(n.op.name, n.buffers) for n in flat.nodes]


def test_right_nested_chains_encode_as_one_list():
    assert len(encode_graph(chain())["seq"]) == N
    assert len(encode_graph(compile_graph(wide()))["par"]) == N
    # A left-nested part stays a part of its own.
    j = encode_graph(Seq(Seq(node(INC), node(INC)), node(INC)))
    assert [list(part) for part in j["seq"]] == [["seq"], ["op"]]


def test_a_100k_chain_compiles_hashes_compares_and_prints():
    n = 100_000
    nodes = [node(INC) for _ in range(n)]
    flat = compile_graph(seq_chain(*nodes))
    again = compile_graph(seq_chain(*nodes))
    assert flat.plan is not again.plan
    assert flat == again and hash(flat) == hash(again)
    text = repr(flat)
    assert text.startswith("Seq(left=Node(") and text.count("Seq(left=") == n - 1


@pytest.mark.parametrize("build", [seq_chain, par])
def test_a_100k_builder_tree_hashes_compares_and_prints(build):
    n = 100_000
    nodes = [node(INC) for _ in range(n)]
    tree, again = build(*nodes), build(*nodes)
    assert tree is not again and tree == again and hash(tree) == hash(again)
    assert tree != build(*nodes[:-1], node(INC, (seq(1),)))
    text = repr(tree)
    kind = type(tree).__name__
    assert text.startswith(f"{kind}(left=Node(") and text.count(f"{kind}(left=") == n - 1


def test_an_ill_typed_builder_tree_prints_without_compiling():
    leaf = node(INC)
    tree = Seq(Par(leaf, leaf), leaf)  # two outputs feed one input
    with pytest.raises(ArityMismatch):
        compile_graph(tree)
    assert repr(tree) == f"Seq(left=Par(left={leaf!r}, right={leaf!r}), right={leaf!r})"
    assert repr(Par(leaf, "x")) == f"Par(left={leaf!r}, right='x')"


@pytest.mark.parametrize("build", [seq_chain, par])
def test_compiling_takes_memory_linear_in_the_tree(build):
    def retained(n):
        g = build(*(node(INC) for _ in range(n)))
        gc.collect()
        tracemalloc.start()
        try:
            flat = compile_graph(g)  # alive while it is measured
            return tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()

    # Holding a path and a rule chain per leaf made this about 15.
    assert retained(4_000) <= 5 * retained(1_000)


# ---------------------------------------------------------------------------
# wires run forward in tree order


# Arguments for the programs that take some.
PROGRAM_ARGS = {
    "window_fold_pipeline": (3,),
    "lattice_threshold_pipeline": (4,),
    "closure_step_graph": (0,),
    "query_graph": (0, 3),
    "reachability_dynamic": (0, 3),
}


def program_graphs():
    fns = inspect.getmembers(programs, inspect.isfunction)
    return {name: fn(*PROGRAM_ARGS.get(name, ())) for name, fn in fns if fn.__module__ == programs.__name__}


def with_inner_graphs(graphs):
    """Each graph compiled, then every nest inner graph inside it, at any depth."""
    todo, out = list(graphs), []
    while todo:
        g = compile_graph(todo.pop())
        out.append(g)
        todo += [n.op.params[k] for n in g.nodes if n.op.name == "nest" for k in ("graph", "copy") if k in n.op.params]
    return out


def test_every_internal_wire_runs_from_a_leaf_to_a_later_one():
    graphs = list(program_graphs().values())
    assert len(graphs) == 11
    compiled = with_inner_graphs(graphs + [build() for build, _n, _want in CASES.values()])
    assert len(compiled) > len(graphs) + len(CASES)  # the nest inner graphs are in
    for g in compiled:
        for i, ports in enumerate(g.plan.wires):
            assert all(j > i for j, _b in ports if j >= 0), g


@pytest.mark.parametrize("name", sorted(program_graphs()))
def test_compiled_graph_prints_as_its_tree(name):
    tree = program_graphs()[name]
    assert repr(compile_graph(tree)) == repr(tree)
    assert repr(compile_graph(tree)) == repr(compile_graph(tree).tree())
