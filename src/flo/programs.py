"""Ready-made pipelines used by the demos and the acceptance suite.

The reachability programs wire the set operators around nested graphs:

* fixed radius: repeat the edge set k times into a nested stream, then run
  one closure expansion per inner stream, carrying the reached set across
  iterations through a defer pair;
* dynamic radius: an outer nested graph per query, where the previous
  query's final reached set bootstraps the next one through an outer defer
  pair, injected into iteration zero via nest_once and zip.
"""

from __future__ import annotations

from .core import B, INT, StreamType, U
from .graph import Par, node, seq_chain
from .lvar import fold_lattice, thresh
from .nested import make_nest, read_defer, write_defer
from .seq import NAT_TAG, fold, forward, last, scan, seq_filter, seq_map, tee, window
from .sets import (
    edge_join,
    edge_tag,
    nest_once,
    repeat_nested,
    set_tag,
    set_union,
    sset,
    zip_nested,
)
from .zset import zset_join, zset_map


def fold_pipeline():
    """Sum a bounded stream of numbers into a single-value stream."""
    return node(fold(0, "add", INT, INT))


def scan_pipeline(bound=U):
    """Running sums."""
    return node(scan(0, "add", INT, INT, bound))


def window_fold_pipeline(interval: int):
    """Aggregate each timestamp window with a nested fold."""
    inner = node(fold(0, "add", INT, INT))
    return seq_chain(node(window(interval, INT)), node(make_nest(inner, outer_bound=B)))


def lattice_threshold_pipeline(threshold: int, bound=U):
    """Running max over naturals, read through a threshold event."""
    return seq_chain(
        node(fold_lattice("id", "max_nat", INT, bound)),
        node(thresh("max_nat", (threshold,), bound)),
    )


def zset_mix_pipeline():
    """Two scaled z-set streams joined and rescaled; four operators."""
    return seq_chain(
        Par(
            node(zset_map({"name": "scale", "c": 2}, INT, U)),
            node(zset_map({"name": "scale", "c": 3}, INT, U)),
        ),
        node(zset_join(INT, U)),
        node(zset_map({"name": "scale", "c": 1}, INT, U)),
    )


def closure_step_graph(root: int):
    """One reachability expansion: new = reached union destinations(reached).

    The reached set enters through read_defer("reached"), seeded with the
    root, and the expanded set is written back for the next iteration.
    Graph input: the iteration's edge set.
    """
    t = set_tag(INT)
    stage1 = Par(
        seq_chain(node(read_defer("reached", t, sset((root,), fixed=True))), node(tee(t, B))),
        node(forward(edge_tag(INT), B)),
    )
    stage2 = Par(node(forward(t, B)), node(edge_join(INT, B)))
    stage3 = node(set_union(INT, B))
    stage4 = node(tee(t, B))
    stage5 = Par(node(forward(t, B)), node(write_defer("reached", t)))
    return seq_chain(stage1, stage2, stage3, stage4, stage5)


def reachability_fixed(root: int = 0):
    """Nodes within a fixed radius: inputs (edge set, radius singleton)."""
    inner = closure_step_graph(root)
    return seq_chain(node(repeat_nested(edge_tag(INT))), node(make_nest(inner, outer_bound=B)))


def bootstrapped_closure_graph():
    """Closure expansion with the starting set injected from outside.

    Like closure_step_graph, but the reached set starts empty, and a
    bootstrap node set arrives as an extra input (nest_once upstream puts
    it in iteration zero only). Graph inputs: (bootstrap nodes, edge set).
    """
    t = set_tag(INT)
    et = edge_tag(INT)
    stage0 = Par(
        node(read_defer("reached", t, sset((), fixed=True))),
        Par(node(forward(t, B)), node(forward(et, B))),
    )
    stage1 = Par(node(set_union(INT, B)), node(forward(et, B)))
    stage2 = Par(node(tee(t, B)), node(forward(et, B)))
    stage3 = Par(node(forward(t, B)), node(edge_join(INT, B)))
    stage4 = node(set_union(INT, B))
    stage5 = node(tee(t, B))
    stage6 = Par(node(forward(t, B)), node(write_defer("reached", t)))
    return seq_chain(stage0, stage1, stage2, stage3, stage4, stage5, stage6)


def query_graph(root: int, max_iterations: int):
    """One radius-extension query: inputs (edge set, extension count).

    Repeats the edge set per iteration, pairs it with the bootstrap set
    (previous query's result, via the "boot" defer pair), runs the
    bootstrapped closure, and outputs the final reached set.
    """
    t = set_tag(INT)
    et = edge_tag(INT)
    inner_nest = make_nest(bootstrapped_closure_graph(), outer_bound=B)
    nested_out = inner_nest.outputs[0].collection
    boot_src = seq_chain(
        node(read_defer("boot", t, sset((root,), fixed=True))),
        node(nest_once(t, B, limit=max_iterations)),
    )
    rep = node(repeat_nested(et))
    return seq_chain(
        Par(boot_src, rep),
        node(zip_nested((StreamType(t, B),), (StreamType(et, B),), B)),
        node(inner_nest),
        node(last(nested_out)),
        node(tee(t, B)),
        Par(node(forward(t, B)), node(write_defer("boot", t))),
    )


def reachability_dynamic(root: int, max_iterations: int):
    """Radius-extending queries: inputs are two nested streams (per-query
    edge sets and per-query extension counts), zipped pairwise."""
    outer = make_nest(query_graph(root, max_iterations), outer_bound=B)
    return seq_chain(
        node(
            zip_nested(
                (StreamType(edge_tag(INT), B),),
                (StreamType(NAT_TAG, B),),
                B,
            )
        ),
        node(outer),
    )


def five_node_graph():
    """The composition shape used for exhaustive determinism checks."""
    return seq_chain(
        Par(
            seq_chain(node(seq_map("inc", INT, INT, U)), node(scan(0, "add", INT, INT, U))),
            node(seq_filter({"name": "ge", "c": 2}, INT, U)),
        ),
        Par(node(seq_map("inc", INT, INT, U)), node(seq_map("inc", INT, INT, U))),
    )
