"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Time bounds are asserted as stated; all comparisons are exact.
"""

import random
import time

from conftest import batch_zset_join, bfs_closure, run_graph

from flo.core import B, BoundednessViolation, INT, Payload, StreamType, TERMINATOR, U
from flo.graph import (
    Par,
    explore_all,
    inputs,
    node,
    out_types,
    run_to_stuck,
    seq_chain,
    set_inputs,
    typecheck,
)
from flo.harness import (
    check_determinism,
    check_eager,
    check_event_loop_equivalence,
    check_progress,
    check_rank_and_preservation,
)
from flo.nested import NestedSeqValue
from flo.opcatalog import REGISTRY, STDLIB_OPERATORS, cases_for
from flo.programs import (
    fold_pipeline,
    lattice_threshold_pipeline,
    reachability_dynamic,
    reachability_fixed,
    scan_pipeline,
    window_fold_pipeline,
)
from flo.scheduler import DrainAll, DrainNone, InputBatch, TraceStep, run_trace
from flo.seq import SeqValue, SingletonNat, scan, seq, seq_filter, seq_map, seq_tag, tee
from flo.sets import edge_tag, set_tag, set_union, sset
from flo.seq import NAT_TAG, fold, forward
from flo.lvar import fold_lattice, thresh
from flo.zset import zset, zset_join, zset_map
from flo.core import bottom


def report(name, ok, elapsed, budget):
    line = f"[{'PASS' if ok else 'FAIL'}] {name}: {elapsed:.2f}s (budget {budget}s)"
    print(line)
    assert ok, line
    assert elapsed < budget, line


def payload(*items, term=False):
    return Payload(SeqValue(term, tuple(reversed(items))))


def test_criterion_1_motivating_examples():
    t0 = time.time()
    trace = [
        TraceStep(InputBatch((payload(1),)), None, DrainNone()),
        TraceStep(InputBatch((payload(2),)), None, DrainNone()),
        TraceStep(InputBatch((payload(3),)), None, DrainNone()),
        TraceStep(InputBatch((TERMINATOR,)), None, DrainNone()),
    ]
    ok = run_trace(fold_pipeline(), trace).totals == (SeqValue(True, (6,)),)

    try:
        typecheck(
            seq_chain(node(seq_map("inc", INT, INT, U)), node(fold(0, "add", INT, INT)))
        )
        ok = False
    except BoundednessViolation:
        pass

    ok = ok and run_trace(scan_pipeline(), trace).totals == (SeqValue(True, (6, 3, 1)),)

    # windowed nested fold with a huge interval equals the plain fold
    wtrace = [
        TraceStep(InputBatch((payload((1, 0), (2, 1), (3, 2), term=True),)), None, DrainNone())
    ]
    (nested_out,) = run_trace(window_fold_pipeline(10_000), wtrace).totals
    plain = run_trace(fold_pipeline(), trace).totals[0]
    ok = ok and nested_out.terminated and len(nested_out.tuples) == 1
    ok = ok and nested_out.tuples[0][0] == plain == SeqValue(True, (6,))

    report("criterion 1: motivating example suite", ok, time.time() - t0, 1.0)


def test_criterion_2_operator_obligations():
    t0 = time.time()
    cases_per_check = 1000
    failures = []
    for name in STDLIB_OPERATORS:
        e = REGISTRY[name]
        r_eager = check_eager(e.op, cases_for(e, "eager", cases_per_check, seed=101))
        r_prog = check_progress(e.op, cases_for(e, "progress", cases_per_check, seed=202))
        r_rank = check_rank_and_preservation(e.op, cases_for(e, "rank", cases_per_check, seed=303))
        for r in (r_eager, r_prog, r_rank):
            if not r.passed:
                failures.append((name, r.prop, r.details))
    if failures:
        print("failures:", failures)
    report(
        f"criterion 2: 19 operators x 3 checks x {cases_per_check} cases",
        not failures,
        time.time() - t0,
        300.0,
    )


def test_criterion_3_negative_fixtures():
    t0 = time.time()
    ok = True

    e = REGISTRY["to_sequence_naive"]
    r = check_eager(e.op, cases_for(e, "eager", 500, seed=5))
    ok = ok and not r.passed and r.counterexample is not None
    # counterexample replays to the same verdict
    ok = ok and not check_eager(e.op, [r.counterexample["case"]]).passed

    for name in ("fold_unbounded", "last_unbounded", "to_sequence_unbounded", "window_unbounded"):
        e = REGISTRY[name]
        r = check_progress(e.op, cases_for(e, "progress", 500, seed=6))
        ok = ok and not r.passed and r.counterexample is not None
        ok = ok and not check_progress(e.op, [r.counterexample["case"]]).passed

    coin = REGISTRY["coin"].op
    r = check_determinism(node(coin), (seq(1),), mode="exhaustive")
    ok = ok and not r.passed
    ok = ok and r.counterexample["schedule_a"] != r.counterexample["schedule_b"]

    report("criterion 3: negative fixtures fail with counterexamples", ok, time.time() - t0, 30.0)


def _confluence_instances():
    """Composed graphs (2-3 operators) with small concrete inputs."""
    mk = []
    for items in [(1,), (1, 2), (1, 2, 3)]:
        mk.append(
            (
                seq_chain(node(seq_map("inc", INT, INT, U)), node(scan(0, "add", INT, INT, U))),
                (seq(*items),),
            )
        )
        mk.append(
            (
                Par(node(seq_map("inc", INT, INT, U)), node(scan(0, "add", INT, INT, U))),
                (seq(*items), seq(*items)),
            )
        )
        mk.append(
            (
                seq_chain(
                    node(seq_map("inc", INT, INT, U)),
                    node(seq_filter({"name": "ge", "c": 2}, INT, U)),
                    node(scan(0, "add", INT, INT, U)),
                ),
                (seq(*items),),
            )
        )
        mk.append(
            (
                seq_chain(node(seq_map("inc", INT, INT, U)), node(tee(seq_tag(INT), U))),
                (seq(*items),),
            )
        )
    for cards in [{1: 1}, {1: 1, 2: -1}, {3: 2, 1: 1}]:
        mk.append(
            (
                seq_chain(
                    Par(
                        node(zset_map({"name": "scale", "c": 2}, INT, U)),
                        node(zset_map({"name": "scale", "c": 3}, INT, U)),
                    ),
                    node(zset_join(INT, U)),
                ),
                (zset(cards), zset(cards)),
            )
        )
    for elems in [(1,), (1, 2), (0, 1, 2)]:
        mk.append(
            (
                seq_chain(
                    Par(node(forward(set_tag(INT), U)), node(forward(set_tag(INT), U))),
                    node(set_union(INT, U)),
                ),
                (sset(elems), sset((9,))),
            )
        )
    for nats in [(99,), (50, 120), (120, 10, 7)]:
        mk.append(
            (
                seq_chain(node(fold_lattice("id", "max_nat", INT, U)), node(thresh("max_nat", (100,), U))),
                (seq(*nats),),
            )
        )
    return mk


def test_criterion_4_graph_confluence():
    t0 = time.time()
    instances = _confluence_instances()
    assert len(instances) >= 20
    ok = True
    total_configs = 0
    for g, ins in instances:
        g = set_inputs(g, ins)
        outs = tuple(bottom(st.collection) for st in out_types(g))
        res = explore_all(g, outs, max_configs=100_000)
        total_configs += res.visited
        if res.capped or len(dict.fromkeys(res.stuck)) != 1:
            ok = False
            print("non-confluent instance:", g, ins)
    report(
        f"criterion 4: exhaustive confluence on {len(instances)} graphs ({total_configs} configs)",
        ok,
        time.time() - t0,
        120.0,
    )


def _chunk(rng, items):
    chunks, i = [], 0
    while i < len(items):
        j = rng.randint(i + 1, len(items))
        chunks.append(items[i:j])
        i = j
    return chunks


def _seq_variants(rng, items, n):
    out = []
    for _ in range(n):
        steps = []
        for chunk in _chunk(rng, items):
            budget = rng.choice([None, None, 1, 3, 0])
            steps.append(TraceStep(InputBatch((payload(*chunk),)), budget, DrainNone()))
        steps.append(TraceStep(InputBatch((TERMINATOR,)), None, DrainAll()))
        out.append(steps)
    return out


def test_criterion_5_event_loop_equivalence():
    t0 = time.time()
    rng = random.Random(55)
    ok = True

    for pipeline in (fold_pipeline(), scan_pipeline()):
        variants = _seq_variants(rng, [1, 2, 3, 4], 25)
        ok = ok and check_event_loop_equivalence(pipeline, variants).passed

    # zset join: random re-chunkings of both sides
    left = {1: 2, 2: -1, 3: 1}
    right = {1: 1, 2: 2, 4: -2}
    variants = []
    for _ in range(25):
        litems, ritems = list(left.items()), list(right.items())
        rng.shuffle(litems)
        rng.shuffle(ritems)
        lchunks = _chunk(rng, litems)
        rchunks = _chunk(rng, ritems)
        steps = []
        for i in range(max(len(lchunks), len(rchunks))):
            lb = Payload(zset(dict(lchunks[i]))) if i < len(lchunks) else Payload(zset({}))
            rb = Payload(zset(dict(rchunks[i]))) if i < len(rchunks) else Payload(zset({}))
            steps.append(TraceStep(InputBatch((lb, rb)), rng.choice([None, 2, 5]), DrainNone()))
        steps.append(TraceStep(InputBatch((TERMINATOR, TERMINATOR)), None, DrainAll()))
        variants.append(steps)
    ok = ok and check_event_loop_equivalence(node(zset_join(INT, U)), variants).passed

    # reachability: edges arrive in random chunks, then the radius
    edges = ((0, 1), (1, 2), (2, 3), (0, 4))
    variants = []
    for _ in range(25):
        e = list(edges)
        rng.shuffle(e)
        steps = []
        for chunk in _chunk(rng, e):
            steps.append(
                TraceStep(
                    InputBatch((Payload(sset(chunk)), Payload(SingletonNat(None, False)))),
                    rng.choice([None, 1, 4]),
                    DrainNone(),
                )
            )
        steps.append(
            TraceStep(InputBatch((TERMINATOR, Payload(SingletonNat(2, True)))), None, DrainNone())
        )
        variants.append(steps)
    ok = ok and check_event_loop_equivalence(reachability_fixed(0), variants).passed

    report("criterion 5: 100 re-chunked traces agree", ok, time.time() - t0, 60.0)


def test_criterion_6_bilinearity():
    t0 = time.time()
    rng = random.Random(66)
    ok = True
    for _ in range(200):
        sides = []
        for _side in range(2):
            total, deltas = {}, []
            for _d in range(rng.randint(1, 6)):
                keys = rng.sample(range(8), rng.randint(0, 4))
                d = {k: rng.choice([-3, -2, -1, 1, 2, 3]) for k in keys}
                deltas.append(d)
                for k, v in d.items():
                    total[k] = total.get(k, 0) + v
            sides.append((deltas, {k: v for k, v in total.items() if v}))
        (ld, lt), (rd, rt) = sides
        g = node(zset_join(INT, U))
        outs = (zset({}),)
        li, ri = 0, 0
        while li < len(ld) or ri < len(rd):
            take_left = li < len(ld) and (ri >= len(rd) or rng.random() < 0.5)
            left_buf, right_buf = inputs(g)
            from flo.core import concat

            if take_left:
                g = set_inputs(g, (concat(left_buf, Payload(zset(ld[li]))), right_buf))
                li += 1
            else:
                g = set_inputs(g, (left_buf, concat(right_buf, Payload(zset(rd[ri])))))
                ri += 1
            if rng.random() < 0.7:
                g, outs, _ = run_to_stuck(g, outs)
        g, outs, _ = run_to_stuck(g, outs)
        if outs[0].as_dict() != batch_zset_join(lt, rt):
            ok = False
            break
    report("criterion 6: 200 incremental joins equal batch joins", ok, time.time() - t0, 10.0)


def random_digraph(rng, max_nodes=12, max_edges=30):
    n = rng.randint(2, max_nodes)
    m = rng.randint(1, max_edges)
    edges = set()
    for _ in range(m):
        edges.add((rng.randrange(n), rng.randrange(n)))
    return tuple(sorted(edges))


def test_criterion_7_reachability():
    t0 = time.time()
    rng = random.Random(77)
    ok = True

    for _ in range(20):
        edges = random_digraph(rng)
        radius = rng.randint(1, 4)
        (out,) = run_graph(
            reachability_fixed(0),
            (sset(edges, fixed=True), SingletonNat(radius, True)),
            budget=100_000,
        )
        if not out.terminated or len(out.tuples) != radius:
            ok = False
            break
        for depth, tup in enumerate(reversed(out.tuples), start=1):
            if tup[0].elems != bfs_closure(edges, 0, depth):
                ok = False
                break

    for _ in range(10):
        edges = random_digraph(rng)
        k1, k2 = rng.randint(1, 3), rng.randint(1, 3)
        g = reachability_dynamic(0, max_iterations=3)
        ein = (StreamType(edge_tag(INT), B),)
        qin = (StreamType(NAT_TAG, B),)
        edges_nested = NestedSeqValue(
            True, ((sset(edges, fixed=True),), (sset(edges, fixed=True),)), ein
        )
        queries = NestedSeqValue(
            True, ((SingletonNat(k2, True),), (SingletonNat(k1, True),)), qin
        )
        (out,) = run_graph(g, (edges_nested, queries), budget=200_000)
        final = out.tuples[0][0].elems
        if final != bfs_closure(edges, 0, k1 + k2):
            ok = False
            break

    report("criterion 7: reachability matches BFS oracles", ok, time.time() - t0, 10.0)


def test_criterion_8_lvar_threshold():
    t0 = time.time()
    rng = random.Random(88)
    ok = True
    for _case in range(10):
        items = [rng.randint(0, 130) for _ in range(rng.randint(1, 6))]
        should_fire = max(items) >= 100
        g0 = lattice_threshold_pipeline(100)
        g0 = set_inputs(g0, (seq(*items, terminated=True),))
        outs0 = tuple(bottom(st.collection) for st in out_types(g0))
        for s in range(100):
            sched_rng = random.Random(s)

            def picker(n):
                return sched_rng.randrange(n)

            _, outs, _ = run_to_stuck(g0, outs0, picker=picker)
            fired = 100 in outs[0].items
            if fired != should_fire or not outs[0].terminated:
                ok = False
                break
        if not ok:
            break
    report("criterion 8: threshold fires exactly on reaching 100", ok, time.time() - t0, 10.0)
