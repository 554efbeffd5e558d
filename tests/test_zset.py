"""Z-sets: canonical forms, linear map, incremental join vs batch oracle."""

import random

from hypothesis import given, settings, strategies as st

from conftest import batch_zset_join, run_op

from flo.core import INT, Payload, TERMINATOR, concat
from flo.graph import node, run_to_stuck, set_inputs
from flo import zset as zset_module
from flo.zset import JoinState, ZSetValue, add_cards, zset, zset_join, zset_map


def test_zero_entries_canonicalized_away():
    assert zset({"a": 0, "b": 2}) == zset({"b": 2})
    assert zset({}) == ZSetValue((), False)


def test_concat_adds_cardinalities():
    out = concat(zset({"a": 1}), Payload(zset({"a": 2, "b": -1})))
    assert out == zset({"a": 3, "b": -1})


def test_concat_cancellation_removes_key():
    out = concat(zset({"a": 1}), Payload(zset({"a": -1})))
    assert out == zset({})


def test_terminator_fixes():
    assert concat(zset({"a": 1}), TERMINATOR) == zset({"a": 1}, True)


def test_map_scales_cardinality():
    (out,) = run_op(zset_map({"name": "scale", "c": 3}, INT), zset({4: 2}))
    assert out == zset({4: 6})


def test_map_retraction_flows_linearly():
    (out,) = run_op(zset_map({"name": "scale", "c": 3}, INT), zset({4: -1}))
    assert out == zset({4: -3})


def test_map_terminated_empty_forwards_terminator():
    (out,) = run_op(zset_map({"name": "scale", "c": 3}, INT), zset({}, True))
    assert out == zset({}, True)


def test_join_incremental_matches_spec_example():
    # Stored ({x:1},{x:3}); then a left delta {x:1} arrives: emits {x:3},
    # and the cumulative output equals the batch join {x:2} * {x:3} = {x:6}.
    op = zset_join(INT)
    g = node(op, (zset({"x": 1}), zset({"x": 3})))
    g, outs, _ = run_to_stuck(g, (zset({}),))
    assert outs == (zset({"x": 3}),)
    g = set_inputs(g, (zset({"x": 1}), zset({})))
    g, outs, _ = run_to_stuck(g, outs)
    assert outs == (zset({"x": 6}),)
    assert outs[0].as_dict() == batch_zset_join({"x": 2}, {"x": 3})


def test_join_terminates_when_both_fixed_and_empty():
    (out,) = run_op(zset_join(INT), zset({}, True), zset({}, True))
    assert out == zset({}, True)


small_zsets = st.dictionaries(st.integers(0, 5), st.integers(-3, 3).filter(bool), max_size=6)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(a=small_zsets, b=small_zsets, a2=small_zsets, b2=small_zsets)
def test_join_bilinearity(a, b, a2, b2):
    # (a+a') join (b+b') == a*b + a'*b + a*b' + a'*b'
    whole = batch_zset_join(add_cards(a, a2), add_cards(b, b2))
    parts = add_cards(
        add_cards(batch_zset_join(a, b), batch_zset_join(a2, b)),
        add_cards(batch_zset_join(a, b2), batch_zset_join(a2, b2)),
    )
    assert whole == parts


def incremental_join_totals(deltas_left, deltas_right, seed=0):
    """Feed deltas in random interleaving; return the summed join output."""
    rng = random.Random(seed)
    op = zset_join(INT)
    g = node(op)
    outs = (zset({}),)
    pending = [("L", d) for d in deltas_left] + [("R", d) for d in deltas_right]
    rng.shuffle(pending)
    for side, d in pending:
        left, right = g.buffers
        if side == "L":
            g = set_inputs(g, (concat(left, Payload(zset(d))), right))
        else:
            g = set_inputs(g, (left, concat(right, Payload(zset(d)))))
        g, outs, _ = run_to_stuck(g, outs)
    return outs[0].as_dict()


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    left=st.lists(small_zsets, min_size=1, max_size=5),
    right=st.lists(small_zsets, min_size=1, max_size=5),
    seed=st.integers(0, 10_000),
)
def test_incremental_join_equals_batch(left, right, seed):
    totals = incremental_join_totals(left, right, seed)
    whole_left: dict = {}
    for d in left:
        whole_left = add_cards(whole_left, d)
    whole_right: dict = {}
    for d in right:
        whole_right = add_cards(whole_right, d)
    assert totals == batch_zset_join(whole_left, whole_right)


def test_add_cards_drops_cancelled_keys():
    assert add_cards({1: 2, 2: 1}, {1: -2, 3: 0, 4: 5}) == {2: 1, 4: 5}


def drain_once(op, state, left, right, choice=0):
    r = op.steps((left, right), state, True)[choice]
    return r.state, r.buffers, r.deltas[0].value


def test_join_state_equality_ignores_insertion_order():
    op = zset_join(INT)
    ab, _, _ = drain_once(op, op.initial_state, zset({1: 2, 2: -1}), zset({}), choice=1)
    ab, _, _ = drain_once(op, ab, zset({2: -1}), zset({}))
    ba, _, _ = drain_once(op, op.initial_state, zset({1: 2, 2: -1}), zset({}), choice=2)
    ba, _, _ = drain_once(op, ba, zset({1: 2}), zset({}))
    assert list(ab.seen_left) != list(ba.seen_left)  # inserted in different orders
    assert ab == ba and hash(ab) == hash(ba)
    assert len({ab, ba, JoinState({2: -1, 1: 2}, {}, False)}) == 1
    assert ab != JoinState({1: 2}, {}, False)


def keywise_sum(a: dict, b: dict) -> dict:
    """Oracle for add_cards: sum every key, then drop the zeros."""
    keys = set(a) | set(b)
    return {k: a.get(k, 0) + b.get(k, 0) for k in keys if a.get(k, 0) + b.get(k, 0)}


def test_random_drains_keep_stored_sides_equal_to_sums():
    # Canonical and single-key drains in a seeded random order, with
    # retractions that cancel stored keys exactly to zero.
    rng = random.Random(20)
    op = zset_join(INT)
    state, bufs = op.initial_state, (zset({}), zset({}))
    fed = [{}, {}]
    emitted: dict = {}
    cancelled = 0
    for _ in range(400):
        side = rng.randrange(2)
        if fed[side] and rng.random() < 0.3:
            k = rng.choice(sorted(fed[side]))
            d = {k: -fed[side][k]}
            cancelled += 1
        else:
            d = {rng.randrange(8): rng.choice((-2, -1, 1, 2)) for _ in range(rng.randint(1, 3))}
        fed[side] = keywise_sum(fed[side], d)
        bufs = tuple(concat(b, Payload(zset(d))) if i == side else b for i, b in enumerate(bufs))
        if rng.random() < 0.6:
            outcomes = op.steps(bufs, state, True)
            if outcomes:
                r = rng.choice(outcomes)
                state, bufs = r.state, r.buffers
                emitted = keywise_sum(emitted, r.deltas[0].value.as_dict())
        for seen, buf, total in zip((state.seen_left, state.seen_right), bufs, fed):
            assert keywise_sum(seen, buf.as_dict()) == total
            assert 0 not in seen.values()
    while bufs[0].cards or bufs[1].cards:
        state, bufs, out = drain_once(op, state, *bufs)
        emitted = keywise_sum(emitted, out.as_dict())
    assert cancelled > 20
    assert (state.seen_left, state.seen_right) == tuple(fed)
    assert 0 not in state.seen_left.values() and 0 not in state.seen_right.values()
    assert emitted == batch_zset_join(*fed)


def test_join_sort_key_calls_grow_with_delta_not_state(monkeypatch):
    # 1 000 single-key batches: the stored sides grow to 500 keys each, but
    # a drain may only sort what it emits.
    op = zset_join(INT)
    empty = zset({})
    batches = [(zset({i // 2: 1}), empty) if i % 2 == 0 else (empty, zset({i // 2: 1})) for i in range(1000)]
    calls = 0
    real_sort_key = zset_module.sort_key

    def counting_sort_key(x):
        nonlocal calls
        calls += 1
        return real_sort_key(x)

    monkeypatch.setattr(zset_module, "sort_key", counting_sort_key)
    state = op.initial_state
    for buffers in batches:
        (r,) = op.steps(buffers, state, False)
        state = r.state
    assert len(state.seen_left) == len(state.seen_right) == 500
    assert calls <= 2 * len(batches)


def _mixed_zset(rng):
    keys = [rng.randint(-5, 20), f"s{rng.randint(0, 5)}", (rng.randint(0, 3), rng.randint(0, 3))]
    return zset({rng.choice(keys): rng.choice([-2, -1, 1, 2]) for _ in range(rng.randint(0, 10))})


def test_concat_merge_agrees_with_summing_dicts():
    rng = random.Random(41)
    for _ in range(500):
        a, b = _mixed_zset(rng), _mixed_zset(rng)
        assert concat(a, Payload(b)) == zset(add_cards(a.as_dict(), b.as_dict()))


def test_concat_sort_key_calls_are_linear_in_batches(monkeypatch):
    # K single-key batches into both join inputs, drained every time. Each
    # concat places its delta by bisection, so no fold over a growing total
    # re-sorts it (the whole-value re-sort made 132 251, 514 501 and
    # 2 029 001 calls at K = 500, 1 000 and 2 000).
    from flo.programs import zset_mix_pipeline
    from flo.scheduler import DrainAll, InputBatch, TraceStep, run_trace

    calls = 0
    real_sort_key = zset_module.sort_key

    def counting_sort_key(x):
        nonlocal calls
        calls += 1
        return real_sort_key(x)

    monkeypatch.setattr(zset_module, "sort_key", counting_sort_key)
    for k in (500, 1000, 2000):
        calls = 0
        trace = [
            TraceStep(InputBatch((Payload(zset({i: 1})), Payload(zset({i: 1})))), None, DrainAll())
            for i in range(k)
        ]
        (total,) = run_trace(zset_mix_pipeline(), trace).totals
        assert total.as_dict() == {i: 6 for i in range(k)}
        assert calls <= 40 * k, (k, calls)
