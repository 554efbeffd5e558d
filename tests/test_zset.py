"""Z-sets: canonical forms, linear map, incremental join vs batch oracle."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import batch_zset_join, run_op

from flo.core import INT, Payload, TERMINATOR, concat
from flo.graph import inputs, node, run_to_stuck, set_inputs
from flo import zset as zset_module
from flo.zset import CardMap, JoinState, ZSetValue, zset, zset_join, zset_map


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


def keywise_sum(a: dict, b: dict) -> dict:
    """Keywise sum of two z-set dicts: sum every key, then drop the zeros."""
    keys = set(a) | set(b)
    return {k: a.get(k, 0) + b.get(k, 0) for k in keys if a.get(k, 0) + b.get(k, 0)}


small_zsets = st.dictionaries(st.integers(0, 5), st.integers(-3, 3).filter(bool), max_size=6)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(a=small_zsets, b=small_zsets, a2=small_zsets, b2=small_zsets)
def test_join_bilinearity(a, b, a2, b2):
    # (a+a') join (b+b') == a*b + a'*b + a*b' + a'*b'
    whole = batch_zset_join(keywise_sum(a, a2), keywise_sum(b, b2))
    parts = keywise_sum(
        keywise_sum(batch_zset_join(a, b), batch_zset_join(a2, b)),
        keywise_sum(batch_zset_join(a, b2), batch_zset_join(a2, b2)),
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
        left, right = inputs(g)
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
        whole_left = keywise_sum(whole_left, d)
    whole_right: dict = {}
    for d in right:
        whole_right = keywise_sum(whole_right, d)
    assert totals == batch_zset_join(whole_left, whole_right)


def test_card_map_plus_drops_cancelled_keys():
    a = CardMap.of({1: 2, 2: 1})
    assert a.plus(((1, -2), (3, 0), (4, 5))) == {2: 1, 4: 5} and a == {1: 2, 2: 1}
    assert a.plus(()) is a


def drain_once(op, state, left, right, choice=0):
    r = op.steps((left, right), state, True)[choice]
    return r.state, r.buffers, r.deltas[0].value


@pytest.mark.parametrize("exhaustive", [False, True])
def test_a_one_sided_drain_keeps_the_other_sides_dict(exhaustive):
    op = zset_join(INT)
    state = JoinState({1: 1}, {1: 3, 2: 5}, False)
    (r, *_) = op.steps((zset({1: 2, 4: 1}), zset({})), state, exhaustive)
    assert r.state.seen_right is state.seen_right
    assert r.state.seen_left == {1: 3, 4: 1} and r.deltas[0].value == zset({1: 6})


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


def drain_each(op, state, left: dict, right: dict, one_key_at_a_time: bool):
    """``state`` after draining ``left`` and ``right`` in one canonical
    drain, or one key of one side per drain."""
    if not one_key_at_a_time:
        (r,) = op.steps((zset(left), zset(right)), state, False)
        return r.state
    empty = zset({})
    for k, v in left.items():
        (r,) = op.steps((zset({k: v}), empty), state, False)
        state = r.state
    for k, v in right.items():
        (r,) = op.steps((empty, zset({k: v})), state, False)
        state = r.state
    return state


def test_join_states_reached_by_different_drain_orders_are_one_state():
    # Both orders store the same 240 keys a side. One drains everything
    # at once, so the last drain folds its overlay into the base; the
    # other ends with ten single-key drains and a cancelled key, which
    # stay in the overlay, a 0 marking the cancelled base key.
    op = zset_join(INT)
    left = {k: k % 5 - 2 or 3 for k in range(240)}
    right = {k: 1 + k % 3 for k in range(0, 480, 2)}
    folded = drain_each(op, op.initial_state, left, right, False)
    head = {k: v for k, v in left.items() if k >= 10}
    layered = drain_each(op, op.initial_state, {**head, 999: 4}, right, False)
    layered = drain_each(op, layered, {k: left[k] for k in range(10)}, {}, True)
    layered = drain_each(op, layered, {999: -4}, {}, True)
    assert not folded.seen_left.over
    assert len(layered.seen_left.over) == 11 and layered.seen_left.over[999] == 0
    plain = JoinState(dict(reversed(left.items())), right, False)
    for state in (layered, plain):
        assert state == folded and hash(state) == hash(folded) and repr(state) == repr(folded)
    assert len({folded, layered, plain}) == 1
    assert folded.seen_left == left and layered.seen_left == left and len(layered.seen_left) == 240
    assert layered != JoinState(head, right, False)


def _entries_copied(old: CardMap, new: CardMap) -> int:
    """The dict entries ``old.plus`` copied to make ``new``: its overlay,
    and the whole base when the overlay was folded into a new one."""
    if new is old:
        return 0
    return len(old.over) + (0 if new.base is old.base else len(new.base))


@pytest.mark.parametrize("n", [500, 16_000])
def test_a_one_key_drain_copies_about_sqrt_of_the_stored_keys(n):
    # A drain copies only the overlay of the side it updates, folding it
    # into a new base once it outgrows about sqrt(n): about 1.5*sqrt(n)
    # entries a drain, amortised, where copying the side costs n.
    op = zset_join(INT)
    empty = zset({})
    state = JoinState({i: 1 for i in range(n)}, {i: 1 for i in range(0, n, 2)}, False)
    drains, copied = 300, 0
    for j in range(drains):
        (r,) = op.steps((zset({n + 2 * j + 1: 1}), empty), state, False)
        copied += _entries_copied(state.seen_left, r.state.seen_left)
        copied += _entries_copied(state.seen_right, r.state.seen_right)
        state = r.state
    assert len(state.seen_left) == n + drains
    assert copied / drains <= 2 * n**0.5 + 1, copied / drains


def test_concat_keeps_the_buffer_for_an_empty_payload_of_its_fixedness():
    buf = zset({1: 2, 5: 1})
    assert concat(buf, Payload(zset({}))) is buf
    assert concat(buf, Payload(zset({}, True))) == zset({1: 2, 5: 1}, True)
    for k, v, want in ((3, 1, {1: 2, 3: 1, 5: 1}), (5, -1, {1: 2}), (1, 1, {1: 3, 5: 1}), (9, 4, {1: 2, 5: 1, 9: 4})):
        assert concat(buf, Payload(zset({k: v}))) == zset(want)


def _mixed_zset(rng):
    keys = [rng.randint(-5, 20), f"s{rng.randint(0, 5)}", (rng.randint(0, 3), rng.randint(0, 3))]
    return zset({rng.choice(keys): rng.choice([-2, -1, 1, 2]) for _ in range(rng.randint(0, 10))})


def test_concat_merge_agrees_with_summing_dicts():
    rng = random.Random(41)
    for _ in range(500):
        a, b = _mixed_zset(rng), _mixed_zset(rng)
        assert concat(a, Payload(b)) == zset(keywise_sum(a.as_dict(), b.as_dict()))


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
