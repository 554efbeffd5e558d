"""Core contracts: ranks, subtyping, concatenation laws across languages."""

import pytest
from hypothesis import given, settings, strategies as st

from flo.core import (
    B,
    EMPTY,
    INT,
    Payload,
    Rank,
    StreamType,
    TERMINATOR,
    U,
    concat,
    fix,
    is_fixed,
    member,
    subtype,
)
from flo.graph import graph_rank, node, step_first
from flo.lvar import LVarValue, lvar_tag
from flo.seq import SeqValue, seq, seq_map, seq_tag
from flo.sets import SetValue, set_tag
from flo.zset import zset, zset_tag


class TestRank:
    def test_lexicographic(self):
        assert Rank((1, 0)) > Rank((0, 5))
        assert Rank((2, 3)) < Rank((2, 4))
        assert Rank((0,)) < Rank((1,))

    def test_padding_right_with_zeros(self):
        assert Rank((1,)) == Rank((1, 0))
        assert Rank((1, 1)) > Rank((1,))
        assert hash(Rank((2,))) == hash(Rank((2, 0, 0)))

    def test_no_negatives(self):
        with pytest.raises(ValueError):
            Rank((-1,))


class TestSubtype:
    def test_bounded_below_unbounded(self):
        a = StreamType(seq_tag(INT), B)
        b = StreamType(seq_tag(INT), U)
        assert subtype(a, b)

    def test_unbounded_not_below_bounded(self):
        a = StreamType(seq_tag(INT), U)
        b = StreamType(seq_tag(INT), B)
        assert not subtype(a, b)

    def test_different_collections_unrelated(self):
        from flo.core import ElemType

        a = StreamType(seq_tag(INT), B)
        b = StreamType(seq_tag(ElemType("bool")), U)
        assert not subtype(a, b)

    def test_reflexive(self):
        a = StreamType(zset_tag(INT), U)
        assert subtype(a, a)


# Strategies for values of each language, paired with their tags.

seq_values = st.builds(
    SeqValue,
    st.booleans(),
    st.lists(st.integers(0, 9), max_size=5).map(tuple),
)
seq_deltas = st.one_of(
    st.just(TERMINATOR),
    st.just(EMPTY),
    st.builds(lambda t, i: Payload(SeqValue(t, tuple(i))), st.booleans(), st.lists(st.integers(0, 9), max_size=3)),
)

set_values = st.builds(lambda e, f: SetValue(frozenset(e), f), st.lists(st.integers(0, 9), max_size=5), st.booleans())
set_deltas = st.one_of(
    st.just(TERMINATOR),
    st.just(EMPTY),
    st.builds(lambda e, f: Payload(SetValue(frozenset(e), f)), st.lists(st.integers(0, 9), max_size=3), st.booleans()),
)

zset_values = st.builds(
    lambda ks, f: zset({k: c for k, c in ks}, f),
    st.lists(st.tuples(st.integers(0, 7), st.integers(-3, 3)), max_size=6),
    st.booleans(),
)
zset_deltas = st.one_of(
    st.just(TERMINATOR),
    st.just(EMPTY),
    st.builds(
        lambda ks, f: Payload(zset({k: c for k, c in ks}, f)),
        st.lists(st.tuples(st.integers(0, 7), st.integers(-3, 3)), max_size=4),
        st.booleans(),
    ),
)

lvar_values = st.builds(lambda v, f: LVarValue("max_nat", v, f), st.integers(0, 30), st.booleans())
lvar_deltas = st.one_of(
    st.just(TERMINATOR),
    st.just(EMPTY),
    st.builds(lambda v, f: Payload(LVarValue("max_nat", v, f)), st.integers(0, 30), st.booleans()),
)

CASES = [
    (seq_values, seq_deltas, seq_tag(INT)),
    (set_values, set_deltas, set_tag(INT)),
    (zset_values, zset_deltas, zset_tag(INT)),
    (lvar_values, lvar_deltas, lvar_tag("max_nat")),
]


@pytest.mark.parametrize("values,deltas,tag", CASES, ids=["seq", "set", "zset", "lvar"])
def test_concat_laws(values, deltas, tag):
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(c=values, d=deltas)
    def laws(c, d):
        # closure
        assert member(concat(c, d), tag)
        # empty delta is identity
        assert concat(c, EMPTY) == c
        # fixed absorbs everything
        if is_fixed(c):
            assert concat(c, d) == c
        # fix lands in the fixed set and is idempotent
        assert is_fixed(fix(c))
        assert fix(fix(c)) == fix(c)
        assert concat(fix(c), d) == fix(c)
        # the fixedness flag is honest: unfixed values still move
        if not is_fixed(c):
            assert concat(c, TERMINATOR) != c

    laws()


class TestConcatExamples:
    def test_seq_prepends(self):
        assert concat(seq(1), Payload(seq(2))) == SeqValue(False, (2, 1))

    def test_lvar_joins(self):
        out = concat(LVarValue("max_nat", 5, False), Payload(LVarValue("max_nat", 9, False)))
        assert out == LVarValue("max_nat", 9, False)

    def test_zset_fixed_literal(self):
        assert is_fixed(zset({"x": 1}, True))

    def test_fix_seq(self):
        assert fix(SeqValue(False, (2, 1))) == SeqValue(True, (2, 1))

    def test_fix_lvar(self):
        assert fix(LVarValue("max_nat", 5, False)) == LVarValue("max_nat", 5, True)

    def test_terminated_seq_is_fixed(self):
        assert is_fixed(SeqValue(True, (3,)))

    def test_unfixed_lvar(self):
        assert not is_fixed(LVarValue("max_nat", 5, False))


def test_every_exported_name_resolves():
    import flo

    assert [name for name in flo.__all__ if not hasattr(flo, name)] == []


class TestStepOperator:
    def test_step_returns_result_and_descends(self):
        g = node(seq_map("inc", INT, INT), (seq(3),))
        g2, deltas, _choice = step_first(g)
        assert deltas == (Payload(SeqValue(False, (4,))),)
        assert graph_rank(g2) < graph_rank(g)

    def test_stuck_returns_none(self):
        assert step_first(node(seq_map("inc", INT, INT), (SeqValue(False, ()),))) is None

    def test_rank_violation_detected(self):
        from flo.harness import OpCase, check_rank_and_preservation
        from flo.opcatalog import constant_rank

        report = check_rank_and_preservation(constant_rank(INT), [OpCase((seq(1),))])
        assert report.prop == "RankDescent" and not report.passed
        assert report.details["reason"] == "rank did not decrease"

    def test_thresh_from_motivating_example(self):
        from flo.lvar import thresh

        _, deltas, _ = step_first(node(thresh("max_nat", (100,)), (LVarValue("max_nat", 150, False),)))
        assert deltas == (Payload(SeqValue(False, (100,))),)


def test_fold_step_accumulates_silently():
    from flo.seq import fold

    g, deltas, _ = step_first(node(fold(0, "add", INT, INT), (seq(3),)))
    (n,) = g.nodes
    assert n.buffers == (SeqValue(False, ()),)
    assert n.state.acc == 3
    assert deltas == (EMPTY,)
