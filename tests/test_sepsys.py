from __future__ import annotations

from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import one_pixel, random_weighted, weighted
from tanglescope import (UniverseMismatchError, build_universe, classify,
                         inverse, is_consistent, is_nested, is_star, is_void,
                         join, leq, meet)
from tanglescope.sepsys import is_single_pixel, nested_sides


def _seps(pool):
    return [pool.sep(s) for s in range(pool.full_mask + 1)]


def test_inverse(pool_mono):
    full = pool_mono.full_mask
    assert inverse(pool_mono.sep(0)).side == full
    assert inverse(pool_mono.sep(0b0001)).side == 0b1110
    for a in _seps(pool_mono):
        assert inverse(inverse(a)) == a
        assert a.order == inverse(a).order


def test_leq(pool_mono):
    full = pool_mono.sep(pool_mono.full_mask)
    for a in _seps(pool_mono):
        assert leq(full, a)
    assert leq(pool_mono.sep(0b0011), pool_mono.sep(0b0001))
    for a in _seps(pool_mono):
        for b in _seps(pool_mono):
            assert leq(a, b) == leq(inverse(b), inverse(a))


def test_join_meet_de_morgan(pool_mono):
    assert join(pool_mono.sep(0b0011), pool_mono.sep(0b0101)).side == 0b0001
    a = pool_mono.sep(0b0110)
    assert meet(a, inverse(a)).side == pool_mono.full_mask
    for a in _seps(pool_mono):
        for b in _seps(pool_mono):
            assert inverse(join(a, b)) == meet(inverse(a), inverse(b))
            # join is the supremum, meet the infimum, under leq
            assert leq(a, join(a, b)) and leq(b, join(a, b))
            assert leq(meet(a, b), a) and leq(meet(a, b), b)


def test_universe_mismatch(pool_mono, pool_quad):
    with pytest.raises(UniverseMismatchError):
        leq(pool_mono.sep(1), pool_quad.sep(1))


def test_classify(pool_mono):
    s1 = pool_mono.stratum(1)
    full = pool_mono.full_mask
    assert classify(pool_mono.sep(full), s1) >= {"small", "trivial",
                                                 "degenerate-pair-member"}
    assert classify(pool_mono.sep(0), s1) >= {"cosmall", "cotrivial"}
    assert classify(pool_mono.sep(0b0001), s1) == {"proper"}
    with pytest.raises(ValueError):
        classify(pool_mono.sep(0b1000), s1)  # order 2, not in S_1


def test_nestedness(pool_mono):
    a = pool_mono.sep(0b0011)
    assert is_nested(a, inverse(a))
    assert not is_nested(a, pool_mono.sep(0b0101))
    for x in _seps(pool_mono):
        for y in _seps(pool_mono):
            assert is_nested(x, y) == is_nested(inverse(x), y)
            assert is_nested(x, y) == is_nested(y, x)


def test_stars(pool_mono):
    full = pool_mono.full_mask
    p = pool_mono.sep(0b0001)
    assert is_star([p])
    assert not is_void([p])
    assert is_single_pixel([p])
    assert not is_star([p, inverse(p)])
    # chop configuration: a part against the complements of its two halves
    part, c1 = 0b0111, 0b0011
    c2 = part ^ c1
    sigma = [pool_mono.sep(part), pool_mono.sep(c1 ^ full), pool_mono.sep(c2 ^ full)]
    assert is_star(sigma) and is_void(sigma)


def test_stars_are_consistent_and_nested(pool_mono):
    seps = _seps(pool_mono)
    for sigma in combinations(seps, 3):
        if is_star(sigma):
            assert is_consistent(sigma)
            for a, b in combinations(sigma, 2):
                assert is_nested(a, b)


def test_consistency_examples(pool_mono):
    full = pool_mono.full_mask
    assert is_consistent([pool_mono.sep(0b1110), pool_mono.sep(0b0011)])
    assert not is_consistent([pool_mono.sep(0b0001), pool_mono.sep(0b1000)])
    # a side with its own inverse is not a witnessing configuration
    assert is_consistent([pool_mono.sep(0b0011), pool_mono.sep(0b1100)])


def test_build_universe(pool_mono):
    assert len(pool_mono) == 16
    single = build_universe(weighted(one_pixel))
    assert sorted(single.sides()) == [0, 1]
    # orders agree with the direct computation
    for s in range(16):
        assert pool_mono.order_of(s) == pool_mono.wc.order(s)


def test_strata(pool_mono):
    s1 = pool_mono.stratum(1)
    assert s1.members == {0, 0b1111, 0b0001, 0b1110}
    assert s1.pairs == (0b1110,)
    top = pool_mono.stratum(pool_mono.max_order + 1)
    assert len(top.members) == 16
    prev = frozenset()
    for k in range(1, pool_mono.max_order + 2):
        members = pool_mono.stratum(k).members
        assert prev <= members
        assert all((s ^ pool_mono.full_mask) in members for s in members)
        prev = members
    with pytest.raises(ValueError):
        pool_mono.stratum(0)


@settings(deadline=None, max_examples=30)
@given(random_weighted())
def test_strata_match_table_scan(wc):
    pool = build_universe(wc)
    full = pool.full_mask
    orders = wc.all_orders().tolist()
    for k in range(1, pool.max_order + 2):
        stratum = pool.stratum(k)
        pairs = sorted((s for s in range(2, full, 2) if orders[s] < k),
                       key=lambda s: (orders[s], s))
        assert stratum.pairs == tuple(pairs)
        assert stratum.members == {s for s in range(full + 1) if orders[s] < k}
        assert pool.stratum(k) is stratum


@settings(deadline=None, max_examples=300)
@given(st.integers(0, 255), st.integers(0, 255))
def test_nested_sides_orientation_free(x, y):
    full = 255
    assert nested_sides(x, y, full) == nested_sides(y, x, full)
    assert nested_sides(x, y, full) == nested_sides(x ^ full, y, full)
    assert nested_sides(x, y, full) == nested_sides(x, y ^ full, full)
