from __future__ import annotations

from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import one_pixel, random_weighted, weighted
from tanglescope import build_universe
from tanglescope.sepsys import consistent_sides, nested_sides, star_sides, void_sides


def test_inverse(pool_mono):
    # a side and its complement share a boundary, hence an order
    full = pool_mono.full_mask
    for s in range(full + 1):
        assert pool_mono.order_of(s) == pool_mono.order_of(s ^ full)


def test_nestedness(pool_mono):
    full = pool_mono.full_mask
    assert nested_sides(0b0011, 0b0011 ^ full, full)
    assert not nested_sides(0b0011, 0b0101, full)


def test_stars(pool_mono):
    full = pool_mono.full_mask
    p = 0b0001
    star = [p]
    assert star_sides(star, full)
    assert not void_sides(star, full)
    # a single pixel, by the test StarSetF.__contains__ makes
    assert len(star) == 1 and star[0].bit_count() == 1
    assert not star_sides([p, p ^ full], full)
    # chop configuration: a part against the complements of its two halves
    part, c1 = 0b0111, 0b0011
    c2 = part ^ c1
    sigma = [part, c1 ^ full, c2 ^ full]
    assert star_sides(sigma, full) and void_sides(sigma, full)


def test_stars_are_consistent_and_nested(pool_mono):
    full = pool_mono.full_mask
    for sigma in combinations(range(full + 1), 3):
        if star_sides(sigma, full):
            assert consistent_sides(sigma, full)
            for a, b in combinations(sigma, 2):
                assert nested_sides(a, b, full)


def test_consistency_examples(pool_mono):
    full = pool_mono.full_mask
    assert consistent_sides([0b1110, 0b0011], full)
    assert not consistent_sides([0b0001, 0b1000], full)
    # a side with its own inverse is not a witnessing configuration
    assert consistent_sides([0b0011, 0b1100], full)


def test_build_universe(pool_mono):
    assert pool_mono.full_mask == 0b1111
    single = build_universe(weighted(one_pixel))
    assert single.full_mask == 1
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
