from __future__ import annotations

import tracemalloc
from itertools import combinations
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from corpus import one_pixel, picture, random_weighted, weighted
from oracles import full_orders, members
from tanglescope import WeightedCanvas, build_universe, suggest_N
from tanglescope.canvas import _BLOCK_BITS
from tanglescope.sepsys import (consistent_sides, laminar_sides, nested_sides, star_sides,
                                void_sides)


def test_inverse(pool_mono):
    # a side and its complement share a boundary, hence an order
    full = pool_mono.full_mask
    for s in range(full + 1):
        assert pool_mono.order_of(s) == pool_mono.order_of(s ^ full)


@settings(deadline=None, max_examples=60)
@given(random_weighted(max_pixels=10, max_extra_N=10**5))
def test_order_of_folds_sides_with_the_top_pixel(wc):
    # the table holds the sides without the top pixel; order_of folds the
    # others onto their complements
    pool = build_universe(wc)
    assert [pool.order_of(s) for s in range(wc.full_mask + 1)] == \
        [wc.order(s) for s in range(wc.full_mask + 1)]
    assert pool.pixel_orders[-1] == wc.order(1 << (wc.npixels - 1))


@settings(deadline=None, max_examples=60)
@given(random_weighted(max_pixels=10))
def test_order_of_sums_the_boundary_until_the_table_exists(wc):
    # before the table: the cut definition, and no table is built; after:
    # the table read, through the oracle's independent reading of it
    pool = build_universe(wc)
    sides = range(wc.full_mask + 1)
    assert [pool.order_of(s) for s in sides] == [wc.order(s) for s in sides]
    assert not wc._order_cache
    orders = full_orders(wc)

    def no_sum(self, side):
        raise AssertionError("order_of summed a boundary beside a table")
    with patch.object(WeightedCanvas, "order", no_sum):
        assert [pool.order_of(s) for s in sides] == orders.tolist()


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
    assert s1.pairs.tolist() == [0b1110]
    top = pool_mono.stratum(pool_mono.max_order + 1)
    assert sorted(top.pairs.tolist()) == list(range(2, 16, 2))
    prev = set()
    for k in range(1, pool_mono.max_order + 2):
        pairs = pool_mono.stratum(k).pairs.tolist()
        # canonical sides, each pair once, and the strata grow with k
        assert all(c & 1 == 0 and 0 < c < pool_mono.full_mask for c in pairs)
        assert len(set(pairs)) == len(pairs)
        assert prev <= set(pairs)
        prev = set(pairs)
    with pytest.raises(ValueError):
        pool_mono.stratum(0)


@settings(deadline=None, max_examples=30)
@given(random_weighted())
def test_strata_match_table_scan(wc):
    pool = build_universe(wc)
    full = pool.full_mask
    orders = full_orders(wc).tolist()
    for k in range(1, pool.max_order + 2):
        stratum = pool.stratum(k)
        pairs = [s for s in range(2, full, 2) if orders[s] < k]
        assert sorted(stratum.pairs.tolist()) == pairs
        assert members(stratum) == {s for s in range(full + 1) if orders[s] < k}
        assert pool.stratum(k) is stratum


@st.composite
def _any_width_weighted(draw):
    """A random picture of 1 to 9 pixels, 1-px and 2-px canvases included,
    with an offset N that puts the order table in uint8, uint16 or uint32."""
    width = draw(st.integers(1, 9))
    height = draw(st.integers(1, 9 // width))
    n = draw(st.integers(1, 2))
    values = draw(st.lists(st.integers(0, (1 << n) - 1),
                           min_size=width * height, max_size=width * height))
    pic = picture(width, height, values, n=n)
    extra = draw(st.one_of(st.integers(0, 20), st.integers(300, 20000),
                           st.integers(70000, 10**8)))
    return WeightedCanvas.from_picture(pic, suggest_N(pic) + extra)


@settings(deadline=None, max_examples=60)
@given(_any_width_weighted())
def test_strata_match_brute_force_at_every_width(wc):
    pool = build_universe(wc)
    full = pool.full_mask
    orders = [wc.order(s) for s in range(full + 1)]
    total = sum(wc.N - d for d in wc.delta)
    assert full_orders(wc).itemsize == (1 if total < 1 << 8 else 2 if total < 1 << 16 else 4)
    # strata change only where k passes an order
    for k in sorted({1} | {o + 1 for o in orders}):
        stratum = pool.stratum(k)
        assert stratum.pairs.dtype == np.uint32
        expected = [s for s in range(2, full, 2) if orders[s] < k]
        assert sorted(stratum.pairs.tolist()) == expected
        with pytest.raises(ValueError):
            stratum.pairs[:] = 0


# offsets N above suggest_N that put a 14-16 px order table in each width
_EXTRA_N = {np.uint8: st.integers(0, 3), np.uint16: st.integers(300, 2000),
            np.uint32: st.integers(70000, 10**7)}


@st.composite
def _multi_block_weighted(draw, dtype):
    """A random 1- or 2-bit picture of 14 to 16 pixels, so that the half
    order table spans 2 to 8 index blocks, whose order table is `dtype`."""
    width, height = draw(st.sampled_from([(2, 7), (7, 2), (3, 5), (5, 3), (2, 8)]))
    n = draw(st.integers(1, 2))
    values = draw(st.lists(st.integers(0, (1 << n) - 1),
                           min_size=width * height, max_size=width * height))
    pic = picture(width, height, values, n=n)
    wc = WeightedCanvas.from_picture(pic, suggest_N(pic) + draw(_EXTRA_N[dtype]))
    assert full_orders(wc).dtype == dtype
    return wc


@pytest.mark.parametrize("dtype", list(_EXTRA_N), ids=lambda d: d.__name__)
def test_multi_block_strata_match_table_scan(dtype):
    levels = set()
    # a drawn picture may have every order 0 (a uniform uint8 one), whose
    # one stratum reads every block; these two examples cover both cases:
    # the flat one reads every block at its top level, and the other one
    # skips the blocks whose minimum is at least k at its low levels.  At
    # uint8 its stratum 1 also reads two blocks of one row and threshold
    # with a skipped block between them, which must not fill as a run
    extra = {np.uint8: 0, np.uint16: 300, np.uint32: 70000}[dtype]
    flat = picture(5, 3, [0] * 15)
    gapped = picture(5, 3, [1, 1, 1, 1, 1, 1, 0, 1, 1, 1, 1, 1, 1, 0, 1])

    @settings(deadline=None, max_examples=3)
    @given(_multi_block_weighted(dtype))
    @example(WeightedCanvas.from_picture(flat, suggest_N(flat) + extra))
    @example(WeightedCanvas.from_picture(gapped, suggest_N(gapped) + extra))
    def check(wc):
        pool = build_universe(wc)
        orders = full_orders(wc)
        assert pool.max_order == int(orders.max())
        block_min = orders[:len(orders) // 2].reshape(-1, 1 << _BLOCK_BITS).min(axis=1)
        assert len(block_min) >= 2
        evens = np.arange(2, len(orders), 2)   # canonical sides: pixel 0 outside
        # strata change only where k passes an order
        for k in [1] + [o + 1 for o in np.unique(orders).tolist()]:
            stratum = pool.stratum(k)
            expected = evens[orders[evens] < k]
            assert stratum.pairs.dtype == np.uint32 and not stratum.pairs.flags.writeable
            assert np.array_equal(np.sort(stratum.pairs), expected)
            sides = np.fromiter(members(stratum), np.int64)
            sides.sort()
            assert np.array_equal(sides, np.flatnonzero(orders < k))
            levels.add("skips blocks" if (block_min >= k).any() else "every block")

    check()
    assert levels == {"skips blocks", "every block"}


def _assert_strata_nest(pool):
    # strata change only where k passes an order, so checking those levels
    # covers every k < l <= max_order + 1
    levels = [1] + [o + 1 for o in np.unique(full_orders(pool.wc)).tolist()]
    for ell in levels[1:]:
        outer = pool.stratum(ell).pairs
        orders = pool.orders_of(outer)
        for k in levels[:levels.index(ell)]:
            assert np.array_equal(pool.stratum(k).pairs, outer[orders < k])


@settings(deadline=None, max_examples=40)
@given(random_weighted())
def test_one_block_strata_nest_in_scan_order(wc):
    # profiles.restrict keeps the bits of the pairs of order below k, which
    # are stratum k's pairs in its own order
    _assert_strata_nest(build_universe(wc))


@pytest.mark.parametrize("dtype", [np.uint8, np.uint16], ids=lambda d: d.__name__)
def test_multi_block_strata_nest_in_scan_order(dtype):
    @settings(deadline=None, max_examples=3)
    @given(_multi_block_weighted(dtype))
    def check(wc):
        _assert_strata_nest(build_universe(wc))

    check()


def test_glyph_strata_read_few_blocks(wc_minil):
    # the L glyph's low strata come from a few hundred of its 4096 blocks,
    # with no mask or index array the size of the table
    wc_minil.all_orders()
    pool = build_universe(wc_minil, pixel_cap=25)
    tracemalloc.start()
    try:
        for k in range(1, 6):
            pool.stratum(k)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20


def test_flat_stratum_holds_no_table_wide_index():
    # every order of the flat 5x4 is 0, so stratum 1 reads every block of
    # the table: its scan holds no index or mask beyond one chunk
    wc = WeightedCanvas.from_picture(picture(5, 4, [0] * 20))
    wc.all_orders()
    pool = build_universe(wc)
    tracemalloc.start()
    try:
        pairs = pool.stratum(1).pairs
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(pairs) == (1 << 19) - 1
    assert peak <= pairs.nbytes + (1 << 20)


@settings(deadline=None, max_examples=200)
@given(st.lists(st.integers(0, 15), max_size=6))
def test_laminar_sides_is_pairwise_nested(sides):
    full = 15
    assert laminar_sides(sides, full) == all(
        nested_sides(x, y, full) for x, y in combinations(sides, 2))


@settings(deadline=None, max_examples=300)
@given(st.integers(0, 255), st.integers(0, 255))
def test_nested_sides_orientation_free(x, y):
    full = 255
    assert nested_sides(x, y, full) == nested_sides(y, x, full)
    assert nested_sides(x, y, full) == nested_sides(x ^ full, y, full)
    assert nested_sides(x, y, full) == nested_sides(x, y ^ full, full)
