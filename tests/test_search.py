"""The bitset search engine against the frozen scan-based reference, on
strata of more than 64 pairs, where every bitset spans several words, its
bit reader against a plain peel loop, and the engine's handling of a leaf
that fails its leaf check."""
from __future__ import annotations

import random

from hypothesis import assume, given, settings
from hypothesis import strategies as st

import tanglescope.search as search_module
from corpus import lshape3x3, picture, rand4x5, weighted
from oracles import ReferenceSearch, members
from tanglescope import Profile, WeightedCanvas, build_universe, suggest_N
from tanglescope.search import (_AssignmentSearch, _bits, _certified_leaf,
                                find_star_avoiding_orientation)

# more pairs than one 64-bit word; the upper bound keeps the reference cheap
_MIN_PAIRS, _MAX_PAIRS = 65, 250


@st.composite
def _pictures_with_large_strata(draw) -> WeightedCanvas:
    width = draw(st.integers(2, 4))
    height = draw(st.integers(-(-8 // width), 12 // width))
    n = draw(st.integers(1, 2))
    values = draw(st.lists(st.integers(0, (1 << n) - 1),
                           min_size=width * height, max_size=width * height))
    pic = picture(width, height, values, n=n)
    return WeightedCanvas.from_picture(pic, suggest_N(pic) + draw(st.integers(0, 2)))


@settings(deadline=None, max_examples=60)
@given(_pictures_with_large_strata())
def test_engine_leaves_equal_reference_on_multiword_strata(wc):
    pool = build_universe(wc)
    # the smallest stratum with more than one word of pairs
    stratum = next((s for s in map(pool.stratum, range(1, pool.max_order + 2))
                    if len(s.pairs) >= _MIN_PAIRS), None)
    assume(stratum is not None and len(stratum.pairs) <= _MAX_PAIRS
           and stratum.k <= pool.max_order)
    for find_one in (True, False):
        leaves = [p.chosen for p in _AssignmentSearch(stratum).run(find_one)]
        assert leaves == ReferenceSearch(stratum, unfocused=True).run(find_one)


def _peeled_bits(mask: int) -> list[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def test_bits_match_a_peel_loop():
    rng = random.Random(21)
    masks = [0, 1, (1 << 63) | 1, (1 << 64) - 1, 1 << 64, (1 << 65) - 1, 1 << 2000]
    for width in (8, 63, 64, 65, 129, 2000, 2048):
        masks += [rng.getrandbits(width) for _ in range(20)]
    for mask in masks:
        assert _bits(mask) == _peeled_bits(mask)


def test_superset_masks_match_a_direct_scan():
    pool = build_universe(weighted(rand4x5))
    stratum = pool.stratum(5)
    assert len(stratum.pairs) > 3 * 64
    search = _AssignmentSearch(stratum)
    full = stratum.full_mask
    for p, column in enumerate(search.incl):
        assert column == sum(1 << i for i, c in enumerate(search.pairs) if c >> p & 1)
    for side in members(stratum) - {0, full}:
        sup_c, sup_d = search._supersets(side)
        assert sup_c == sum(1 << i for i, c in enumerate(search.pairs) if c & side == side)
        assert sup_d == sum(1 << i for i, c in enumerate(search.pairs)
                            if (c ^ full) & side == side)


def test_rejected_leaf_is_dropped_and_the_search_goes_on(monkeypatch):
    stratum = build_universe(weighted(lshape3x3)).stratum(2)
    leaves = _AssignmentSearch(stratum).run()
    assert len(leaves) >= 2
    # the leaf check itself rejects a complete assignment that is no profile
    assert not _certified_leaf(Profile(stratum, ~leaves[0].bits))
    seen = []

    def reject_first(leaf):
        seen.append(leaf)
        return len(seen) > 1 and _certified_leaf(leaf)

    monkeypatch.setattr(search_module, "_certified_leaf", reject_first)
    engine = _AssignmentSearch(stratum)
    assert engine.run() == leaves[1:]
    assert engine.dropped == 1 and seen == leaves
    seen.clear()
    assert find_star_avoiding_orientation(stratum) == leaves[1]
    assert seen == leaves[:2]
