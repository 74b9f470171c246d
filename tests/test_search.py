"""The bitset search engine against the frozen scan-based reference, on
strata of more than 64 pairs, where every bitset spans several words, its
bit reader against a plain peel loop, its leaf check against the
definition-level `is_profile`, the consistency of every leaf it reaches,
and its handling of a leaf that fails its leaf check."""
from __future__ import annotations

import random
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import tanglescope.search as search_module
from corpus import lshape3x3, picture, rand4x5, random4x3, random_weighted, weighted
from oracles import ReferenceSearch, all_orientations, members, plant, profile_of
from tanglescope import (Profile, WeightedCanvas, analyze, build_universe, encode_report,
                         is_profile, max_supported_resolution, suggest_N)
from tanglescope.search import _AssignmentSearch, _bits, find_star_avoiding_orientation
from tanglescope.sepsys import consistent_sides

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


def _leaf(engine) -> Profile:
    """The engine's complete assignment as a profile, as its search keeps it."""
    bits = search_module._bit_array(engine.as_c, len(engine.pairs))
    return Profile(engine.stratum, bits[engine.rank])


def _random_orientation(stratum, rng: random.Random) -> Profile:
    """Half the time a principal orientation (a profile) with up to three
    pairs flipped; otherwise the pairs in random order, each given a random
    side unless that side misses a side already chosen, which makes a
    consistent orientation, mostly no profile."""
    full = stratum.full_mask
    pairs = stratum.pairs.tolist()
    if rng.random() < 0.5:
        bits = [c >> rng.randrange(full.bit_length()) & 1 == 1 for c in pairs]
        for i in rng.sample(range(len(pairs)), min(rng.randrange(4), len(pairs))):
            bits[i] = not bits[i]
        return Profile(stratum, bits)
    bits = [False] * len(pairs)
    chosen = []
    for i in rng.sample(range(len(pairs)), len(pairs)):
        side = pairs[i] ^ full * rng.randrange(2)
        if any(not side & x for x in chosen):
            side ^= full
        chosen.append(side)
        bits[i] = side == pairs[i]
    return Profile(stratum, bits)


@settings(deadline=None, max_examples=60)
@given(random_weighted(), st.integers(0, 2**32))
def test_co_pointing_check_agrees_with_is_profile(wc, seed):
    # on consistent orientations, profiles (focused or not) and non-profiles
    # alike, the co-pointing rule is the profile condition; the search's
    # leaves are consistent by construction
    rng = random.Random(seed)
    pool = build_universe(wc)
    full = pool.full_mask
    for k in range(1, pool.max_order + 2):
        stratum = pool.stratum(k)
        if len(stratum.pairs) > 200:   # is_profile is quadratic in pairs
            break
        engine = _AssignmentSearch(stratum)
        for _ in range(20):
            p = _random_orientation(stratum, rng)
            if consistent_sides(p.sides().tolist(), full):
                plant(engine, p)
                assert engine._closed_under_co_pointing() == is_profile(p)


@settings(deadline=None, max_examples=150)
@given(random_weighted())
def test_every_leaf_the_engine_reaches_is_consistent(wc):
    # kept or dropped: the leaf check reads every complete assignment the
    # search reaches through the shared-pixel certificate, its first test
    leaves = []
    certificate = search_module._shares_pixel_certificate
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(search_module, "_shares_pixel_certificate",
                      lambda p: leaves.append(p) or certificate(p))
        pool = build_universe(wc)
        for k in range(1, pool.max_order + 1):
            _AssignmentSearch(pool.stratum(k)).run()
    for leaf in leaves:
        sides = leaf.sides()
        # two sides of distinct pairs are disjoint exactly when inconsistent
        assert np.all(sides[:, None] & sides[None, :])
        assert np.all(sides & (sides - 1))   # no single pixel


def test_rejected_leaf_is_dropped_and_the_search_goes_on(monkeypatch):
    stratum = build_universe(weighted(lshape3x3)).stratum(2)
    leaves = _AssignmentSearch(stratum).run()
    assert len(leaves) >= 2
    # the leaf check itself rejects a consistent complete assignment that
    # is no profile
    full = stratum.full_mask
    bad = next(profile_of(stratum, o) for o in all_orientations(stratum)
               if consistent_sides(o - {full}, full) and not is_profile(profile_of(stratum, o)))
    engine = _AssignmentSearch(stratum)
    plant(engine, bad)
    assert not engine._closed_under_co_pointing()
    # every leaf of this level shares a pixel: route them all to the
    # co-pointing rule, and have it reject the first
    seen = []
    check = _AssignmentSearch._closed_under_co_pointing

    def reject_first(engine):
        seen.append(_leaf(engine))
        return len(seen) > 1 and check(engine)

    monkeypatch.setattr(search_module, "_shares_pixel_certificate", lambda p: False)
    monkeypatch.setattr(_AssignmentSearch, "_closed_under_co_pointing", reject_first)
    engine = _AssignmentSearch(stratum)
    assert engine.run() == leaves[1:]
    assert engine.dropped == 1 and seen == leaves
    seen.clear()
    assert find_star_avoiding_orientation(stratum) == leaves[1]
    assert seen == leaves[:2]


def test_analyze_calls_no_definition_level_predicate(monkeypatch):
    # random4x3 has an F-tangle whose sides share no pixel, which the leaf
    # check used to hand to is_profile; now its co-pointing rule decides it
    calls = []
    for module in [m for name, m in sys.modules.items() if name.startswith("tanglescope")]:
        for name in ("is_profile", "is_focused"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, lambda o, name=name: calls.append(name))
    checked = []
    check = _AssignmentSearch._closed_under_co_pointing
    monkeypatch.setattr(_AssignmentSearch, "_closed_under_co_pointing",
                        lambda engine: checked.append(len(engine.pairs)) or check(engine))
    wc = weighted(random4x3)
    report, ok = analyze(wc)
    golden = Path(__file__).parent / "golden" / "random4x3.json"
    assert ok is True and encode_report(report) == golden.read_text()
    assert max_supported_resolution(wc) == report["duality"]["max_supported_resolution"]
    assert calls == [] and 19 in checked
