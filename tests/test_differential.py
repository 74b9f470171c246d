"""Differential net: the search engine against the brute-force oracles, the
reference search and the definition-level verifiers, and the closed-form
answers at principal levels against the search engine, on random pictures
of at most 11 pixels."""
from __future__ import annotations

from hypothesis import given, settings

from corpus import random_weighted
from oracles import (ReferenceSearch, StarSetF, naive_profiles, naive_tangles,
                     profile_levels)
from tanglescope import (analyze, build_chop_tree, build_universe, find_f_tangle,
                         is_focused, max_supported_resolution, verify_chop_tree,
                         verify_duality)
from tanglescope.profiles import f_tangles
from tanglescope.search import find_star_avoiding_orientation

# the oracles enumerate 2^pairs orientations
_ORACLE_PAIRS = 12


@settings(deadline=None, max_examples=50)
@given(random_weighted(max_pixels=11))
def test_engines_match_oracles_on_random_pictures(wc):
    pool = build_universe(wc)
    levels = profile_levels(pool)
    # a pool with no listed level: find_f_tangle answers its principal
    # levels in closed form and searches the others, levels with a chop
    # tree too; verify_duality, run on it after, lists the levels that a
    # verified chop tree settles
    fresh = build_universe(wc)
    for k, profs in levels.items():
        stratum = pool.stratum(k)
        # list the level's F-tangles: find_f_tangle does not read the list
        assert list(f_tangles(stratum)) == [p for p in profs if not is_focused(p)]
        chosen = [p.chosen for p in profs]
        small = len(stratum.pairs) <= _ORACLE_PAIRS
        if small:
            assert chosen == naive_profiles(stratum)
        # footnote equivalence: the F'-tangles are exactly the profiles
        fprime = ReferenceSearch(stratum, unfocused=False).run()
        assert sorted(fprime, key=sorted) == chosen
        listed = find_f_tangle(stratum)
        found = find_f_tangle(fresh.stratum(k))
        # the find-one engine itself, which the closed form skips
        searched = find_star_avoiding_orientation(fresh.stratum(k))
        assert (listed is None) == (found is None) == (searched is None)
        if max(pool.pixel_orders) >= k:
            assert build_chop_tree(wc, k, pool) is None
        if small:
            naive = [o for o in naive_tangles(stratum, StarSetF(stratum).enumerate())
                     if all(s.bit_count() != 1 for s in o)]
            assert (searched is not None) == bool(naive)
            for hit in (listed, found):
                assert hit is None or hit.chosen in naive
            assert searched is None or searched.chosen in naive
    # verify_duality lists exactly the levels whose chop tree verifies, the
    # top one among them: a full universe with no heavy pixel has a tree.
    # Each tree is rebuilt and re-verified on a pool of its own
    assert not fresh._f_tangles
    top = fresh.max_order + 1
    verdicts = [verify_duality(fresh, k) for k in range(1, top + 1)]
    settled = {d.k for d in verdicts if d.chop_tree is not None and d.chop_tree_report.ok}
    assert set(fresh._f_tangles) == settled and top in settled
    for k in settled:
        assert fresh._f_tangles[k] == ()
        own = build_universe(wc)
        tree = build_chop_tree(wc, k, own)
        assert tree is not None and verify_chop_tree(tree, wc, own).ok
    unfocused = [k for k, profs in levels.items()
                 if not all(is_focused(p) for p in profs)]
    resolution = max_supported_resolution(wc)
    assert resolution == max(unfocused, default=0)
    # a plain sweep from k=1 over the search engine alone
    swept = 0
    for k in range(1, fresh.max_order + 2):
        if find_star_avoiding_orientation(fresh.stratum(k)) is None:
            break
        swept = k
    assert resolution == swept
    for k in range(1, pool.max_order + 2):
        assert verify_duality(pool, k).ok is True
    assert analyze(wc)[1]
