"""Differential net: the search engines against the brute-force oracles and
the definition-level verifiers, on random pictures of at most 11 pixels."""
from __future__ import annotations

from hypothesis import given, settings

from corpus import random_weighted
from oracles import naive_profiles, naive_tangles
from tanglescope import (StarSetF, analyze, build_universe, find_f_tangle,
                         is_focused, max_supported_resolution, verify_duality)
from tanglescope.duality import enumerate_f_prime_tangles
from tanglescope.profiles import f_tangles, profile_levels

# the oracles enumerate 2^pairs orientations
_ORACLE_PAIRS = 12


@settings(deadline=None, max_examples=50)
@given(random_weighted(max_pixels=11))
def test_engines_match_oracles_on_random_pictures(wc):
    pool = build_universe(wc)
    levels = profile_levels(pool)
    # a pool with no listed level, so find_f_tangle runs the search
    fresh = build_universe(wc)
    for k, profs in levels.items():
        stratum = pool.stratum(k)
        # list the level's F-tangles, so find_f_tangle reads the list
        assert list(f_tangles(stratum)) == [p for p in profs if not is_focused(p)]
        chosen = [p.chosen for p in profs]
        small = len(stratum.pairs) <= _ORACLE_PAIRS
        if small:
            assert chosen == naive_profiles(stratum)
        # footnote equivalence: the F'-tangles are exactly the profiles
        assert [t.chosen for t in enumerate_f_prime_tangles(stratum)] == chosen
        listed = find_f_tangle(stratum)
        searched = find_f_tangle(fresh.stratum(k))
        assert (listed is None) == (searched is None)
        if small:
            naive = [o for o in naive_tangles(stratum, StarSetF(stratum).enumerate())
                     if all(s.bit_count() != 1 for s in o)]
            assert (searched is not None) == bool(naive)
            for hit in (listed, searched):
                assert hit is None or hit.chosen in naive
    assert not fresh._f_tangles
    unfocused = [k for k, profs in levels.items()
                 if not all(is_focused(p) for p in profs)]
    assert max_supported_resolution(wc) == max(unfocused, default=0)
    for k in range(1, pool.max_order + 2):
        assert verify_duality(pool, k).ok is True
    assert analyze(wc)[1]
