from __future__ import annotations

import pytest

from corpus import TWELVE_PIXEL_PICTURES, one_pixel, picture, weighted
from oracles import naive_fprime_stars, naive_tangles
from tanglescope import (analyze, build_chop_tree, build_universe, enumerate_profiles,
                         find_f_tangle, is_focused, is_profile,
                         max_supported_resolution, standard_F,
                         verify_chop_tree, verify_duality)
from tanglescope.duality import enumerate_f_prime_tangles, induced_subcanvas
from tanglescope.fixtures import fixture_canvas, noisedisc_masks


def test_standard_f_membership(pool_mono):
    s2 = pool_mono.stratum(2)
    f = standard_F(s2)
    assert frozenset({0b0001}) in f            # single pixel
    assert frozenset({0}) in f                 # void 1-star
    full = pool_mono.full_mask
    part, c1 = 0b0111, 0b0011
    star = frozenset({part ^ full, c1, (part ^ c1)})
    # that triple is not pairwise co-pointing, hence not in F
    assert star not in f
    s3 = pool_mono.stratum(3)
    void3 = frozenset({0b0111, 0b0011 ^ full, 0b0100 ^ full})
    assert void3 in standard_F(s3)
    # non-void triple with a shared pixel
    assert frozenset({0b1110, 0b1101, 0b1011}) not in standard_F(s3)


def test_standard_f_enumerate_matches_membership(pool_mono):
    s2 = pool_mono.stratum(2)
    f = standard_F(s2)
    from itertools import combinations
    members = sorted(s2.members)
    expected = [frozenset(c) for r in (1, 2, 3)
                for c in combinations(members, r) if frozenset(c) in f]
    assert sorted(f.enumerate(), key=sorted) == sorted(set(expected), key=sorted)


def test_find_f_tangle_mono(pool_mono):
    t2 = find_f_tangle(pool_mono.stratum(2))
    assert t2 is not None
    assert is_profile(t2) and not is_focused(t2)
    assert all(c >> 3 & 1 for c in t2.chosen)  # points toward p11
    assert find_f_tangle(pool_mono.stratum(3)) is None


def test_find_f_tangle_one_pixel():
    pool = build_universe(weighted(one_pixel))
    for k in (1, 2, 3):
        assert find_f_tangle(pool.stratum(k)) is None


def test_f_tangle_matches_naive_oracle():
    # the hit must be one of the oracle's unfocused F-tangles, so
    # F-avoidance is checked against the definition, not only existence
    for name in sorted(TWELVE_PIXEL_PICTURES):
        pool = build_universe(weighted(TWELVE_PIXEL_PICTURES[name]))
        for k in range(1, pool.max_order + 2):
            stratum = pool.stratum(k)
            if len(stratum.pairs) > 12:
                continue
            stars = standard_F(stratum).enumerate()
            naive = [o for o in naive_tangles(stratum, stars)
                     if all(s.bit_count() != 1 for s in o)]
            hit = find_f_tangle(stratum)
            assert (hit is not None) == bool(naive)
            assert hit is None or hit.chosen in naive


def test_fprime_matches_naive_oracle(pool_mono):
    for k in range(1, pool_mono.max_order + 2):
        stratum = pool_mono.stratum(k)
        if len(stratum.pairs) > 12:
            continue
        stars = naive_fprime_stars(stratum)
        got = [t.chosen for t in enumerate_f_prime_tangles(stratum)]
        assert got == naive_tangles(stratum, stars)


@pytest.mark.parametrize("name", sorted(TWELVE_PIXEL_PICTURES) + ["quad4x4"])
def test_analyze_sweep_matches_max_supported_resolution(name):
    wc = (fixture_canvas(name) if name == "quad4x4"
          else weighted(TWELVE_PIXEL_PICTURES[name]))
    duality = analyze(wc)[0]["duality"]
    r = duality["max_supported_resolution"]
    assert r == max_supported_resolution(wc)
    verdicts = duality["verdicts"]
    assert [v["k"] for v in verdicts] == list(range(1, r + 2))
    assert [v["f_tangle"] for v in verdicts] == [v["k"] <= r for v in verdicts]


def test_chop_tree_mono(wc_mono, pool_mono):
    tree = build_chop_tree(wc_mono, 3, pool_mono)
    assert tree is not None
    assert verify_chop_tree(tree, wc_mono, pool_mono).ok
    assert build_chop_tree(wc_mono, 2, pool_mono) is None


def test_chop_tree_one_pixel():
    wc = weighted(one_pixel)
    for k in (1, 2):
        tree = build_chop_tree(wc, k)
        assert tree is not None and len(tree.roots) == 1
        assert verify_chop_tree(tree, wc).ok


def test_chop_tree_rejects_bad_k(wc_mono):
    with pytest.raises(ValueError):
        build_chop_tree(wc_mono, 0)


def test_duality_mono(wc_mono, pool_mono):
    for k in (1, 2, 3, 4):
        report = verify_duality(wc_mono, k, pool_mono)
        assert report.exclusive and report.ok


def test_duality_all_white_3x3():
    wc = weighted(lambda: picture(3, 3, [0] * 9))
    assert wc.N == 0
    report = verify_duality(wc, 1)
    assert report.ok


def test_resolution_mono(wc_mono):
    assert max_supported_resolution(wc_mono) == 2


def test_resolution_one_pixel():
    assert max_supported_resolution(weighted(one_pixel)) == 0


def test_resolution_noisedisc_block_exceeds_noise():
    wc = fixture_canvas("noisedisc4x4")
    block, rest = noisedisc_masks()
    assert (max_supported_resolution(wc, subset=block)
            > max_supported_resolution(wc, subset=rest))


def test_induced_subcanvas_errors(wc_mono):
    with pytest.raises(ValueError):
        induced_subcanvas(wc_mono, 0)
    with pytest.raises(ValueError):
        induced_subcanvas(wc_mono, 1 << 10)


def test_induced_subcanvas_inherits_n(wc_mono):
    sub = induced_subcanvas(wc_mono, 0b1110)
    assert sub.N == wc_mono.N
    assert sub.npixels == 3


def test_footnote_equivalence_mono(pool_mono):
    for k in range(1, pool_mono.max_order + 2):
        stratum = pool_mono.stratum(k)
        profs = {p.chosen for p in enumerate_profiles(stratum)}
        fprime = {t.chosen for t in enumerate_f_prime_tangles(stratum)}
        assert profs == fprime


def test_chop_tree_monotone_in_k(wc_mono, pool_mono):
    found = False
    for k in range(1, pool_mono.max_order + 2):
        tree = build_chop_tree(wc_mono, k, pool_mono)
        if found:
            assert tree is not None
        found = found or tree is not None
