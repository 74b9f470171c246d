from __future__ import annotations

import dataclasses
import gc
import subprocess
import sys
from pathlib import Path

import pytest

import tanglescope.duality as duality
from corpus import TWELVE_PIXEL_PICTURES, dot4x5, one_pixel, picture, weighted
from oracles import _consistent, all_orientations, naive_fprime_stars, naive_tangles
from tanglescope import (Profile, StarSetF, WeightedCanvas, analyze, build_chop_tree,
                         build_universe, enumerate_profiles, find_f_tangle, is_focused,
                         is_profile, max_supported_resolution, verify_chop_tree,
                         verify_duality)
from tanglescope.duality import (ChopNode, ChopTree, enumerate_f_prime_tangles,
                                 induced_subcanvas)
from tanglescope.fixtures import fixture_canvas, noisedisc_masks
from tanglescope.profiles import f_tangles, is_principal, orientation_of
from tanglescope.search import SearchDefect


def test_standard_f_membership(pool_mono):
    s2 = pool_mono.stratum(2)
    f = StarSetF(s2)
    assert frozenset({0b0001}) in f            # single pixel
    assert frozenset({0}) in f                 # void 1-star
    full = pool_mono.full_mask
    part, c1 = 0b0111, 0b0011
    star = frozenset({part ^ full, c1, (part ^ c1)})
    # that triple is not pairwise co-pointing, hence not in F
    assert star not in f
    s3 = pool_mono.stratum(3)
    void3 = frozenset({0b0111, 0b0011 ^ full, 0b0100 ^ full})
    assert void3 in StarSetF(s3)
    # non-void triple with a shared pixel
    assert frozenset({0b1110, 0b1101, 0b1011}) not in StarSetF(s3)


def test_standard_f_enumerate_matches_membership(pool_mono):
    s2 = pool_mono.stratum(2)
    f = StarSetF(s2)
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
            stars = StarSetF(stratum).enumerate()
            naive = [o for o in naive_tangles(stratum, stars)
                     if all(s.bit_count() != 1 for s in o)]
            hit = find_f_tangle(stratum)
            assert (hit is not None) == bool(naive)
            assert hit is None or hit.chosen in naive


def _first_orientation(stratum, wanted):
    full = stratum.full_mask
    for chosen in all_orientations(stratum):
        o = orientation_of(stratum, chosen)
        if wanted(_consistent(chosen, full), is_profile(o), is_focused(o)):
            return chosen
    raise AssertionError("no orientation of the wanted kind")


@pytest.mark.parametrize("fixture_name, k, wanted", [
    ("mono2x2", 2, lambda cons, prof, foc: prof and foc),
    ("quad4x4", 3, lambda cons, prof, foc: not cons and not foc),
    ("mono2x2", 2, lambda cons, prof, foc: cons and not prof and not foc),
], ids=["focused", "inconsistent", "non-profile"])
def test_find_f_tangle_rejects_bad_hits(monkeypatch, fixture_name, k, wanted):
    stratum = build_universe(fixture_canvas(fixture_name)).stratum(k)
    bad = _first_orientation(stratum, wanted)
    monkeypatch.setattr(duality, "find_star_avoiding_orientation",
                        lambda s: bad)
    with pytest.raises(SearchDefect):
        find_f_tangle(stratum)


@pytest.mark.parametrize("fixture_name, k, wanted", [
    ("quad4x4", 3, lambda cons, prof, foc: not cons and not foc),
    ("mono2x2", 2, lambda cons, prof, foc: cons and not prof and not foc),
    ("mono2x2", 2, lambda cons, prof, foc: not prof and foc),
], ids=["inconsistent", "non-profile", "focused-non-profile"])
def test_find_f_tangle_rejects_bad_listed_hits(fixture_name, k, wanted):
    # a level the pool has enumerated answers from its list, under the
    # same re-check as the search
    pool = build_universe(fixture_canvas(fixture_name))
    stratum = pool.stratum(k)
    pool._f_tangles[k] = (Profile(stratum, _first_orientation(stratum, wanted)),)
    with pytest.raises(SearchDefect):
        find_f_tangle(stratum)


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


def test_analyze_skipped_verdicts(monkeypatch, wc_quad):
    monkeypatch.setattr(duality, "CHOP_TREE_PAIR_LIMIT", 0)
    report, ok = analyze(wc_quad)
    verdicts = report["duality"]["verdicts"]
    assert verdicts and all(v["ok"] == "skipped" and v["chop_tree"] is None
                            and v["chop_tree_valid"] is None for v in verdicts)
    assert report["verified"]["duality"] == "skipped"
    # the flag means that no verification failed
    assert ok


def test_analyze_keeps_recursion_limit():
    # run from the directory holding the package this suite imports
    src = Path(duality.__file__).resolve().parents[1]
    code = ("import sys\n"
            "from tanglescope import analyze\n"
            "from tanglescope.fixtures import fixture_canvas\n"
            "before = sys.getrecursionlimit()\n"
            "analyze(fixture_canvas('quad4x4'))\n"
            "print(before, sys.getrecursionlimit())\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, cwd=src, timeout=120)
    before, after = out.stdout.split()
    assert before == after


def test_chop_tree_mono(wc_mono, pool_mono):
    tree = build_chop_tree(wc_mono, 3, pool_mono)
    assert tree is not None
    assert verify_chop_tree(tree, wc_mono, pool_mono).ok
    assert build_chop_tree(wc_mono, 2, pool_mono) is None


def _replace_node(node, target, new):
    if node is target:
        return new
    return dataclasses.replace(node, children=tuple(
        _replace_node(c, target, new) for c in node.children))


def _replace_in_tree(tree, target, new):
    return dataclasses.replace(tree, roots=tuple(
        _replace_node(r, target, new) for r in tree.roots))


def _leaf(pixel):
    return ChopNode(1 << pixel, ())


# a valid quad4x4 chop tree at k=6, written out so that the mutations below
# do not depend on which splits the search picks: the roots are the right
# and left halves, each split into its top and bottom quadrant, and each
# quadrant peeled off one pixel at a time
QUAD_TREE = ChopTree(6, (
    ChopNode(52428, (
        ChopNode(204, (_leaf(6), ChopNode(140, (
            _leaf(2), ChopNode(136, (_leaf(3), _leaf(7))))))),
        ChopNode(52224, (_leaf(10), ChopNode(51200, (
            _leaf(11), ChopNode(49152, (_leaf(14), _leaf(15))))))))),
    ChopNode(13107, (
        ChopNode(51, (_leaf(4), ChopNode(35, (
            _leaf(0), ChopNode(34, (_leaf(1), _leaf(5))))))),
        ChopNode(13056, (_leaf(8), ChopNode(12800, (
            _leaf(9), ChopNode(12288, (_leaf(12), _leaf(13))))))))),
))


def test_verify_chop_tree_mutations(wc_quad, pool_quad):
    # each mutation of a valid quad4x4 tree fails its own flag
    tree = QUAD_TREE
    assert verify_chop_tree(tree, wc_quad, pool_quad).ok
    full = pool_quad.full_mask
    first = tree.roots[0]

    def failed(mutant):
        flags = dataclasses.asdict(verify_chop_tree(mutant, wc_quad, pool_quad))
        return {name for name, value in flags.items() if not value}

    # crossing: a node trades a pixel with its sibling; every order stays
    # below k once k is above the largest order.  Parts that cross cannot
    # all be split into their children, so stars_ok fails as well
    node, sibling = first.children
    crossed = node.part ^ (node.part & -node.part) ^ (sibling.part & -sibling.part)
    mutant = dataclasses.replace(
        _replace_in_tree(tree, node, dataclasses.replace(node, part=crossed)),
        k=pool_quad.max_order + 1)
    assert failed(mutant) == {"laminar", "stars_ok"}

    # a part of order >= k
    assert failed(dataclasses.replace(tree, k=tree.k - 1)) == {"orders_below_k"}

    # a lost half, and a doubled leaf as a third root
    assert failed(dataclasses.replace(tree, roots=(first,))) == {"leaves_biject_pixels"}
    leaf = next(n for n in first.walk() if not n.children)
    assert failed(dataclasses.replace(tree, roots=tree.roots + (leaf,))) == {
        "leaves_biject_pixels"}

    # overlapping roots: one grown to the full set keeps its two halves
    grown = ChopNode(full, first.children)
    assert failed(_replace_in_tree(tree, first, grown)) == {"stars_ok"}


def test_verify_chop_tree_rejects_non_void_split(wc_mono, pool_mono):
    # the roots 0b0111 and 0b1000 partition the canvas and every leaf is
    # one pixel, but pixel 2 hangs as a third root instead of under 0b0111,
    # so the star {0b0111, 0b0001*, 0b0010*} shares pixel 2
    leaf = {p: ChopNode(1 << p, ()) for p in range(4)}
    split = ChopNode(0b0111, (leaf[0], leaf[1]))
    tree = duality.ChopTree(pool_mono.max_order + 1, (split, leaf[3], leaf[2]))
    report = verify_chop_tree(tree, wc_mono, pool_mono)
    assert dataclasses.asdict(report) == {
        "laminar": True, "orders_below_k": True,
        "leaves_biject_pixels": True, "stars_ok": False}


def test_chop_tree_one_pixel():
    wc = weighted(one_pixel)
    for k in (1, 2):
        tree = build_chop_tree(wc, k)
        assert tree is not None and len(tree.roots) == 1
        assert verify_chop_tree(tree, wc).ok


def test_chop_tree_full_universe():
    # the flat 5x4: every order is 0, so stratum 1 is the full universe
    # (524,287 pairs, above CHOP_TREE_PAIR_LIMIT) and every split is a line
    wc = WeightedCanvas.from_picture(picture(5, 4, [0] * 20))
    pool = build_universe(wc, pixel_cap=20)
    assert len(pool.stratum(1).pairs) == (1 << 19) - 1
    # the build leaves no reference cycle for the collector to free
    gc.collect()
    gc.disable()
    try:
        tree = build_chop_tree(wc, 1, pool)
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert tree is not None
    assert verify_chop_tree(tree, wc, pool).ok


def test_chop_tree_rejects_bad_k(wc_mono):
    with pytest.raises(ValueError):
        build_chop_tree(wc_mono, 0)


def test_duality_mono(pool_mono):
    for k in (1, 2, 3, 4):
        report = verify_duality(pool_mono, k)
        assert report.exclusive and report.ok


def test_duality_all_white_3x3():
    wc = weighted(lambda: picture(3, 3, [0] * 9))
    assert wc.N == 0
    report = verify_duality(build_universe(wc), 1)
    assert report.ok


def test_resolution_mono(wc_mono):
    assert max_supported_resolution(wc_mono) == 2


def test_resolution_one_pixel():
    assert max_supported_resolution(weighted(one_pixel)) == 0


def test_non_principal_f_tangle():
    # the resolution exceeds every single-pixel order, so the search, not a
    # principal orientation toward some pixel, must supply the top F-tangle
    wc = weighted(dot4x5)
    pool = build_universe(wc)
    assert max(pool.order_of(1 << p) for p in range(wc.npixels)) == 4
    assert max_supported_resolution(wc) == 5
    stratum = pool.stratum(5)
    assert len(stratum.pairs) == 129
    (tangle,) = f_tangles(stratum)
    assert is_profile(tangle) and not is_focused(tangle)
    assert not is_principal(tangle)
    report, ok = analyze(wc)
    verdicts = {v["k"]: v for v in report["duality"]["verdicts"]}
    assert ok
    assert verdicts[5]["f_tangle"] is True
    assert verdicts[6]["chop_tree"] is True and verdicts[6]["chop_tree_valid"] is True


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
