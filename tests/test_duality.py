from __future__ import annotations

import dataclasses
import functools
import gc
import hashlib
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tanglescope.duality as duality
import tanglescope.profiles as profiles_module
import tanglescope.report as report_module
import tanglescope.search as search_module
from corpus import (TWELVE_PIXEL_PICTURES, defect4x4, dot4x5, lshape3x3, one_pixel,
                    picture, random_weighted, weighted)
from oracles import (ReferenceSearch, StarSetF, _consistent, all_orientations,
                     carving_width, cut_order, full_orders, greedy_carving,
                     is_principal, members, naive_fprime_stars, naive_tangles,
                     orientation_of, plant, profile_of)
from tanglescope import (Profile, WeightedCanvas, analyze, build_chop_tree,
                         build_universe, enumerate_profiles, find_f_tangle, is_focused,
                         is_profile, max_supported_resolution, verify_chop_tree,
                         verify_duality)
from tanglescope.cli import main
from tanglescope.duality import ChopNode, ChopTree, carve_chop_tree, induced_subcanvas
from tanglescope.fixtures import fixture_canvas, noisedisc_masks
from tanglescope.profiles import f_tangles, principal
from tanglescope.search import SearchDefect, find_star_avoiding_orientation
from tanglescope.sepsys import consistent_sides, laminar_sides


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
    sides = sorted(members(s2))
    expected = [frozenset(c) for r in (1, 2, 3)
                for c in combinations(sides, r) if frozenset(c) in f]
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


def _mono2x2():
    # pixel orders (0, 1, 1, 2): stratum 3 is the full universe (7 pairs)
    return fixture_canvas("mono2x2")


def _unprincipal_stratum(canvas, k):
    # a level the closed form leaves alone, so a planted hit is read
    stratum = build_universe(canvas()).stratum(k)
    assert max(stratum.pool.pixel_orders) < k
    return stratum


def _plant_search(monkeypatch, bad):
    """Make the find-one search start from the planted orientation;
    returns the engines made.  `find_f_tangle` searches every level
    without a heavy pixel, one with a chop tree too.  A planted orientation that the engine's construction allows
    (consistent, no single pixel) is set whole, as if forcing had skipped
    its checks, and the leaf check alone decides it; any other is decided
    through the engine's propagation, one side at a time."""
    engines = []
    sides = bad.sides().tolist()
    whole = (consistent_sides(sides, bad.stratum.full_mask)
             and all(s.bit_count() > 1 for s in sides))

    class Planted(search_module._AssignmentSearch):
        def run(self, find_one=False):
            engines.append(self)
            if whole:
                plant(self, bad)
            elif not all(self._propagate(s) for s in sides):
                return []
            return super().run(find_one)

    monkeypatch.setattr(search_module, "_AssignmentSearch", Planted)
    return engines


def _stripe5x1():
    # pixel orders (1, 3, 3, 2, 1) and largest order 5, so level 4 is
    # searched (no full universe, no heavy pixel) over 11 pairs, few enough
    # for `_first_orientation`.  It has a chop tree and no F-tangle
    return WeightedCanvas.from_picture(picture(5, 1, [1, 0, 0, 1, 0]), 2)


_BAD_HITS = {
    "focused": lambda cons, prof, foc: prof and foc,
    "inconsistent": lambda cons, prof, foc: not cons and not foc,
    "non-profile": lambda cons, prof, foc: cons and not prof and not foc,
    "focused-non-profile": lambda cons, prof, foc: not prof and foc,
}


@pytest.mark.parametrize("kind", ["focused", "inconsistent", "non-profile"])
def test_find_f_tangle_rejects_bad_hits(monkeypatch, kind):
    # find_f_tangle returns the search's hit as found, so the search keeps
    # no bad leaf: a focused or inconsistent one conflicts in propagation,
    # and a consistent non-profile fails the leaf check
    stratum = _unprincipal_stratum(_stripe5x1, 4)
    bad = profile_of(stratum, _first_orientation(stratum, _BAD_HITS[kind]))
    engines = _plant_search(monkeypatch, bad)
    assert find_f_tangle(stratum) is None
    (engine,) = engines
    assert engine.dropped == (kind == "non-profile")


@pytest.mark.parametrize("kind", ["inconsistent", "non-profile", "focused-non-profile"])
def test_find_f_tangle_rejects_bad_listed_hits(monkeypatch, kind):
    # no verdict reads a list of the level's F-tangles: with a bad
    # orientation planted in the pool's list, verify_duality answers level
    # 4 from its verified chop tree and lists the level as empty; planted
    # as the search's first leaf, find_f_tangle does not return it either
    stratum = _unprincipal_stratum(_stripe5x1, 4)
    bad = profile_of(stratum, _first_orientation(stratum, _BAD_HITS[kind]))
    stratum.pool._f_tangles[4] = (bad,)
    d = verify_duality(stratum.pool, 4)
    assert d.f_tangle is None and d.chop_tree is not None and d.ok is True
    assert stratum.pool._f_tangles[4] == ()
    stratum = _unprincipal_stratum(_stripe5x1, 4)
    engines = _plant_search(monkeypatch, profile_of(stratum, bad.chosen))
    assert find_f_tangle(stratum) is None and len(engines) == 1


def _bad_principal(kind, stratum, p):
    """The principal orientation toward p, spoilt in the named way."""
    if kind == "single-pixel side":
        light = next(q for q, order in enumerate(stratum.pool.pixel_orders)
                     if order < stratum.k)
        return principal(stratum, light)
    good = principal(stratum, p)
    if kind == "wrong length":
        # a side missing: the bit form's malformed answer, refused when built
        return Profile(stratum, good.bits[:-1])
    # the other side of the smallest chosen side whose complement is not a
    # single pixel: one side per pair still, and no single pixel
    full = stratum.full_mask
    side = min(s for s in good.chosen if (s ^ full).bit_count() > 1)
    flipped = stratum.pairs == (side ^ full if side & 1 else side)
    return Profile(stratum, good.bits ^ flipped)


@pytest.mark.parametrize("kind", ["single-pixel side", "wrong length", "no common pixel"])
def test_find_f_tangle_rejects_bad_principal_hits(monkeypatch, kind):
    # mono2x2 k=2 is answered in closed form toward pixel 3, the one pixel
    # of order >= 2; the planted builder spoils that answer, and the
    # closed form's certificate, with no definition-level check, catches it
    stratum = build_universe(fixture_canvas("mono2x2")).stratum(2)
    assert stratum.pool.pixel_orders == (0, 1, 1, 2)
    built, checked = [], []
    monkeypatch.setattr(duality, "principal",
                        lambda s, p: built.append(p) or _bad_principal(kind, s, p))
    monkeypatch.setattr(profiles_module, "is_profile",
                        lambda o: checked.append(o) or is_profile(o))
    if kind == "wrong length":
        with pytest.raises(ValueError):
            find_f_tangle(stratum)
    else:
        with pytest.raises(SearchDefect, match="certificate"):
            find_f_tangle(stratum)
    assert built == [3] and checked == []
    if kind == "no common pixel":
        # no single pixel is chosen: the missing common pixel fails it
        assert not any(s.bit_count() == 1 for s in _bad_principal(kind, stratum, 3).chosen)


def test_principal_levels_are_not_searched(monkeypatch, wc_quad):
    # quad4x4's pixel orders are 4 and 5, so every level up to 5 is answered
    # in closed form: the principal orientation toward the lowest pixel of
    # order >= k, and no chop tree
    def no_search(stratum):
        raise AssertionError("a principal level reached the search")
    monkeypatch.setattr(duality, "find_star_avoiding_orientation", no_search)
    pool, fresh = build_universe(wc_quad), build_universe(wc_quad)
    assert (min(pool.pixel_orders), max(pool.pixel_orders)) == (4, 5)
    for k, pixel in ((1, 0), (2, 0), (3, 0), (4, 0), (5, 4)):
        stratum = pool.stratum(k)
        assert find_f_tangle(stratum) == principal(stratum, pixel)
        assert build_chop_tree(wc_quad, k, fresh) is None
    # the chop search reads the stratum's pairs; the closed form builds none
    assert not fresh._strata


def _bad_mono2x2_tree():
    # hangs pixel 2 as a third root, so it fails verification: its star at
    # 0b0111 is not void
    leaf = {p: ChopNode(1 << p, ()) for p in range(4)}
    return ChopTree(3, (ChopNode(0b0111, (leaf[0], leaf[1])), leaf[3], leaf[2]))


def test_verify_duality_fails_on_unverified_chop_tree(monkeypatch, tmp_path, wc_mono):
    # mono2x2 k=3 is settled by its chop tree; a planted tree that fails
    # verification gives a failed verdict, the level is searched and not
    # listed, and analyze fails, with exit code 2 from the CLI
    bad = _bad_mono2x2_tree()
    pool = build_universe(wc_mono)
    assert not verify_chop_tree(bad, wc_mono, pool).ok
    build, searched = duality.build_chop_tree, []
    find = duality.find_star_avoiding_orientation
    monkeypatch.setattr(duality, "build_chop_tree",
                        lambda wc, k, pool: bad if k == 3 else build(wc, k, pool))
    monkeypatch.setattr(duality, "find_star_avoiding_orientation",
                        lambda stratum: searched.append(stratum.k) or find(stratum))
    d = verify_duality(pool, 3)
    assert d.ok is False and d.chop_tree_report.ok is False
    assert d.f_tangle is None and searched == [3]
    assert 3 not in pool._f_tangles
    report, ok = analyze(wc_mono)
    assert ok is False and report["verified"]["duality"] is False
    assert report["duality"]["verdicts"][-1]["chop_tree_valid"] is False
    main(["fixtures", "mono2x2", "-o", str(tmp_path)])
    assert main(["analyze", str(tmp_path / "mono2x2.grid")]) == 2


def test_resolution_rejects_unverified_carved_tree(monkeypatch, wc_mono):
    # the same planted tree, carved at mono2x2's first unprincipal level:
    # the query raises instead of answering, and nothing falls through to
    # the exact path.  With no carving, the planted tree reaches the exact
    # path, and its failed verdict raises too
    bad = _bad_mono2x2_tree()
    exact = duality.verify_duality
    monkeypatch.setattr(duality, "carve_chop_tree", lambda wc, k: bad)
    monkeypatch.setattr(duality, "verify_duality", lambda pool, k: pytest.fail("exact path"))
    with pytest.raises(SearchDefect, match="carved"):
        max_supported_resolution(wc_mono)
    monkeypatch.setattr(duality, "carve_chop_tree", lambda wc, k: None)
    monkeypatch.setattr(duality, "verify_duality", exact)
    monkeypatch.setattr(duality, "build_chop_tree", lambda wc, k, pool: bad)
    with pytest.raises(SearchDefect, match="verdict at k=3"):
        max_supported_resolution(wc_mono)


@pytest.mark.parametrize("name", ["mono2x2", "quad4x4"])
def test_find_f_tangle_builds_no_chop_tree(monkeypatch, name):
    # verify_duality owns the chop tree: find_f_tangle answers every level,
    # one with a tree too, by the closed form or the search, and lists none
    wc = fixture_canvas(name)
    top = build_universe(wc).max_order + 1
    expected = [verify_duality(build_universe(wc), k).f_tangle is not None
                for k in range(1, top + 1)]

    def no_tree(*args):
        raise AssertionError("find_f_tangle reached the chop tree")
    monkeypatch.setattr(duality, "build_chop_tree", no_tree)
    monkeypatch.setattr(duality, "verify_chop_tree", no_tree)
    pool = build_universe(wc)
    assert [find_f_tangle(pool.stratum(k)) is not None for k in range(1, top + 1)] == expected
    assert not pool._f_tangles


def _swept_resolution(wc):
    # a plain sweep from k=1 over the find-one engine alone
    pool = build_universe(wc)
    best = 0
    for k in range(1, pool.max_order + 2):
        if find_star_avoiding_orientation(pool.stratum(k)) is None:
            break
        best = k
    return best


def test_resolution_needs_no_search(monkeypatch, wc_mono):
    # every level these sweeps decide is principal or has a chop tree
    wc = fixture_canvas("noisedisc4x4")
    block, rest = noisedisc_masks()
    cases = [(wc_mono, None), (wc, block), (wc, rest)]
    expected = [_swept_resolution(w if subset is None else induced_subcanvas(w, subset))
                for w, subset in cases]

    def no_search(stratum):
        raise AssertionError("the resolution sweep reached the search")
    monkeypatch.setattr(duality, "find_star_avoiding_orientation", no_search)
    got = [max_supported_resolution(w, subset=subset) for w, subset in cases]
    assert got == expected
    assert got[0] == 2 and got[1] > got[2]


def test_analyze_settles_chop_tree_levels_once(monkeypatch, wc_quad):
    # regions does not enumerate a level that the sweep settled by its
    # chop tree, and each level's tree is built and verified at most once
    enumerated, built, verified = [], Counter(), Counter()
    enumerate_orientations = profiles_module.enumerate_profile_orientations
    build, verify = duality.build_chop_tree, duality.verify_chop_tree
    monkeypatch.setattr(profiles_module, "enumerate_profile_orientations",
                        lambda s: enumerated.append(s.k) or enumerate_orientations(s))
    monkeypatch.setattr(duality, "build_chop_tree",
                        lambda wc, k, pool: built.update([k]) or build(wc, k, pool))
    monkeypatch.setattr(duality, "verify_chop_tree",
                        lambda tree, wc, pool: verified.update([tree.k])
                        or verify(tree, wc, pool))
    report, ok = analyze(wc_quad)
    assert ok
    settled = {v["k"] for v in report["duality"]["verdicts"] if v["chop_tree"]}
    assert settled == {6}
    assert enumerated and not settled & set(enumerated)
    assert set(verified) == settled
    assert max(built.values()) == max(verified.values()) == 1


def test_fprime_matches_naive_oracle(pool_mono):
    # the reference's F'-tangle mode, which the footnote-equivalence tests
    # compare the profiles against, checked against brute force
    for k in range(1, pool_mono.max_order + 2):
        stratum = pool_mono.stratum(k)
        if len(stratum.pairs) > 12:
            continue
        stars = naive_fprime_stars(stratum)
        got = sorted(ReferenceSearch(stratum, unfocused=False).run(), key=sorted)
        assert got == naive_tangles(stratum, stars)


@pytest.mark.parametrize("canvas", [_mono2x2, lambda: weighted(lshape3x3)],
                         ids=["mono2x2", "lshape3x3"])
def test_full_universe_fprime_tangles_are_principal(canvas):
    # over the full universe every F'-tangle is principal: if no single
    # pixel is chosen then every inverse of one is, and for a minimal chosen
    # member m with p in m the star {m, {p}*, (m minus p)*} lies in F', so
    # m minus p is chosen, descending to a single pixel
    pool = build_universe(canvas())
    stratum = pool.stratum(pool.max_order + 1)
    assert len(stratum.pairs) == (1 << (pool.wc.npixels - 1)) - 1
    got = sorted(ReferenceSearch(stratum, unfocused=False).run(), key=sorted)
    assert got == [principal(stratum, p).chosen for p in range(pool.wc.npixels)]


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


def test_flat5x5_stratum_is_a_uint32_array(monkeypatch):
    # every order of the flat 5x5 is 0, so stratum 1 is the full universe:
    # 2^24 - 1 pairs, held as uint32 sides and not as Python ints
    pools = []
    monkeypatch.setattr(report_module, "build_universe",
                        lambda wc, cap: pools.append(build_universe(wc, cap)) or pools[-1])
    wc = WeightedCanvas.from_picture(picture(5, 5, [0] * 25, pixel_cap=25))
    report, ok = analyze(wc, pixel_cap=25)
    assert full_orders(wc).dtype == np.uint8
    (pool,) = pools
    stratum = pool.stratum(1)
    assert stratum.pairs.dtype == np.uint32
    assert stratum.pairs.nbytes == 4 * ((1 << 24) - 1)
    assert report["duality"]["verdicts"] == [{
        "k": 1, "f_tangle": False, "chop_tree": None, "chop_tree_valid": None,
        "ok": "skipped"}]
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


def test_chop_trees_are_unchanged():
    # 36 seeded 9- to 16-px pictures, one order-table block or two to eight,
    # and every level whose stratum the duality report would chop: 540
    # (picture, k) cases, 400 of them with a tree.  The digest of their
    # trees was recorded before the order table was factored, and the
    # trees must not change with the way their orders are read
    rng = random.Random(2020)
    shapes = [(3, 3), (3, 4), (4, 3), (2, 6), (4, 4), (2, 7), (7, 2), (3, 5), (5, 3)]
    digest = hashlib.sha256()
    for i in range(36):
        width, height = shapes[i % len(shapes)]
        n = 1 + i % 2
        pic = picture(width, height, [rng.randrange(1 << n) for _ in range(width * height)],
                      n=n)
        wc = WeightedCanvas.from_picture(pic)
        pool = build_universe(wc)
        for k in range(1, pool.max_order + 2):
            if len(pool.stratum(k).pairs) <= duality.CHOP_TREE_PAIR_LIMIT:
                digest.update(repr(build_chop_tree(wc, k, pool)).encode())
    assert digest.hexdigest() == \
        "c32d463626ea72835b35edcb538ba41800efb17179e834d94d18e9e5131f3f5f"


@settings(deadline=None, max_examples=40)
@given(random_weighted(max_pixels=8, max_extra_N=3))
def test_chop_tree_reads_folded_orders(wc):
    # canonical sides (pixel 0 outside) may hold the top pixel, whose orders
    # build_chop_tree reads folded: a tree is built exactly where splits of
    # order below k, checked with the scalar order, chop down to pixels
    pool = build_universe(wc)
    top = 1 << (wc.npixels - 1)
    for k in range(1, pool.max_order + 2):
        ordered = {s for s in range(1, wc.full_mask) if wc.order(s) < k}

        @functools.cache
        def choppable(part):
            return part.bit_count() == 1 or any(
                c & part == c and c < part ^ c and part ^ c in ordered
                and choppable(c) and choppable(part ^ c) for c in ordered)

        tree = build_chop_tree(wc, k, pool)
        assert (tree is not None) == choppable(wc.full_mask)
        if tree is not None:
            assert verify_chop_tree(tree, wc, pool).ok
            if wc.npixels > 1:
                assert any(c & top for c in pool.stratum(k).pairs.tolist())


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


@settings(deadline=None, max_examples=100)
@given(random_weighted(max_pixels=8), st.data())
def test_verify_chop_tree_laminar_flag_is_the_pairwise_test(wc, data):
    # the verifier runs the pairwise laminarity test only where its checked
    # splits do not imply laminarity; on carved trees with one node's part
    # redrawn, a third root that splits into two pixels, or the roots
    # reversed, its flag is still the pairwise test over every part
    full = wc.full_mask
    tree = carve_chop_tree(wc, sum(wc.N - d for d in wc.delta) + 1)
    pool = build_universe(wc)
    node = data.draw(st.sampled_from(list(tree.nodes())))
    p, q = (data.draw(st.integers(0, wc.npixels - 1)) for _ in range(2))
    mutant = data.draw(st.sampled_from([
        tree,
        _replace_in_tree(tree, node, dataclasses.replace(
            node, part=data.draw(st.integers(0, full)))),
        dataclasses.replace(tree, roots=tree.roots + (
            ChopNode(1 << p | 1 << q, (_leaf(p), _leaf(q))),)),
        dataclasses.replace(tree, roots=tree.roots[::-1]),
    ]))
    assert verify_chop_tree(mutant, wc, pool).laminar == laminar_sides(
        [n.part for n in mutant.nodes()], full)


def test_chop_tree_one_pixel():
    wc = weighted(one_pixel)
    pool = build_universe(wc)
    for k in (1, 2):
        tree = build_chop_tree(wc, k, pool)
        assert tree is not None and len(tree.roots) == 1
        assert verify_chop_tree(tree, wc, pool).ok


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


def test_chop_tree_rejects_bad_k(wc_mono, pool_mono):
    with pytest.raises(ValueError):
        build_chop_tree(wc_mono, 0, pool_mono)


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


def test_defect4x4_principal_levels():
    # every level up to the largest pixel order is principal; searching and
    # re-checking level 4's F-tangle over its 30,719 pairs took minutes
    wc = weighted(defect4x4)
    pool = build_universe(wc)
    assert max(pool.pixel_orders) == 4
    assert len(pool.stratum(4).pairs) == 30719
    assert max_supported_resolution(wc) == 4
    for k in range(1, 6):
        assert verify_duality(pool, k).ok is True


def test_defect4x4_analyze_lists_one_principal_f_tangle_per_level():
    # regions enumerate levels 1-4 (2,047 to 30,719 pairs); with the
    # co-pointing check run on every forced superset this took about 60 s
    wc = weighted(defect4x4)
    _, ok = analyze(wc)
    assert ok
    pool = build_universe(wc)
    for k in range(1, 5):
        stratum = pool.stratum(k)
        (tangle,) = f_tangles(stratum)
        assert tangle == principal(stratum, 5)


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
        fprime = set(ReferenceSearch(stratum, unfocused=False).run())
        assert profs == fprime


def test_chop_tree_monotone_in_k(wc_mono, pool_mono):
    found = False
    for k in range(1, pool_mono.max_order + 2):
        tree = build_chop_tree(wc_mono, k, pool_mono)
        if found:
            assert tree is not None
        found = found or tree is not None


@settings(deadline=None, max_examples=100)
@given(random_weighted(max_pixels=10), st.sets(st.integers(0, 9), max_size=3))
def test_resolution_is_the_weighted_carving_width(wc, removed):
    # Seymour and Thomas's carving width, computed with no code of the
    # package: a chop tree at k is a carving of width below k, so by the
    # duality the F-tangles lie exactly at k <= width.  Induced subcanvases
    # of up to three pixels fewer are included, disconnected ones too
    wc = induced_subcanvas(wc, wc.full_mask & ~sum(1 << p for p in removed) or wc.full_mask)
    width = carving_width(wc)
    assert max_supported_resolution(wc) == width
    pool = build_universe(wc)
    for k in range(1, pool.max_order + 2):
        assert (verify_duality(pool, k).f_tangle is not None) == (k <= width)
        assert (build_chop_tree(wc, k, pool) is not None) == (width < k)


@settings(deadline=None, max_examples=100)
@given(random_weighted(max_pixels=10), st.sets(st.integers(0, 9), max_size=3))
def test_carved_trees_verify_above_the_carving_width(wc, removed):
    # the bottom-up carving is sound: every tree it returns passes the
    # verifier, which reads each order off the cut definition here (the
    # canvas has no table), so trees appear only at k > width.  Induced
    # subcanvases as in test_resolution_is_the_weighted_carving_width
    wc = induced_subcanvas(wc, wc.full_mask & ~sum(1 << p for p in removed) or wc.full_mask)
    width = carving_width(wc)
    top = build_universe(WeightedCanvas(wc.picture, wc.delta, wc.N)).max_order
    pool = build_universe(wc)
    for k in range(1, top + 2):
        tree = carve_chop_tree(wc, k)
        if tree is not None:
            assert tree.k == k and verify_chop_tree(tree, wc, pool).ok
            assert k > width
    assert not wc._order_cache


def _recursive_preorder(node):
    yield node
    for child in node.children:
        yield from _recursive_preorder(child)


@settings(deadline=None, max_examples=100)
@given(random_weighted(max_pixels=10, max_extra_N=3), st.integers(0, 1023), st.booleans())
def test_carving_matches_the_full_rescan_greedy(wc, subset, induced):
    # the carving keeps its candidate merges from one merge to the next;
    # the greedy that rescanned every adjacency at each merge gives the
    # same tree node for node, or None, at every level.  Induced
    # subcanvases of any pixel subset are included, disconnected ones too
    if induced:
        wc = induced_subcanvas(wc, subset & wc.full_mask or wc.full_mask)
    top = max(cut_order(wc, s) for s in range(wc.full_mask + 1))
    for k in range(1, top + 2):
        tree = carve_chop_tree(wc, k)
        assert tree == greedy_carving(wc, k)
        if tree is not None:
            # the explicit-stack walks visit the nodes in recursive preorder
            expected = [n for root in tree.roots for n in _recursive_preorder(root)]
            assert [id(n) for n in tree.nodes()] == [id(n) for n in expected]
            assert ([id(n) for n in tree.roots[0].walk()]
                    == [id(n) for n in _recursive_preorder(tree.roots[0])])


def _dot5x5():
    return picture(5, 5, [int(p == 12) for p in range(25)], pixel_cap=25)


@pytest.mark.parametrize("wc, k, cap", [
    # three components: the carving never merges parts that share no edge
    (induced_subcanvas(weighted(lambda: picture(3, 3, [0, 2, 0, 3, 2, 1, 1, 0, 2], n=2)),
                       0x16A), 2, 20),
    # a connected 25-px glyph where the greedy merge order misses the tree
    (weighted(_dot5x5), 5, 25),
], ids=["three-components", "dot5x5"])
def test_resolution_falls_back_where_the_carving_fails(wc, k, cap):
    # a chop tree exists at k but the carving finds none, so the level goes
    # to the exact path, and the answer is still k - 1
    pool = build_universe(wc, pixel_cap=cap)
    assert carve_chop_tree(wc, k) is None
    assert build_chop_tree(wc, k, pool) is not None
    assert find_f_tangle(pool.stratum(k - 1)) is not None
    expected = (carving_width(wc) if wc.npixels <= 10
                else analyze(wc, pixel_cap=cap)[0]["duality"]["max_supported_resolution"])
    assert max_supported_resolution(wc, pixel_cap=cap) == expected == k - 1


def test_carved_resolution_builds_no_table_and_no_cycle(monkeypatch):
    # a query settled by a carved tree builds no order table and no
    # stratum, hence no pool reference cycle (pool, strata): with gc off,
    # nothing is left for the collector.  The flat 8x4 would need an
    # 8 GiB stratum 1; carved, it answers 0 with no table
    block, rest = noisedisc_masks()
    cases = [(fixture_canvas("mono2x2"), None), (fixture_canvas("noisedisc4x4"), block),
             (fixture_canvas("noisedisc4x4"), rest), (fixture_canvas("noisedisc4x4"), None)]
    expected = [_swept_resolution(w if subset is None else induced_subcanvas(w, subset))
                for w, subset in cases] + [0]
    # fresh canvases: the sweep above built the tables of mono2x2 and noisedisc4x4
    cases = [(WeightedCanvas(w.picture, w.delta, w.N), subset, 20) for w, subset in cases]
    cases.append((WeightedCanvas.from_picture(picture(8, 4, [0] * 32, pixel_cap=32)), None, 32))

    def no_table(self):
        raise AssertionError("a carved query built an order table")
    monkeypatch.setattr(WeightedCanvas, "all_orders", no_table)
    gc.collect()
    gc.disable()
    try:
        got = [max_supported_resolution(w, subset=subset, pixel_cap=cap)
               for w, subset, cap in cases]
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert got == expected
