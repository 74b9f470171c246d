"""The eight acceptance criteria, one test and one printed verdict each."""
from __future__ import annotations

import time

import numpy as np
import pytest

from corpus import (LARGE_PICTURES, SMALL_PICTURES, TWELVE_PIXEL_PICTURES,
                    lcg_stream, weighted)
from oracles import naive_profiles
from tanglescope import (analyze, build_chop_tree, build_distinguishing_tree_set,
                         build_universe, distinguishes, encode_report,
                         enumerate_profiles, find_f_tangle, is_focused,
                         max_supported_resolution, regions, verify_chop_tree,
                         verify_tree_set)
from tanglescope.duality import enumerate_f_prime_tangles
from tanglescope.fixtures import fixture_canvas, noisedisc_masks
from tanglescope.report import select_representatives


def _verdict(capsys, number: int, label: str, ok: bool, elapsed: float):
    with capsys.disabled():
        print(f"\n[criterion {number}] {label}: "
              f"{'PASS' if ok else 'FAIL'} ({elapsed:.1f}s)")
    assert ok, f"criterion {number} ({label}) failed"


def test_criterion_1_submodularity(capsys):
    t0 = time.time()
    ok = True
    for name in sorted(SMALL_PICTURES):
        wc = weighted(SMALL_PICTURES[name])
        assert wc.npixels <= 9
        table = wc.all_orders().astype(np.int64)
        masks = np.arange(wc.full_mask + 1, dtype=np.uint64)
        for a in range(wc.full_mask + 1):
            av = np.uint64(a)
            lhs = table[np.bitwise_and(av, masks)] + table[np.bitwise_or(av, masks)]
            if not np.all(lhs <= table[a] + table):
                ok = False
    for name in sorted(LARGE_PICTURES):
        wc = weighted(LARGE_PICTURES[name])
        assert 16 <= wc.npixels <= 20
        table = wc.all_orders().astype(np.int64)
        samples = lcg_stream(sum(name.encode()), 20_000, bits=wc.npixels)
        a = np.array(samples[:10_000], dtype=np.uint64)
        b = np.array(samples[10_000:], dtype=np.uint64)
        lhs = table[a & b] + table[a | b]
        if not np.all(lhs <= table[a] + table[b]):
            ok = False
    elapsed = time.time() - t0
    _verdict(capsys, 1, "order function is submodular", ok and elapsed < 10,
             elapsed)


def test_criterion_2_letter_l(capsys, wc_minil, pool_minil):
    t0 = time.time()
    orders = wc_minil.all_orders()
    zero_sides = np.nonzero(orders == 0)[0]
    proper = [int(s) for s in zero_sides if 0 < s < wc_minil.full_mask]
    l_mask = sum(1 << (r * 5 + c) for r in range(5) for c in range(5)
                 if c == 0 or (r == 4 and c <= 2))
    unique_zero_line = sorted(proper) == sorted(
        [l_mask, l_mask ^ wc_minil.full_mask])
    rs = regions(pool_minil)
    two_complexity_one = sum(r.complexity == 1 for r in rs) == 2
    elapsed = time.time() - t0
    _verdict(capsys, 2, "letter-L outline and regions",
             unique_zero_line and two_complexity_one and elapsed < 60, elapsed)


def test_criterion_3_tree_sets(capsys, wc_mono, pool_mono, pool_quad, pool_minil):
    t0 = time.time()
    ok = True
    cases = [
        (pool_mono, list(enumerate_profiles(pool_mono.stratum(1)))),
        (pool_quad, select_representatives(regions(pool_quad))),
        (pool_minil, select_representatives(regions(pool_minil))),
    ]
    for pool, profs in cases:
        tree = build_distinguishing_tree_set(profs, pool)
        report = verify_tree_set(tree, profs)
        ok = ok and report.ok
    elapsed = time.time() - t0
    _verdict(capsys, 3, "tree sets verify", ok and elapsed < 120, elapsed)


def test_criterion_4_quadrants(capsys, wc_quad, pool_quad):
    t0 = time.time()
    quad_profiles = [p for p in enumerate_profiles(pool_quad.stratum(3))
                     if not is_focused(p)]
    four = len(quad_profiles) == 4
    tree = build_distinguishing_tree_set(quad_profiles, pool_quad)
    three_lines = len(tree) == 3
    # no 2 lines orientable by all four profiles distinguish every pair
    candidates = pool_quad.stratum(3).pairs
    pairs = [(p, q) for i, p in enumerate(quad_profiles)
             for q in quad_profiles[i + 1:]]
    no_two_suffice = not any(
        all(distinguishes(a, p, q) or distinguishes(b, p, q)
            for p, q in pairs)
        for i, a in enumerate(candidates) for b in candidates[i + 1:]
    )
    elapsed = time.time() - t0
    _verdict(capsys, 4, "quadrant tree set is 3 lines, 2 never suffice",
             four and three_lines and no_two_suffice, elapsed)


def test_criterion_5_duality_dichotomy(capsys):
    t0 = time.time()
    ok = True
    for name in sorted(TWELVE_PIXEL_PICTURES):
        wc = weighted(TWELVE_PIXEL_PICTURES[name])
        assert wc.npixels <= 12
        pool = build_universe(wc)
        chop_seen = False
        for k in range(1, pool.max_order + 2):
            tangle = find_f_tangle(pool.stratum(k))
            tree = build_chop_tree(wc, k, pool)
            if (tangle is None) == (tree is None):
                ok = False
            if tree is not None and not verify_chop_tree(tree, wc, pool).ok:
                ok = False
            if chop_seen and tree is None:
                ok = False  # chop trees must persist at larger k
            chop_seen = chop_seen or tree is not None
    elapsed = time.time() - t0
    _verdict(capsys, 5, "duality dichotomy sweep", ok and elapsed < 300,
             elapsed)


def test_criterion_6_resolution(capsys):
    t0 = time.time()
    mono_ok = max_supported_resolution(fixture_canvas("mono2x2")) == 2
    wc = fixture_canvas("noisedisc4x4")
    block, rest = noisedisc_masks()
    noise_ok = (max_supported_resolution(wc, subset=block)
                > max_supported_resolution(wc, subset=rest))
    _verdict(capsys, 6, "supported resolution", mono_ok and noise_ok,
             time.time() - t0)


def test_criterion_7_footnote_equivalence(capsys, pool_mono, pool_minil):
    t0 = time.time()
    ok = True
    for pool in (pool_mono, pool_minil):
        # compare enumerations level by level until both families consist
        # of focused orientations only
        k = 0
        while True:
            k += 1
            profs = enumerate_profiles(pool.stratum(k))
            fprime = enumerate_f_prime_tangles(pool.stratum(k))
            if {p.chosen for p in profs} != {t.chosen for t in fprime}:
                ok = False
                break
            all_focused = (all(is_focused(p) for p in profs)
                           and all(is_focused(t) for t in fprime))
            if all_focused or k > pool.max_order:
                break
        # past a level where every member of both families is focused,
        # both families equal the principal orientations at every higher
        # level: restrictions stay within each family and keep any chosen
        # singleton, so everything above is focused, and consistency makes
        # a focused orientation principal; principal orientations in turn
        # always lie in both families.  The premise is `all_focused` above.
        ok = ok and all_focused
    elapsed = time.time() - t0
    _verdict(capsys, 7, "profiles equal F'-tangles at every level", ok,
             elapsed)


def test_criterion_8_oracle_equivalence(capsys):
    t0 = time.time()
    ok = True
    for name in sorted(TWELVE_PIXEL_PICTURES):
        wc = weighted(TWELVE_PIXEL_PICTURES[name])
        pool = build_universe(wc)
        for k in range(1, pool.max_order + 2):
            stratum = pool.stratum(k)
            if len(stratum.pairs) > 12:
                continue
            got = [p.chosen for p in enumerate_profiles(stratum)]
            if got != naive_profiles(stratum):
                ok = False
    # determinism: two fresh end-to-end runs emit identical bytes
    first = encode_report(analyze(fixture_canvas("quad4x4"))[0])
    second = encode_report(analyze(fixture_canvas("quad4x4"))[0])
    ok = ok and first == second
    _verdict(capsys, 8, "brute-force oracle equivalence and determinism",
             ok, time.time() - t0)
