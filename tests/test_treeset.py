from __future__ import annotations

import pytest

from tanglescope import (build_distinguishing_tree_set,
                         consistent_orientations, enumerate_profiles,
                         min_distinguishers, outline, regions, splitting_stars,
                         verify_tree_set)
from tanglescope.report import select_representatives
from tanglescope.sepsys import laminar_sides
from tanglescope.treeset import TreeSet, make_tree_set


@pytest.fixture(scope="module")
def mono_s1(pool_mono):
    return enumerate_profiles(pool_mono.stratum(1))


@pytest.fixture(scope="module")
def quad_reps(pool_quad):
    return select_representatives(regions(pool_quad))


@pytest.fixture(scope="module")
def quad_tree(quad_reps, pool_quad):
    return build_distinguishing_tree_set(quad_reps, pool_quad)


def test_min_distinguishers_mono(mono_s1, pool_mono):
    p, q = mono_s1
    lines = min_distinguishers(p, q)
    assert lines == {0b1110}
    assert pool_mono.order_of(0b1110) == 0
    with pytest.raises(ValueError):
        min_distinguishers(p, p)


def test_build_mono(mono_s1, pool_mono):
    t = build_distinguishing_tree_set(mono_s1, pool_mono)
    assert t.lines == (0b1110,)
    report = verify_tree_set(t, mono_s1)
    assert report.ok


def test_build_singleton_profile_set(mono_s1, pool_mono):
    t = build_distinguishing_tree_set(mono_s1[:1], pool_mono)
    assert len(t) == 0


def test_build_rejects_indistinguishable(pool_mono):
    from tanglescope.profiles import restrict
    p2 = enumerate_profiles(pool_mono.stratum(2))[0]
    with pytest.raises(ValueError):
        build_distinguishing_tree_set([p2, restrict(p2, 1)], pool_mono)


def test_consistent_orientations_counts(pool_mono, quad_tree):
    empty = TreeSet(pool_mono, ())
    assert consistent_orientations(empty) == [frozenset()]
    single = make_tree_set(pool_mono, [0b1110])
    assert len(consistent_orientations(single)) == 2
    assert len(consistent_orientations(quad_tree)) == 4


def test_splitting_stars_single_line(pool_mono):
    single = make_tree_set(pool_mono, [0b1110])
    stars = splitting_stars(single)
    assert sorted(stars, key=sorted) == [frozenset({0b0001}), frozenset({0b1110})]


def test_quad_tree_shape(quad_tree, quad_reps):
    assert len(quad_tree) == 3
    report = verify_tree_set(quad_tree, quad_reps)
    assert report.laminar and report.efficiency
    assert report.minimality and report.bijection


def test_quad_outlines_are_splitting_stars(pool_quad, quad_tree):
    rs = regions(pool_quad)
    stars = set(map(frozenset, splitting_stars(quad_tree)))
    quads = [r for r in rs if (r.complexity, r.cohesion) == (3, 4)]
    outlines = {outline(rho, quad_tree) for rho in quads}
    assert len(outlines) == 4
    assert outlines <= stars


def test_region_without_lines_has_empty_outline(pool_mono):
    (rho,) = regions(pool_mono)
    assert outline(rho, TreeSet(pool_mono, ())) == frozenset()


def test_verify_flags_redundant_extra_line(mono_s1, pool_mono):
    t = build_distinguishing_tree_set(mono_s1, pool_mono)
    # 0b1100 is nested with 0b1110 and distinguishes nothing new
    extra = make_tree_set(pool_mono, list(t.lines) + [0b1100])
    report = verify_tree_set(extra, mono_s1)
    assert report.laminar and not report.minimality


def test_verify_flags_inefficient_substitution(quad_reps, pool_quad, quad_tree):
    # replace the whole tree with one high-order separating line per pair:
    # drop the cheapest line and substitute a worse distinguisher
    lines = list(quad_tree.lines)
    dropped = lines.pop(0)
    # find a line distinguishing the same pairs as `dropped` at higher order
    from tanglescope import distinguishes
    pairs = [(p, q) for i, p in enumerate(quad_reps) for q in quad_reps[i + 1:]
             if distinguishes(dropped, p, q)
             and not any(distinguishes(l, p, q) for l in lines)]
    stratum = pool_quad.stratum(min(p.k for p in quad_reps))
    substitute = next(
        c for c in sorted(stratum.pairs, key=lambda c: -pool_quad.order_of(c))
        if all(distinguishes(c, p, q) for p, q in pairs)
        and pool_quad.order_of(c) > pool_quad.order_of(dropped)
    )
    worse = make_tree_set(pool_quad, lines + [substitute])
    report = verify_tree_set(worse, quad_reps)
    assert not report.efficiency


def test_laminarity_of_build_outputs(quad_tree, pool_quad):
    assert laminar_sides(quad_tree.lines, pool_quad.full_mask)
