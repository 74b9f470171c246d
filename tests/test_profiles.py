from __future__ import annotations

import tracemalloc

import pytest
from hypothesis import given, settings

from corpus import (SMALL_PICTURES, TWELVE_PIXEL_PICTURES, picture, random_weighted,
                    weighted, white2x2)
from oracles import naive_profiles
from tanglescope import (Orientation, WeightedCanvas, build_universe,
                         distinguishable, distinguishes, enumerate_profiles,
                         equivalent, induces, is_focused, is_principal, is_profile,
                         refines, regions, restrict)
from tanglescope.fixtures import fixture_canvas
from tanglescope.profiles import focused_children, orientation_of, profile_levels


def _toward(stratum, pixel):
    """The orientation choosing, for every pair, the side containing pixel."""
    full = stratum.full_mask
    return orientation_of(
        stratum,
        [c if c >> pixel & 1 else c ^ full for c in stratum.pairs],
    )


def test_is_profile_examples(pool_mono):
    s1 = pool_mono.stratum(1)
    assert is_profile(orientation_of(s1, [0b1110]))
    assert is_profile(orientation_of(s1, [0b0001]))
    # missing the full side fails
    assert not is_profile(Orientation(s1, frozenset({0b1110})))
    # a direct violation: 0b1101 and 0b1011 chosen with the inverse of
    # their join 0b1001 chosen too
    s3 = pool_mono.stratum(3)
    base = _toward(s3, 3)
    assert is_profile(base)
    violator = orientation_of(s3, (base.chosen - {0b1001}) | {0b0110})
    assert not is_profile(violator)


def test_is_profile_rejects_disjoint_singletons(pool_mono):
    # the pairwise profile condition alone must catch two disjoint chosen
    # sides: their intersection is 0, whose inverse is the chosen full side
    top = pool_mono.stratum(pool_mono.max_order + 1)
    full = pool_mono.full_mask
    both = orientation_of(top, (_toward(top, 0).chosen - {0b0010 ^ full}) | {0b0010})
    assert {0b0001, 0b0010} <= both.chosen
    assert not is_profile(both)


def test_enumerate_mono_counts(pool_mono):
    assert len(enumerate_profiles(pool_mono.stratum(1))) == 2
    assert len(enumerate_profiles(pool_mono.stratum(2))) == 4
    s3 = enumerate_profiles(pool_mono.stratum(3))
    assert len(s3) == 4
    assert all(is_focused(p) for p in s3)


def test_enumerate_trivial_stratum():
    pool = build_universe(weighted(white2x2))
    # N = 0: the first stratum already contains every side
    profs = enumerate_profiles(pool.stratum(1))
    assert len(profs) == 4 and all(is_focused(p) for p in profs)


@pytest.mark.parametrize("name", sorted(SMALL_PICTURES))
def test_enumeration_matches_naive_filter(name):
    pool = build_universe(weighted(SMALL_PICTURES[name]))
    for k in range(1, pool.max_order + 2):
        stratum = pool.stratum(k)
        if len(stratum.pairs) > 12:
            continue
        got = [p.chosen for p in enumerate_profiles(stratum)]
        assert got == naive_profiles(stratum)


def test_every_enumerated_profile_passes_definition(pool_mono, pool_quad):
    for pool in (pool_mono, pool_quad):
        for k in range(1, min(pool.max_order + 2, 6)):
            for p in enumerate_profiles(pool.stratum(k)):
                assert is_profile(p)


def test_focus_and_principality(pool_mono):
    s1 = pool_mono.stratum(1)
    focused = next(p for p in enumerate_profiles(s1) if 0b0001 in p.chosen)
    assert is_focused(focused) and is_principal(focused)
    s2 = pool_mono.stratum(2)
    toward_p11 = next(p for p in enumerate_profiles(s2)
                      if all(c >> 3 & 1 for c in p.chosen))
    assert is_principal(toward_p11)
    assert not is_focused(toward_p11)  # the singleton {p11} has order 2


def test_focused_implies_principal(pool_mono, pool_quad):
    for pool in (pool_mono, pool_quad):
        for k in range(1, min(pool.max_order + 2, 6)):
            for p in enumerate_profiles(pool.stratum(k)):
                if is_focused(p):
                    assert is_principal(p)


def test_restriction_closure(pool_mono):
    for k in range(1, pool_mono.max_order + 2):
        for p in enumerate_profiles(pool_mono.stratum(k)):
            for ell in range(1, k + 1):
                q = restrict(p, ell)
                assert is_profile(q)
                assert induces(p, q)
    with pytest.raises(ValueError):
        restrict(enumerate_profiles(pool_mono.stratum(1))[0], 2)


def test_induces_example(pool_mono):
    s2 = pool_mono.stratum(2)
    toward_p11 = next(p for p in enumerate_profiles(s2)
                      if all(c >> 3 & 1 for c in p.chosen))
    background = next(p for p in enumerate_profiles(pool_mono.stratum(1))
                      if 0b1110 in p.chosen)
    assert induces(toward_p11, background)


def test_distinguishing(pool_mono):
    p1, p2 = enumerate_profiles(pool_mono.stratum(1))
    assert not distinguishable(p1, p1)
    assert distinguishable(p1, p2)
    assert distinguishes(0b1110, p1, p2)
    # an inducing profile is indistinguishable from its restriction
    for p in enumerate_profiles(pool_mono.stratum(2)):
        assert not distinguishable(p, restrict(p, 1))


def test_equivalence_is_an_equivalence(pool_mono):
    profs = [p for k in range(1, pool_mono.max_order + 2)
             for p in enumerate_profiles(pool_mono.stratum(k))]
    for p in profs:
        assert equivalent(p, p)
        for q in profs:
            assert equivalent(p, q) == equivalent(q, p)
            if p.k == q.k:
                assert equivalent(p, q) == (p == q)
            for r in profs:
                if equivalent(p, q) and equivalent(q, r):
                    assert equivalent(p, r)


@pytest.mark.parametrize("name", sorted(TWELVE_PIXEL_PICTURES) + ["quad4x4"])
def test_equivalence_classes_are_maximal_chains(name):
    # the regions are the equivalence classes with no focused member
    wc = (fixture_canvas(name) if name == "quad4x4"
          else weighted(TWELVE_PIXEL_PICTURES[name]))
    pool = build_universe(wc)
    levels = profile_levels(pool)
    rs = regions(pool)
    members = [p for rho in rs for p in rho.members]
    in_regions = set(members)
    assert len(in_regions) == len(members)
    assert not any(is_focused(p) for p in members)
    for rho in rs:
        chain = rho.members
        for lo, hi in zip(chain, chain[1:]):
            assert hi.k == lo.k + 1 and equivalent(lo, hi)
        first, last = chain[0], chain[-1]
        if first.k > 1:
            assert not equivalent(first, restrict(first, first.k - 1))
        assert not any(equivalent(last, r)
                       for r in enumerate_profiles(pool.stratum(last.k + 1)))
    # every other unfocused profile lies in a class with a focused member
    focused = [p for profs in levels.values() for p in profs if is_focused(p)]
    others = [p for profs in levels.values() for p in profs
              if not is_focused(p) and p not in in_regions]
    for u in others:
        assert any(equivalent(u, f) for f in focused if f.k > u.k)


@settings(deadline=None, max_examples=40)
@given(random_weighted())
def test_profiles_are_principal_orientations_plus_f_tangles(wc):
    # every level of profile_levels, and the full universe on top
    pool = build_universe(wc)
    for k in sorted(set(profile_levels(pool)) | {pool.max_order + 1}):
        stratum = pool.stratum(k)
        profs = enumerate_profiles(stratum)
        toward = [_toward(stratum, p).chosen for p in range(wc.npixels)
                  if pool.order_of(1 << p) < k]
        assert [p.chosen for p in profs if is_focused(p)] == toward
        assert all(is_profile(p) for p in profs if not is_focused(p))
        chosen = [p.chosen for p in profs]
        assert sorted(chosen, key=sorted) == chosen
        assert len(set(chosen)) == len(chosen)


@settings(deadline=None, max_examples=40)
@given(random_weighted(max_pixels=10))
def test_focused_children_match_restriction(wc):
    # on complete levels: the focused k-profiles that restrict to each
    # (k-1)-tangle are the principal orientations toward its focused
    # children, in pixel order
    pool = build_universe(wc)
    levels = profile_levels(pool)
    for k in sorted(levels)[1:]:
        above = [p for p in levels[k] if is_focused(p)]
        for q in levels[k - 1]:
            if is_focused(q):
                continue
            inducing = [p for p in above if restrict(p, k - 1) == q]
            pixels = [next(s for s in p.chosen if s.bit_count() == 1).bit_length() - 1
                      for p in inducing]
            assert focused_children(q) == pixels


def test_regions_never_build_focused_profiles():
    # the flat 5x4: every order is 0, so stratum 1 is the full universe
    # (524,287 pairs) and its 20 profiles are all focused; side sets for
    # them would take about 500 MiB, and regions stop at this level
    # without F-tangles
    wc = WeightedCanvas.from_picture(picture(5, 4, [0] * 20))
    pool = build_universe(wc, pixel_cap=20)
    assert len(pool.stratum(1).pairs) == (1 << 19) - 1
    tracemalloc.start()
    try:
        assert regions(pool) == ()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 << 20


def test_regions_mono(pool_mono):
    rs = regions(pool_mono)
    assert len(rs) == 1
    (rho,) = rs
    assert (rho.complexity, rho.cohesion, rho.visibility) == (1, 1, 0)
    assert not any(is_focused(p) for p in rho.members)


def test_regions_all_white():
    # every profile of the all-white picture is focused from the start
    rs = regions(build_universe(weighted(white2x2)))
    assert rs == ()


def test_regions_contiguous_levels(pool_quad):
    for rho in regions(pool_quad):
        ks = [p.k for p in rho.members]
        assert ks == list(range(rho.complexity, rho.cohesion + 1))


def test_refines_quad(pool_quad):
    rs = regions(pool_quad)
    halves = [r for r in rs if (r.complexity, r.cohesion) == (1, 2)]
    quads = [r for r in rs if (r.complexity, r.cohesion) == (3, 4)]
    assert len(halves) == 2 and len(quads) == 4
    for rho in rs:
        assert refines(rho, rho)
    for q in quads:
        assert sum(refines(q, h) for h in halves) == 1
    # two quadrants refining the same half do not refine each other
    for q1 in quads:
        for q2 in quads:
            if q1 != q2:
                assert not refines(q1, q2)
