"""Profiles of strata, their enumeration, equivalence classes and regions.

A profile is stored as its stratum and one bit per pair, the orientation
of a separation system in Diestel, Hundertmark and Lemanczyk, *Profiles
of separations* (Combinatorica 2019): bit i is true where the profile
chooses the canonical side of `stratum.pairs[i]`, the side without pixel
0.  Restriction, the principal orientations and the canonical order are
array operations on the bits; the chosen sides as a set (`chosen`) are
built only for the set readers: the definition-level `is_profile` and
`is_focused`, and the tree-set code."""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from itertools import count

import numpy as np

from .search import enumerate_profile_orientations
from .sepsys import SeparationPool, Stratum


@dataclass(frozen=True)
class Profile:
    """A consistent orientation satisfying the profile condition, stored
    as `bits`: a read-only bool array, true where the canonical side of
    the pair `stratum.pairs[i]` is chosen; the full side, the forced
    orientation of the degenerate pair, is always chosen.  Bits of another
    shape than the pairs raise ValueError.  Profiles are
    equal, and hash equally, when they lie on the same stratum (strata
    compare by identity) and the bytes of their bits are equal.

    A focused profile chooses some {p}, so it is the principal orientation
    toward p (`principal`); `enumerate_profiles` builds those, and nothing
    on the `analyze` path does: regions count them by pixel (see
    `regions`).  An unfocused profile is an F-tangle (`f_tangles`).
    """

    stratum: Stratum
    bits: np.ndarray = field(compare=False)
    _bytes: bytes = field(init=False, repr=False)

    def __post_init__(self):
        bits = np.asarray(self.bits, bool)
        if bits.shape != self.stratum.pairs.shape:
            raise ValueError(f"bits of shape {bits.shape} for {len(self.stratum.pairs)} pairs")
        object.__setattr__(self, "_bytes", bits.tobytes())
        # a view of the immutable bytes, so read-only and not a second copy
        object.__setattr__(self, "bits", np.frombuffer(self._bytes, bool))

    @property
    def k(self) -> int:
        return self.stratum.k

    def sides(self) -> np.ndarray:
        """The chosen side of each pair, in scan order, as uint32."""
        return np.where(self.bits, self.stratum.pairs, self.stratum.pairs ^ self.stratum.full_mask)

    @cached_property
    def chosen(self) -> frozenset[int]:
        """The chosen sides as a set: each pair's and the full side."""
        return frozenset([self.stratum.full_mask, *self.sides().tolist()])

    def key(self) -> tuple[int, bytes]:
        """The canonical order: by k, and on one stratum as the lists of
        sorted chosen sides compare.  Two profiles of one stratum differ
        first at the smallest side that one of them chooses, and that one
        comes first.  The scan order is ascending in each pair's smaller
        side, the one without the top pixel, so that side is the smaller
        side of the first pair where their bits differ.  The profiles
        therefore compare as their per-pair flags "the smaller side is not
        chosen", and that flag is the bit itself where the canonical side
        holds the top pixel, and its negation where it does not."""
        top = self.stratum.full_mask.bit_length() - 1
        return self.k, (self.bits == self.stratum.pairs >> top).tobytes()


def principal(stratum: Stratum, pixel: int) -> Profile:
    """The principal orientation toward `pixel`: the side containing it
    of every pair."""
    return Profile(stratum, stratum.pairs >> pixel & 1)


def is_profile(o: Profile) -> bool:
    """Definition-level profile check, independent of the search engine.
    It reads `o.stratum` and the set `o.chosen` alone, so it also takes
    any object holding a stratum and a set of chosen sides.  Quadratic in
    the pairs; no analysis path calls it, or `is_focused`: they are the
    reference for the tests and for the benchmark's resolution check."""
    full = o.stratum.full_mask
    chosen = o.chosen
    if full not in chosen or 0 in chosen:
        return False
    allowed = {full}
    for c in o.stratum.pairs.tolist():
        d = c ^ full
        if (c in chosen) == (d in chosen):
            return False
        allowed.add(c)
        allowed.add(d)
    if not chosen <= allowed:
        return False
    # this also decides consistency: full is chosen, so two disjoint chosen
    # sides x, y give (x & y) ^ full == full in chosen and are rejected
    members = list(chosen)
    for i, x in enumerate(members):
        for y in members[i:]:
            if ((x & y) ^ full) in chosen:
                return False
    return True


def enumerate_profiles(stratum: Stratum) -> tuple[Profile, ...]:
    """The complete, canonically ordered list of profiles of the stratum:
    the principal orientations toward the pixels p with {p} in the
    stratum, and the F-tangles.  Built on each call; nothing is cached."""
    pixels, tangles = enumerate_profile_orientations(stratum)
    return tuple(sorted([principal(stratum, p) for p in pixels] + tangles, key=Profile.key))


def f_tangles(stratum: Stratum) -> tuple[Profile, ...]:
    """The unfocused profiles of the stratum (its F-tangles), canonically
    ordered and memoised on the pool.  A level that `verify_duality` has
    settled by a verified chop tree is already listed as empty."""
    cache = stratum.pool._f_tangles
    if stratum.k not in cache:
        cache[stratum.k] = tuple(sorted(enumerate_profile_orientations(stratum)[1], key=Profile.key))
    return cache[stratum.k]


def restrict(p: Profile, ell: int) -> Profile:
    """The induced profile on the order-below-ell stratum: p's bits of
    the pairs of order below ell.  Strata nest in scan order (see
    `sepsys.Stratum`), so these are the bits of that stratum's pairs."""
    if ell > p.k:
        raise ValueError(f"cannot restrict a {p.k}-profile upward to {ell}")
    return Profile(p.stratum.pool.stratum(ell), p.bits[p.stratum.orders < ell])


def is_focused(p: Profile) -> bool:
    return any(s.bit_count() == 1 for s in p.chosen)


def focused_children(q: Profile) -> list[int]:
    """The pixels p whose focused (k+1)-profile induces the F-tangle q.

    That profile is the principal orientation toward p, and it restricts
    to the principal one toward p at k.  This is q exactly when p lies in
    every side q chooses, and it is unfocused, as q is, exactly when {p}
    is not in the k-stratum: order({p}) = k, since {p} is in the
    (k+1)-stratum."""
    common = int(np.bitwise_and.reduce(q.sides(), initial=q.stratum.full_mask))
    return [p for p in range(common.bit_length())
            if common >> p & 1 and q.stratum.pool.pixel_orders[p] == q.k]


def distinguishes(line_side: int, p: Profile, q: Profile) -> bool:
    other = line_side ^ p.stratum.full_mask
    return ((line_side in p.chosen and other in q.chosen)
            or (other in p.chosen and line_side in q.chosen))


def distinguishable(p: Profile, q: Profile) -> bool:
    return not (p.chosen <= q.chosen or q.chosen <= p.chosen)


@dataclass(frozen=True)
class Region:
    """An equivalence class of profiles containing no focused profile."""

    members: tuple[Profile, ...]   # ascending stratum index

    @property
    def complexity(self) -> int:
        return self.members[0].k

    @property
    def cohesion(self) -> int:
        return self.members[-1].k

    @property
    def visibility(self) -> int:
        return self.cohesion - self.complexity


def regions(pool: SeparationPool) -> tuple[Region, ...]:
    """All regions of the picture: the equivalence classes of profiles
    with no focused member, read off the F-tangle levels.

    A class is a maximal chain of unique extensions: a k-profile is
    equivalent to the (k-1)-profile q it induces exactly when it is the
    only k-profile inducing q.  Restrictions of unfocused profiles are
    unfocused, so a region is a chain of F-tangles.  Each k-tangle finds
    its q by one restriction, and the focused k-profiles inducing q are
    counted by pixel (`focused_children`), never built.  A chain starts
    at a level-1 F-tangle or where q has other extensions, and goes on
    while its last member has exactly one extension; if that one is
    focused, the class is not a region.  The walk stops after the first
    level without F-tangles.  Regions come level by level, each level in
    canonical order of first members."""
    chains: list[list[Profile] | None] = []   # None: the class goes on focused
    tips: dict[Profile, int] = {}             # last level's F-tangles -> their chains
    for k in count(1):
        level = f_tangles(pool.stratum(k))
        parents = [restrict(t, k - 1) if k > 1 else None for t in level]
        kids = Counter(parents)
        single = set()   # the tips whose one extension is an F-tangle
        for q, i in tips.items():
            focused = len(focused_children(q))
            if kids[q] + focused == 1:
                if focused:
                    chains[i] = None
                else:
                    single.add(q)
        if not level:
            break
        grown: dict[Profile, int] = {}
        for t, q in zip(level, parents):
            if q in single:
                grown[t] = tips[q]
                chains[tips[q]].append(t)
            else:
                grown[t] = len(chains)
                chains.append([t])
        tips = grown
    return tuple(Region(tuple(c)) for c in chains if c is not None)


def refines(sigma: Region, rho: Region) -> bool:
    """True iff the profiles in sigma induce those in rho."""
    if sigma == rho:
        return True
    if sigma.complexity <= rho.cohesion:
        return False
    return restrict(sigma.members[0], rho.cohesion) == rho.members[-1]
