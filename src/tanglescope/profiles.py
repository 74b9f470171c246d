"""Profiles of strata, their enumeration, equivalence classes and regions."""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import count

from .search import enumerate_profile_orientations, principal_sides
from .sepsys import SeparationPool, Stratum


@dataclass(frozen=True)
class Orientation:
    """One chosen orientation per separation of a stratum.

    `chosen` holds the chosen side of every nondegenerate pair plus the
    full pixel set (the forced orientation of the degenerate pair)."""

    stratum: Stratum
    chosen: frozenset[int]

    @property
    def k(self) -> int:
        return self.stratum.k

    @property
    def pool(self) -> SeparationPool:
        return self.stratum.pool


@dataclass(frozen=True)
class Profile(Orientation):
    """A consistent orientation satisfying the profile condition, stored
    as its chosen sides.

    A focused profile chooses some {p}, so it is the principal orientation
    toward p; `enumerate_profiles` builds those, and nothing on the
    `analyze` path does: regions count them by pixel (see `regions`).  An
    unfocused profile is an F-tangle (`f_tangles`).
    """


def orientation_of(stratum: Stratum, chosen) -> Orientation:
    return Orientation(stratum, frozenset(chosen) | {stratum.full_mask})


def is_profile(o: Orientation) -> bool:
    """Definition-level profile check, independent of the search engine."""
    full = o.stratum.full_mask
    chosen = o.chosen
    if full not in chosen or 0 in chosen:
        return False
    allowed = {full}
    for c in o.stratum.pairs:
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
    found = [principal_sides(stratum, p) for p in pixels] + tangles
    return tuple(Profile(stratum, o) for o in sorted(found, key=sorted))


def f_tangles(stratum: Stratum) -> tuple[Profile, ...]:
    """The unfocused profiles of the stratum (its F-tangles), canonically
    ordered and memoised on the pool."""
    cache = stratum.pool._f_tangles
    if stratum.k not in cache:
        cache[stratum.k] = tuple(
            Profile(stratum, o) for o in enumerate_profile_orientations(stratum)[1])
    return cache[stratum.k]


def restrict(p: Profile, ell: int) -> Profile:
    """The induced profile on the order-below-ell stratum."""
    if ell > p.k:
        raise ValueError(f"cannot restrict a {p.k}-profile upward to {ell}")
    sub = p.pool.stratum(ell)
    return Profile(sub, frozenset(s for s in p.chosen if s in sub))


def induces(p: Profile, q: Profile) -> bool:
    if q.k > p.k:
        raise ValueError("a profile can only induce profiles of lower or equal order")
    return restrict(p, q.k) == q


def is_focused(p: Orientation) -> bool:
    return any(s.bit_count() == 1 for s in p.chosen)


def is_principal(p: Orientation) -> bool:
    """True iff the profile is exactly 'everything containing some pixel p'."""
    full = p.stratum.full_mask
    for pix in range(full.bit_length()):
        bit = 1 << pix
        if all((c & bit != 0) == (c in p.chosen)
               for pair in p.stratum.pairs for c in (pair, pair ^ full)):
            return True
    return False


def focused_children(q: Profile) -> list[int]:
    """The pixels p whose focused (k+1)-profile induces the F-tangle q.

    That profile is the principal orientation toward p, and it restricts
    to the principal one toward p at k.  This is q exactly when p lies in
    every side q chooses, and it is unfocused, as q is, exactly when {p}
    is not in the k-stratum: order({p}) = k, since {p} is in the
    (k+1)-stratum."""
    common = q.pool.full_mask
    for s in q.chosen:
        common &= s
    return [p for p in range(common.bit_length())
            if common >> p & 1 and q.pool.order_of(1 << p) == q.k]


def distinguishes(line_side: int, p: Orientation, q: Orientation) -> bool:
    other = line_side ^ p.stratum.full_mask
    return ((line_side in p.chosen and other in q.chosen)
            or (other in p.chosen and line_side in q.chosen))


def distinguishable(p: Orientation, q: Orientation) -> bool:
    return not (p.chosen <= q.chosen or q.chosen <= p.chosen)


def equivalent(p: Profile, q: Profile) -> bool:
    """Equivalence of profiles: the higher one induces the lower and is the
    only profile doing so at every intermediate level."""
    if p.pool is not q.pool:
        raise ValueError("profiles from different pools")
    if p.k == q.k:
        return p == q
    hi, lo = (p, q) if p.k > q.k else (q, p)
    if restrict(hi, lo.k) != lo:
        return False
    for mid in range(lo.k, hi.k + 1):
        inducing = [r for r in enumerate_profiles(hi.pool.stratum(mid))
                    if restrict(r, lo.k) == lo]
        if inducing != [restrict(hi, mid)]:
            return False
    return True


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


def profile_levels(pool: SeparationPool) -> dict[int, tuple[Profile, ...]]:
    """Profiles per stratum index, up to the first level where every profile
    is focused (no higher level can host an unfocused profile, since
    restrictions of unfocused profiles are unfocused)."""
    levels: dict[int, tuple[Profile, ...]] = {}
    max_k = pool.max_order + 1
    for k in range(1, max_k + 1):
        profs = enumerate_profiles(pool.stratum(k))
        levels[k] = profs
        if all(is_focused(p) for p in profs):
            break
    return levels


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
