"""Profiles of strata, their enumeration, equivalence classes and regions."""
from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

from .canvas import WeightedCanvas
from .search import enumerate_profile_orientations, principal_sides
from .sepsys import SeparationPool, Stratum, build_universe


class _OnStratum:
    stratum: Stratum

    @property
    def k(self) -> int:
        return self.stratum.k

    @property
    def pool(self) -> SeparationPool:
        return self.stratum.pool


@dataclass(frozen=True)
class Orientation(_OnStratum):
    """One chosen orientation per separation of a stratum.

    `chosen` holds the chosen side of every nondegenerate pair plus the
    full pixel set (the forced orientation of the degenerate pair)."""

    stratum: Stratum
    chosen: frozenset[int]
    pixel: ClassVar[None] = None   # always stored by its sides


@dataclass(frozen=True)
class Profile(_OnStratum):
    """A consistent orientation satisfying the profile condition, stored in
    one of two forms.

    - Pixel form (`pixel` set, `sides` None): a focused profile chooses
      some {p}, so it is the principal orientation toward p, and the
      stratum and p are the whole profile.  `chosen` is built from them
      on each read and is not kept.
    - Side-set form (`sides` set, `pixel` None): an unfocused profile (an
      F-tangle), stored as its chosen sides.

    A side set that is the principal orientation toward a pixel p with {p}
    in the stratum is stored in pixel form, so each orientation has one
    form, whichever way it was built, and the generated equality and
    hashing hold across the two.  Restriction keeps the pixel form only
    while {p} stays in the stratum: below order({p}) the principal
    orientation toward p is unfocused, so `restrict` returns its side set,
    equal to the F-tangle that level's enumeration lists.
    """

    stratum: Stratum
    sides: frozenset[int] | None = None
    pixel: int | None = None

    def __post_init__(self):
        if (self.sides is None) == (self.pixel is None):
            raise ValueError("a profile is given by exactly one of sides and pixel")
        if self.pixel is not None:
            if self.pool.order_of(1 << self.pixel) >= self.k:
                raise ValueError(f"{{{self.pixel}}} is not in the {self.k}-stratum")
            return
        pixel = next((s.bit_length() - 1 for s in self.sides if s.bit_count() == 1), None)
        if pixel is not None and self.sides == principal_sides(self.stratum, pixel):
            object.__setattr__(self, "sides", None)
            object.__setattr__(self, "pixel", pixel)

    @property
    def chosen(self) -> frozenset[int]:
        if self.sides is not None:
            return self.sides
        return principal_sides(self.stratum, self.pixel)


def orientation_of(stratum: Stratum, chosen) -> Orientation:
    return Orientation(stratum, frozenset(chosen) | {stratum.full_mask})


def is_profile(o: Orientation | Profile) -> bool:
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
    """The complete, canonically ordered list of profiles of the stratum."""
    cache = stratum.pool._profile_cache
    key = stratum.k
    if key not in cache:
        found = enumerate_profile_orientations(stratum)
        cache[key] = tuple(Profile(stratum, pixel=o) if isinstance(o, int)
                           else Profile(stratum, o) for o in found)
    return cache[key]


def restrict(p: Profile, ell: int) -> Profile:
    """The induced profile on the order-below-ell stratum."""
    if ell > p.k:
        raise ValueError(f"cannot restrict a {p.k}-profile upward to {ell}")
    sub = p.pool.stratum(ell)
    if p.pixel is None:
        return Profile(sub, frozenset(s for s in p.sides if s in sub))
    if p.pool.order_of(1 << p.pixel) < ell:
        return Profile(sub, pixel=p.pixel)
    # {p} is not in the lower stratum, where the principal orientation
    # toward p is unfocused: an F-tangle, stored by its sides
    return Profile(sub, principal_sides(sub, p.pixel))


def induces(p: Profile, q: Profile) -> bool:
    if q.k > p.k:
        raise ValueError("a profile can only induce profiles of lower or equal order")
    return restrict(p, q.k) == q


def is_focused(p: Orientation | Profile) -> bool:
    return p.pixel is not None or any(s.bit_count() == 1 for s in p.chosen)


def is_principal(p: Orientation | Profile) -> bool:
    """True iff the profile is exactly 'everything containing some pixel p'."""
    if p.pixel is not None:
        return True
    full = p.stratum.full_mask
    for pix in range(full.bit_length()):
        bit = 1 << pix
        if all((c & bit != 0) == (c in p.chosen)
               for pair in p.stratum.pairs for c in (pair, pair ^ full)):
            return True
    return False


def chooses(p: Orientation | Profile, side: int) -> bool:
    """True iff p chooses `side`: in pixel form, iff side is in p's stratum
    and contains the pixel."""
    if p.pixel is None:
        return side in p.chosen
    return bool(side >> p.pixel & 1) and p.pool.order_of(side) < p.k


def distinguishes(line_side: int, p: Orientation | Profile,
                  q: Orientation | Profile) -> bool:
    other = line_side ^ p.stratum.full_mask
    return ((chooses(p, line_side) and chooses(q, other))
            or (chooses(p, other) and chooses(q, line_side)))


def distinguishable(p: Orientation | Profile, q: Orientation | Profile) -> bool:
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


def equivalence_classes(pool: SeparationPool) -> list[tuple[Profile, ...]]:
    """All equivalence classes of profiles reachable below the focus horizon.

    A class is a maximal chain of unique extensions: a k-profile is
    equivalent to the (k-1)-profile it induces exactly when it is the only
    k-profile inducing it."""
    levels = profile_levels(pool)
    ks = sorted(levels)
    children: dict[Profile, list[Profile]] = {}
    for k in ks[1:]:
        for p in levels[k]:
            children.setdefault(restrict(p, k - 1), []).append(p)
    classes = []
    starts = list(levels[ks[0]])
    for k in ks[1:]:
        for p in levels[k]:
            if len(children[restrict(p, k - 1)]) != 1:
                starts.append(p)
    for q in starts:
        chain = [q]
        while True:
            ext = children.get(chain[-1], [])
            if len(ext) != 1:
                break
            chain.append(ext[0])
        classes.append(tuple(chain))
    # starts come level by level, each level in canonical order, so the
    # classes are sorted by (level, chosen sides) of their first member
    return classes


def regions(wc: WeightedCanvas, pool: SeparationPool | None = None) -> tuple[Region, ...]:
    """Discover all regions of the picture: unfocused equivalence classes."""
    if pool is None:
        pool = build_universe(wc)
    out = [Region(chain) for chain in equivalence_classes(pool)
           if not any(is_focused(p) for p in chain)]
    return tuple(out)


def refines(sigma: Region, rho: Region) -> bool:
    """True iff the profiles in sigma induce those in rho."""
    if sigma == rho:
        return True
    if sigma.complexity <= rho.cohesion:
        return False
    return restrict(sigma.members[0], rho.cohesion) == rho.members[-1]
