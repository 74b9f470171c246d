"""The separation-system algebra over bipartitions of the pixel set.

A pixel set A (int bitmask) is one orientation of the bipartition
(complement, A).  The partial order is reverse inclusion, the involution is
complementation, join is intersection and meet is union.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .canvas import DEFAULT_PIXEL_CAP, HARD_PIXEL_CAP, CanvasSizeError, WeightedCanvas


class UniverseMismatchError(ValueError):
    """Operation mixing separations from different weighted canvases."""


class SeparationPool:
    """Every oriented separation of a weighted canvas: all subsets of the
    pixel set, with orders read from the canvas's order table."""

    def __init__(self, wc: WeightedCanvas):
        self.wc = wc
        self.full_mask = wc.full_mask
        self._profile_cache: dict[int, tuple] = {}
        self._strata: dict[int, Stratum] = {}

    # -- membership / orders -------------------------------------------------

    def __contains__(self, side: int) -> bool:
        return 0 <= side <= self.full_mask

    def order_of(self, side: int) -> int:
        return int(self.wc.all_orders()[side])

    def sides(self):
        return range(self.full_mask + 1)

    def __len__(self) -> int:
        return self.full_mask + 1

    @cached_property
    def max_order(self) -> int:
        return int(self.wc.all_orders().max())

    def sep(self, side: int) -> "OrientedSep":
        if side not in self:
            raise UniverseMismatchError(f"side {side:#x} is not in this pool")
        return OrientedSep(side, self)

    def canonical_side(self, side: int) -> int:
        """The orientation of side's pair that does not contain pixel 0."""
        return side if not side & 1 else side ^ self.full_mask

    # -- strata --------------------------------------------------------------

    def stratum(self, k: int) -> "Stratum":
        if k < 1:
            raise ValueError("stratum index k must be at least 1")
        cached = self._strata.get(k)
        if cached is None:
            # a side and its complement share a boundary, hence an order, so
            # the pairs are the even (pixel-0-free) sides below k, without
            # side 0: it has order 0 < k and so is always the first index
            even = self.wc.all_orders()[0::2]
            canon = np.nonzero(even < k)[0][1:]
            canon = canon[np.argsort(even[canon], kind="stable")]
            cached = self._strata[k] = Stratum(self, k, tuple((2 * canon).tolist()))
        return cached


@dataclass(frozen=True)
class Stratum:
    """All oriented separations of order below k, closed under inversion.

    A pool builds one Stratum per k and memoises it.  `pairs` holds the
    canonical side of every line, sorted by (order, side); `members`, both
    sides of every pair plus 0 and the full side, is derived from `pairs`
    on first use."""

    pool: SeparationPool
    k: int
    pairs: tuple[int, ...]           # canonical side (pixel 0 outside) per line

    @cached_property
    def members(self) -> frozenset[int]:
        full = self.full_mask
        return frozenset(self.pairs) | {c ^ full for c in self.pairs} | {0, full}

    @property
    def full_mask(self) -> int:
        return self.pool.full_mask

    def __contains__(self, side: int) -> bool:
        return side in self.members


def build_universe(wc: WeightedCanvas,
                   pixel_cap: int = DEFAULT_PIXEL_CAP) -> SeparationPool:
    """The pool of all oriented separations, refused above the pixel cap."""
    cap = min(pixel_cap, HARD_PIXEL_CAP)
    if wc.npixels > cap:
        raise CanvasSizeError(f"{wc.npixels} pixels exceeds the pixel cap {cap}")
    return SeparationPool(wc)


# -- oriented separations and their algebra ----------------------------------


@dataclass(frozen=True)
class OrientedSep:
    """One orientation of a bipartition, bound to its pool."""

    side: int
    pool: SeparationPool

    @property
    def order(self) -> int:
        return self.pool.order_of(self.side)

    def __repr__(self):
        return f"OrientedSep({self.side:#x}, order={self.order})"


def _same_pool(a: OrientedSep, b: OrientedSep) -> None:
    if a.pool is not b.pool:
        raise UniverseMismatchError("separations belong to different universes")


def inverse(a: OrientedSep) -> OrientedSep:
    return OrientedSep(a.side ^ a.pool.full_mask, a.pool)


def leq(a: OrientedSep, b: OrientedSep) -> bool:
    """a <= b, i.e. side(a) is a superset of side(b)."""
    _same_pool(a, b)
    return a.side | b.side == a.side


def join(a: OrientedSep, b: OrientedSep) -> OrientedSep:
    _same_pool(a, b)
    return OrientedSep(a.side & b.side, a.pool)


def meet(a: OrientedSep, b: OrientedSep) -> OrientedSep:
    _same_pool(a, b)
    return OrientedSep(a.side | b.side, a.pool)


def classify(a: OrientedSep, stratum: Stratum) -> frozenset[str]:
    """Labels from {small, cosmall, trivial, cotrivial, proper,
    degenerate-pair-member} applying to a within the stratum."""
    if a.pool is not stratum.pool:
        raise UniverseMismatchError("separation is not from the stratum's pool")
    if a.side not in stratum:
        raise ValueError("separation is not a member of the stratum")
    full = a.pool.full_mask
    labels = set()
    if a.side == full:
        labels.add("small")
    if a.side == 0:
        labels.add("cosmall")
    if a.side in (0, full):
        labels.add("degenerate-pair-member")
    # in this universe only the full side can sit strictly below both
    # orientations of another pair
    has_proper_pair = any(0 < s < full for s in stratum.pairs)
    if a.side == full and has_proper_pair:
        labels.add("trivial")
    if a.side == 0 and has_proper_pair:
        labels.add("cotrivial")
    if 0 < a.side < full:
        labels.add("proper")
    return frozenset(labels)


def is_nested(a: OrientedSep, b: OrientedSep) -> bool:
    """True iff the two underlying bipartitions have comparable orientations."""
    _same_pool(a, b)
    return nested_sides(a.side, b.side, a.pool.full_mask)


def nested_sides(x: int, y: int, full: int) -> bool:
    return (x & y == x or x & y == y or x & y == 0 or x | y == full)


def is_star(seps) -> bool:
    """True iff all distinct elements point towards each other."""
    seps = list(seps)
    for s in seps[1:]:
        _same_pool(seps[0], s)
    full = seps[0].pool.full_mask if seps else 0
    return star_sides([s.side for s in seps], full)


def star_sides(sides, full: int) -> bool:
    """True iff every two distinct sides point towards each other.

    x <= y* and y <= x* both reduce to x | y == full; the two orientations
    of one pair point away from each other, so a star holds no such pair."""
    sides = list(sides)
    for i, x in enumerate(sides):
        for y in sides[i + 1:]:
            if x != y and (x | y != full or x ^ y == full):
                return False
    return True


def is_void(seps) -> bool:
    seps = list(seps)
    full = seps[0].pool.full_mask if seps else 0
    return void_sides([s.side for s in seps], full)


def void_sides(sides, full: int) -> bool:
    """True iff there is at least one side and no pixel lies in every side."""
    sides = list(sides)
    inter = full
    for s in sides:
        inter &= s
    return bool(sides) and inter == 0


def is_single_pixel(seps) -> bool:
    seps = list(seps)
    return len(seps) == 1 and seps[0].side.bit_count() == 1


def is_consistent(seps) -> bool:
    """No two members of distinct pairs point away from each other."""
    seps = list(seps)
    for s in seps[1:]:
        _same_pool(seps[0], s)
    full = seps[0].pool.full_mask if seps else 0
    sides = [s.side for s in seps]
    return consistent_sides(sides, full)


def consistent_sides(sides, full: int) -> bool:
    # disjoint members of distinct pairs are exactly the witnessing
    # configurations r-inverse, s with r strictly below s
    sides = list(sides)
    for i, x in enumerate(sides):
        for y in sides[i + 1:]:
            if x & y == 0 and (x ^ full) != y:
                return False
    return True
