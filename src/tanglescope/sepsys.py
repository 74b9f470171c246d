"""The separation system of bipartitions of the pixel set.

A pixel set A (int bitmask) is one orientation of the bipartition
(complement, A).  The partial order is reverse inclusion (x <= y iff
x | y == x), the involution is complementation (x ^ full), join is
intersection (x & y) and meet is union (x | y).  Sides stay plain ints;
each predicate below takes the pool's `full` mask explicitly.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

import numpy as np

from .canvas import DEFAULT_PIXEL_CAP, HARD_PIXEL_CAP, CanvasSizeError, WeightedCanvas


class SeparationPool:
    """Every oriented separation of a weighted canvas: all subsets of the
    pixel set, with orders read from the canvas's order table."""

    def __init__(self, wc: WeightedCanvas):
        self.wc = wc
        self.full_mask = wc.full_mask
        self._f_tangles: dict[int, tuple] = {}   # profiles.f_tangles, by k
        self._strata: dict[int, Stratum] = {}

    # -- orders --------------------------------------------------------------

    def order_of(self, side: int) -> int:
        return int(self.wc.all_orders()[side])

    @cached_property
    def max_order(self) -> int:
        return int(self.wc.all_orders().max())

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


@dataclass(frozen=True, eq=False)
class Stratum:
    """All oriented separations of order below k, closed under inversion.

    A pool builds one Stratum per k and memoises it, so strata compare and
    hash by identity, as pools do.  `pairs` holds the canonical side of
    every line, sorted by (order, side); `members`, both sides of every
    pair plus 0 and the full side, is derived from `pairs` on first use."""

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


# -- predicates on sides ----------------------------------------------------


def nested_sides(x: int, y: int, full: int) -> bool:
    """True iff the two underlying bipartitions have comparable orientations."""
    return (x & y == x or x & y == y or x & y == 0 or x | y == full)


def laminar_sides(sides, full: int) -> bool:
    """True iff every two sides are nested."""
    return all(nested_sides(x, y, full) for x, y in combinations(sides, 2))


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


def void_sides(sides, full: int) -> bool:
    """True iff there is at least one side and no pixel lies in every side."""
    sides = list(sides)
    inter = full
    for s in sides:
        inter &= s
    return bool(sides) and inter == 0


def consistent_sides(sides, full: int) -> bool:
    # disjoint members of distinct pairs are exactly the witnessing
    # configurations r-inverse, s with r strictly below s
    sides = list(sides)
    for i, x in enumerate(sides):
        for y in sides[i + 1:]:
            if x & y == 0 and (x ^ full) != y:
                return False
    return True
