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

import numpy as np

from .canvas import DEFAULT_PIXEL_CAP, HARD_PIXEL_CAP, CanvasSizeError, WeightedCanvas

# strata read the order table in blocks of 2^12 entries (4 KiB of a uint8
# table), skipping every block whose minimum order is at least k, and scan
# the blocks they read in chunks of 2^16 entries, so that no index array
# spans more than one chunk
_BLOCK_BITS = 12
_CHUNK_BITS = 16


class SeparationPool:
    """Every oriented separation of a weighted canvas: all subsets of the
    pixel set, with orders read from the canvas's order table."""

    def __init__(self, wc: WeightedCanvas):
        self.wc = wc
        self.full_mask = wc.full_mask
        self._top = wc.npixels - 1
        # the F-tangles of level k: listed by profiles.f_tangles, or () where
        # duality.find_f_tangle found a verified chop tree
        self._f_tangles: dict[int, tuple] = {}
        # (chop tree or None, its verifier's report or None), by k
        self._chop_trees: dict[int, tuple] = {}
        self._strata: dict[int, Stratum] = {}

    # -- orders --------------------------------------------------------------

    def order_of(self, side: int) -> int:
        # the table holds the sides without the top pixel; a side with it
        # shares its order with its complement
        if side >> self._top:
            side ^= self.full_mask
        return int(self.wc.all_orders()[side])

    @cached_property
    def max_order(self) -> int:
        return int(self.wc.all_orders().max())

    @cached_property
    def pixel_orders(self) -> tuple[int, ...]:
        """order({p}) of every pixel p, in pixel order."""
        return tuple(self.order_of(1 << p) for p in range(self.wc.npixels))

    # -- strata --------------------------------------------------------------

    @cached_property
    def _block_min(self) -> np.ndarray:
        """The minimum order of each 2^_BLOCK_BITS-entry block of the order
        table, in one pass; read by strata of 14 pixels or more."""
        return self.wc.all_orders().reshape(-1, 1 << _BLOCK_BITS).min(axis=1)

    def _below(self, k: int) -> np.ndarray:
        """The canonical side of every entry of the order table with order
        below k, in table order, as uint32; the first is index 0 (order 0),
        the pair of 0 and the full side.  Only the runs of blocks whose
        minimum is below k are read, the first from block 0.  Each run is
        scanned in chunks twice, to count the hits and then to fill one
        array of that length, so no index array outlives its chunk."""
        orders = self.wc.all_orders()
        if len(orders) <= 1 << _BLOCK_BITS:
            bounds = [0, len(orders)]      # one block: scan it without an index
        else:
            # the block edges of the runs, alternately start and end
            below = self._block_min < k
            edges = [0, *(np.flatnonzero(below[1:] != below[:-1]) + 1).tolist()]
            if below[-1]:
                edges.append(len(below))
            bounds = [edge << _BLOCK_BITS for edge in edges]
        chunks = [(lo, min(lo + (1 << _CHUNK_BITS), hi))
                  for start, hi in zip(bounds[::2], bounds[1::2])
                  for lo in range(start, hi, 1 << _CHUNK_BITS)]
        counts = [np.count_nonzero(orders[lo:hi] < k) for lo, hi in chunks]
        sides = np.empty(sum(counts), np.uint32)
        full = np.uint32(self.full_mask)
        at = 0
        for (lo, hi), count in zip(chunks, counts):
            part = sides[at:at + count]
            part[:] = (orders[lo:hi] < k).nonzero()[0]
            if lo:
                part += np.uint32(lo)
            # an odd index holds pixel 0, so its canonical side is i ^ full
            part ^= (part & 1) * full
            at += count
        return sides

    def stratum(self, k: int) -> "Stratum":
        if k < 1:
            raise ValueError("stratum index k must be at least 1")
        cached = self._strata.get(k)
        if cached is None:
            # a side and its complement share a boundary, hence an order, and
            # the order table holds one side of each pair, the one without
            # the top pixel; `_below` reads only the blocks of the table
            # whose minimum order is below k and maps each entry to its
            # canonical side.  Index 0 (order 0 < k) is the pair of 0 and
            # the full side, not a line.  The pairs keep this scan order
            # (see Stratum)
            sides = self._below(k)[1:]
            sides.flags.writeable = False
            cached = self._strata[k] = Stratum(self, k, sides)
        return cached


@dataclass(frozen=True, eq=False)
class Stratum:
    """All oriented separations of order below k, closed under inversion.

    A pool builds one Stratum per k and memoises it, so strata compare and
    hash by identity, as pools do.  `pairs` is a read-only uint32 array
    of the canonical side of every line, in the deterministic order of the
    pool's table scan; a reader that needs another order sorts the pairs
    itself, and one that works on Python ints converts them once with
    `tolist()`."""

    pool: SeparationPool
    k: int
    pairs: np.ndarray                # canonical side (pixel 0 outside) per line

    @property
    def full_mask(self) -> int:
        return self.pool.full_mask


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
    """True iff every two sides are nested (`nested_sides`, inlined)."""
    sides = list(sides)
    for i, x in enumerate(sides):
        for y in sides[i + 1:]:
            meet = x & y
            if meet != x and meet != y and meet and x | y != full:
                return False
    return True


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
