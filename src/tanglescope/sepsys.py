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

from . import canvas
from .canvas import DEFAULT_PIXEL_CAP, HARD_PIXEL_CAP, CanvasSizeError, WeightedCanvas

# strata read the block minima in chunks of 2^12 blocks, so that no index
# array spans more than one chunk
_CHUNK_BITS = 12
# a stratum of at most this many bytes is allocated without reading the
# memory limit: the probe costs more than such an allocation
_PROBE_BYTES = 1 << 20


class SeparationPool:
    """Every oriented separation of a weighted canvas: all subsets of the
    pixel set, with orders read from the canvas's order table."""

    def __init__(self, wc: WeightedCanvas):
        self.wc = wc
        self.full_mask = wc.full_mask
        self._top = wc.npixels - 1
        # the F-tangles of level k: listed by profiles.f_tangles, or () where
        # duality.verify_duality verified a chop tree
        self._f_tangles: dict[int, tuple] = {}
        self._strata: dict[int, Stratum] = {}

    # -- orders --------------------------------------------------------------
    # The canvas's order table holds the sides without the top pixel; a side
    # with it shares its order with its complement, and the pool folds it so.

    @cached_property
    def _rows(self) -> tuple:
        """The table's rows as `order_of` and `orders_of` read them: the
        flat index of the row of each pattern, the pattern period mask, the
        rows flattened, the offset bits and their mask."""
        table = self.wc.all_orders()
        bits = table.rows.shape[1].bit_length() - 1
        return ([p << bits for p in table.pattern.tolist()], len(table.pattern) - 1,
                table.rows.ravel(), bits, (1 << bits) - 1)

    @cached_property
    def _block_mins(self) -> list[int]:
        return self.wc.all_orders().block_min.tolist()

    def order_of(self, side: int) -> int:
        """The order of a side: read off the canvas's order table once
        that exists, and summed over the side's boundary
        (`WeightedCanvas.order`) before, so that reading an order never
        builds a table.  A resolution query settled by a carved chop tree
        reads its pixel orders and its verifier's orders so, with no
        table."""
        if not self.wc._order_cache:
            return self.wc.order(side)
        if side >> self._top:
            side ^= self.full_mask
        row_starts, period, rows, bits, offset = self._rows
        h = side >> bits
        return self._block_mins[h] + int(rows[row_starts[h & period] | side & offset])

    def orders_of(self, sides: np.ndarray) -> np.ndarray:
        """`order_of` of each side of a uint32 array, in the table dtype."""
        table = self.wc.all_orders()
        _, period, _, bits, offset = self._rows
        sides = sides ^ (sides >> self._top) * np.uint32(self.full_mask)
        blocks = sides >> bits
        return table.block_min[blocks] + table.rows[table.pattern[blocks & period],
                                                    sides & offset]

    @cached_property
    def max_order(self) -> int:
        # the pattern is periodic in the block, so each column of the blocks
        # reshaped to the period reads one row; a column's largest minimum
        # plus its row's largest entry is an order, so it fits the dtype
        table = self.wc.all_orders()
        column_max = np.maximum.reduce(table.block_min.reshape(-1, len(table.pattern)))
        row_max = np.maximum.reduce(table.rows, axis=1)[table.pattern]
        return int(np.maximum.reduce(column_max + row_max))

    @cached_property
    def pixel_orders(self) -> tuple[int, ...]:
        """order({p}) of every pixel p, in pixel order."""
        return tuple(self.order_of(1 << p) for p in range(self.wc.npixels))

    # -- strata --------------------------------------------------------------

    @cached_property
    def _canonical_offsets(self) -> np.ndarray:
        """The canonical side of each offset l, as uint32: an odd l holds
        pixel 0, so its side is l ^ full.  A block's base has no offset
        bit, so the canonical side of base + l is base ^ this."""
        offsets = np.arange(self.wc.all_orders().rows.shape[1], dtype=np.uint32)
        offsets[1::2] ^= self.full_mask
        return offsets

    def _below(self, k: int) -> np.ndarray:
        """The canonical side of every entry of the order table with order
        below k, in table order, as uint32; the first is index 0 (order 0),
        the pair of 0 and the full side.

        A one-block table (at most 13 pixels) is its one row against k,
        two numpy calls; the chunked scan below makes about 25, a fixed
        cost that is most of a stratum build on such small tables.
        Otherwise numpy reads the block minima one chunk at a time: it
        picks the blocks whose minimum is below k, keys each by its
        pattern and its threshold k - 1 - block_min[h], against which its
        row is read, and counts the blocks of each distinct key with
        `np.unique`.  Each distinct key is compared once, to the canonical
        offsets its blocks share, and consecutive blocks of one key form a
        run.  The sides are counted before one uint32 array is allocated,
        and a stratum larger than the memory the process may use raises
        CanvasSizeError instead.  Each run is then filled with one
        broadcast XOR of its blocks' bases, built per chunk, and its
        offsets."""
        table = self.wc.all_orders()
        canonical = self._canonical_offsets
        if len(table.block_min) == 1:   # block_min is [0]: one row, one pattern
            return canonical[table.rows[0] < k]
        bits = table.rows.shape[1].bit_length() - 1
        patterns = len(table.pattern)
        offsets: dict[int, np.ndarray] = {}   # by key
        runs = []       # per chunk: its start, its size, and its runs' first
                        # blocks (in the chunk), block counts and keys
        need = 0
        for lo in range(0, len(table.block_min), 1 << _CHUNK_BITS):
            chunk = table.block_min[lo:lo + (1 << _CHUNK_BITS)]
            h = np.flatnonzero(chunk < k)
            key = ((k - 1 - chunk[h].astype(np.int64)) * patterns
                   + table.pattern[(h + lo) & (patterns - 1)])
            distinct, blocks = np.unique(key, return_counts=True)
            for u, count in zip(distinct.tolist(), blocks.tolist()):
                if u not in offsets:
                    threshold, row = divmod(u, patterns)
                    offsets[u] = canonical[table.rows[row] <= threshold]
                need += 4 * count * len(offsets[u])
            # the run edges: a block that starts a run, and the chunk's end
            edge = np.ones(len(h) + 1, bool)
            edge[1:-1] = (key[1:] != key[:-1]) | (h[1:] != h[:-1] + 1)
            edge = np.flatnonzero(edge)
            first = edge[:-1]
            runs.append((lo, len(chunk), h[first], edge[1:] - first, key[first]))
        memory = canvas._physical_memory() if need > _PROBE_BYTES else None
        if memory is not None and need > memory:
            raise CanvasSizeError(
                f"stratum {k} of {self.wc.npixels} pixels needs {need} bytes, more "
                f"than the {memory} bytes of memory the process may use")
        sides = np.empty(need // 4, np.uint32)
        at = 0
        for lo, size, firsts, counts, keys in runs:
            bases = (np.arange(lo, lo + size, dtype=np.uint32) << bits)[:, None]
            for h, count, u in zip(firsts.tolist(), counts.tolist(), keys.tolist()):
                row = offsets[u]
                end = at + count * len(row)
                np.bitwise_xor(bases[h:h + count], row, out=sides[at:end].reshape(count, len(row)))
                at = end
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
    pool's table scan: ascending in the pair's side without the top pixel,
    its table index.  So strata nest in scan order: the pairs of order
    below l < k are those of stratum k with `orders` below l, in the same
    order.  A reader that needs another order sorts the pairs itself, and
    one that works on Python ints converts them once with `tolist()`."""

    pool: SeparationPool
    k: int
    pairs: np.ndarray                # canonical side (pixel 0 outside) per line

    @property
    def full_mask(self) -> int:
        return self.pool.full_mask

    @cached_property
    def orders(self) -> np.ndarray:
        """The order of each pair, in scan order, in the table dtype."""
        return self.pool.orders_of(self.pairs)


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
