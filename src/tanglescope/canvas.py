"""Square-grid cell complexes, pictures and the cut order function.

Pixel sets are plain ints used as bitmasks over row-major pixel ids, so a
set of pixels doubles as one orientation of a bipartition of the canvas.
"""
from __future__ import annotations

import os
from contextlib import suppress
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

DEFAULT_PIXEL_CAP = 20
HARD_PIXEL_CAP = 32

# the largest total edge weight, which bounds every order: the order table
# is uint8, uint16 or uint32, the narrowest that holds the total
_ORDER_LIMIT = (1 << 32) - 1
_CGROUP_MEMORY_MAX = "/sys/fs/cgroup/memory.max"
# the order table splits a side's index at this many bits into a block and
# an offset (see WeightedCanvas.all_orders)
_BLOCK_BITS = 12


def _physical_memory() -> int | None:
    """Bytes of memory the process may use: the host's physical memory or
    the cgroup v2 memory limit, whichever is smaller, or None where
    neither can be read.  A limit of "max" or an unreadable limit file
    leaves the host's figure."""
    figures = []
    with suppress(AttributeError, ValueError, OSError):
        figures.append(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES"))
    with suppress(OSError, ValueError):   # a limit of "max" raises ValueError
        with open(_CGROUP_MEMORY_MAX) as limit:
            figures.append(int(limit.read()))
    return min(figures, default=None)


class CanvasSizeError(ValueError):
    """Pixel count exceeds the configured cap for exact analysis."""


class PictureError(ValueError):
    """Malformed picture data."""


@dataclass(frozen=True)
class Canvas:
    """A flat rectangular grid of square pixels joined by shared edges."""

    width: int
    height: int
    edges: tuple[tuple[int, int], ...]

    @property
    def npixels(self) -> int:
        return self.width * self.height

    @property
    def full_mask(self) -> int:
        return (1 << self.npixels) - 1


def build_grid_canvas(width: int, height: int, pixel_cap: int = DEFAULT_PIXEL_CAP) -> Canvas:
    """Build the grid canvas with horizontal and vertical neighbour edges.

    `pixel_cap` may be raised up to HARD_PIXEL_CAP (the bitmask width) for
    pictures that are still tractable for exhaustive analysis.
    """
    if width < 1 or height < 1:
        raise PictureError("canvas dimensions must be positive")
    cap = min(pixel_cap, HARD_PIXEL_CAP)
    if width * height > cap:
        raise CanvasSizeError(
            f"{width}x{height} = {width * height} pixels exceeds the pixel cap {cap}"
        )
    edges = []
    for r in range(height):
        for c in range(width):
            p = r * width + c
            if c + 1 < width:
                edges.append((p, p + 1))
            if r + 1 < height:
                edges.append((p, p + width))
    return Canvas(width, height, tuple(edges))


@dataclass(frozen=True)
class Picture:
    """A canvas together with an n-bit parameter vector per pixel."""

    canvas: Canvas
    n: int
    values: tuple[int, ...]


def attach_picture(canvas: Canvas, values, n: int) -> Picture:
    if n < 1:
        raise PictureError("parameter count n must be at least 1")
    values = tuple(int(v) for v in values)
    if len(values) != canvas.npixels:
        raise PictureError(
            f"expected {canvas.npixels} pixel values, got {len(values)}"
        )
    for v in values:
        # bit_length, not 1 << n: an absurd n must not allocate a huge int
        if v < 0 or v.bit_length() > n:
            raise PictureError(f"pixel value {v:#x} does not fit in {n} bits")
    return Picture(canvas, n, values)


def edge_weight(picture: Picture, edge: int) -> int:
    """Hamming distance between the endpoint parameter vectors of an edge."""
    try:
        p, q = picture.canvas.edges[edge]
    except IndexError:
        raise PictureError(f"unknown edge id {edge}") from None
    return (picture.values[p] ^ picture.values[q]).bit_count()


def suggest_N(picture: Picture) -> int:
    """Smallest offset that keeps every per-edge contribution nonnegative."""
    if not picture.canvas.edges:
        return 0
    return max(edge_weight(picture, i) for i in range(len(picture.canvas.edges)))


def boundary(canvas: Canvas, A: int) -> frozenset[int]:
    """Edge ids with exactly one endpoint inside the pixel set A."""
    out = []
    for i, (p, q) in enumerate(canvas.edges):
        if ((A >> p) ^ (A >> q)) & 1:
            out.append(i)
    return frozenset(out)


@dataclass(frozen=True, eq=False)
class OrderTable:
    """The orders of the 2^(n-1) sides without the top pixel, factored at
    the block boundary (see `WeightedCanvas.all_orders`): the side
    h * len(rows[0]) + l has order
    block_min[h] + rows[pattern[h % len(pattern)]][l]."""

    block_min: np.ndarray   # the minimum order of each block
    pattern: np.ndarray     # the row of each block, periodic in h
    rows: np.ndarray        # the orders within a block, less its minimum


@dataclass(frozen=True)
class WeightedCanvas:
    """Picture plus edge weighting and offset; owns the order function."""

    picture: Picture
    delta: tuple[int, ...]
    N: int
    _order_cache: dict = field(default_factory=dict, repr=False, compare=False)

    @staticmethod
    def from_picture(picture: Picture, N: int | None = None) -> "WeightedCanvas":
        delta = tuple(edge_weight(picture, i) for i in range(len(picture.canvas.edges)))
        lo = max(delta) if delta else 0
        if N is None:
            N = lo
        if N < lo:
            raise PictureError(f"offset N={N} is below the maximum edge weight {lo}")
        total = sum(N - d for d in delta)
        if total > _ORDER_LIMIT:
            raise PictureError(f"offset N={N} makes the total edge weight {total} "
                               f"exceed the order limit {_ORDER_LIMIT}")
        return WeightedCanvas(picture, delta, N)

    @property
    def canvas(self) -> Canvas:
        return self.picture.canvas

    @property
    def npixels(self) -> int:
        return self.canvas.npixels

    @property
    def full_mask(self) -> int:
        return self.canvas.full_mask

    @cached_property
    def _cut_groups(self) -> tuple[list[int], ...]:
        """The edges p < q of nonzero weight N - delta grouped by offset
        q - p and weight, as [offset, weight, mask of the low endpoints p].
        A grid joins two pixels by at most one edge, and so does a
        subcanvas, so a mask holds each edge once."""
        groups: dict[tuple[int, int], list[int]] = {}
        for (p, q), d in zip(self.canvas.edges, self.delta):
            if p > q:
                p, q = q, p
            w = self.N - d
            if w:
                group = groups.get((q - p, w))
                if group is None:
                    groups[q - p, w] = [q - p, w, 1 << p]
                else:
                    group[2] |= 1 << p
        return tuple(groups.values())

    def order(self, A: int) -> int:
        """Sum of (N - delta) over the boundary edges of A, each counted
        once.  An edge p < q is on the boundary exactly when bit p of
        A ^ A >> (q - p) is set, so each group of `_cut_groups` adds its
        weight times the popcount of those bits at its low endpoints."""
        total = 0
        for offset, w, mask in self._cut_groups:
            total += w * ((A ^ A >> offset) & mask).bit_count()
        return total

    def all_orders(self) -> OrderTable:
        """The orders of the 2^(n-1) subsets A without the top pixel n-1,
        as an OrderTable of two factors; no array of 2^(n-1) orders is
        built.

        A side and its complement share their boundary, hence their order,
        so a side that holds the top pixel reads its order at its
        complement.  `SeparationPool` is the one reader that folds so.

        The index A = h * 2^b + l splits at b = min(12, n - 1) bits into a
        block h (the block pixels b..n-2) and an offset l (the offset
        pixels 0..b-1).  An edge inside the offset pixels, or from one to
        the top pixel, crosses the cut of A depending on l alone; an edge
        inside the block pixels, or from one to the top pixel, on h alone.
        An edge of weight w from offset pixel q to block pixel p adds
        w * (A_q + A_p - 2 * A_q * A_p), whose product term depends on l
        and on whether A holds p.  Call B the block pixels with an offset
        neighbour, and h's pixels in B its pattern.  Then
        order(h * 2^b + l) = block_min[h] + rows[pattern(h)][l] exactly,
        with each row shifted so that its minimum is 0, which makes
        block_min[h] the minimum order of block h.

        Both factors come from doubling.  For A inside a list of pixels
        and with the pixels off the list outside, adding the next pixel p
        of the list turns every edge at p into a boundary edge except those
        to an earlier listed neighbour q in A, which stop being one:
        order(A | p) = order(A) + gain[p] - 2 * sum(w over earlier q in A),
        where gain[p] is the sum of N - delta over the edges at p.
        - Doubling over the offset pixels and then B gives the orders of
          every l with every pattern, one row per pattern, the first row
          with no pixel of B.  Shifting each row by its minimum gives rows.
        - Doubling over the block pixels gives order(h * 2^b), block h with
          no offset pixel, and adding each pattern's row minimum less that
          row's first entry gives block_min.
        - pattern(h) = pattern[h % len(pattern)]: a pattern is read off
          the block bits up to the highest pixel of B.

        The factors' dtype is the narrowest of uint8, uint16 and uint32
        that holds the total edge weight.  The doubling runs modulo 2^bits
        of that dtype: gain[p] and 2w are reduced modulo 2^bits first, and
        every addition and subtraction wraps.  Each final entry lies
        between 0 and the total edge weight, which is below 2^bits
        (`from_picture` keeps it below 2^32), so it ends exact.

        A table of at most 13 pixels is one block: block_min is [0] and its
        one row holds every order.  The rows of the 2^|B| patterns take no
        more entries than 2^(n-1); a 25-px grid picture has at most 5
        pixels in B, so its uint8 table takes 4 KiB of block minima and at
        most 128 KiB of rows.  A table larger than the host's physical
        memory or the cgroup v2 memory limit raises CanvasSizeError before
        anything is allocated.
        """
        cached = self._order_cache.get("orders")
        if cached is not None:
            return cached
        n = self.npixels
        dtype = np.min_scalar_type(sum(self.N - d for d in self.delta))
        wrap = np.iinfo(dtype).max   # 2^bits - 1: reduces a scalar modulo 2^bits
        bits = min(_BLOCK_BITS, n - 1)
        gain = [0] * n
        lower: list[list[tuple[int, np.integer]]] = [[] for _ in range(n)]
        for (a, b), d in zip(self.canvas.edges, self.delta):
            w = self.N - d
            if w:
                p, q = max(a, b), min(a, b)
                gain[p] += w
                gain[q] += w
                lower[p].append((q, dtype.type(2 * w & wrap)))
        # B: the block pixels below the top pixel with an offset neighbour
        crossing = [p for p in range(bits, n - 1) if any(q < bits for q, _ in lower[p])]
        period = 1 << (crossing[-1] - bits + 1) if crossing else 1
        pattern_dtype = np.min_scalar_type((1 << len(crossing)) - 1)
        need = (dtype.itemsize * ((1 << (n - 1 - bits)) + (1 << (len(crossing) + bits)))
                + pattern_dtype.itemsize * period)
        memory = _physical_memory()
        if memory is not None and need > memory:
            raise CanvasSizeError(
                f"the order table of {n} pixels needs {need} bytes, more than "
                f"the {memory} bytes of memory the process may use")

        def doubled(pixels: list[int]) -> np.ndarray:
            # the order of every subset of `pixels`, the others outside
            bit = {p: j for j, p in enumerate(pixels)}
            orders = np.zeros(1 << len(pixels), dtype)
            for j, p in enumerate(pixels):
                upper = orders[1 << j:2 << j]
                np.add(orders[:1 << j], dtype.type(gain[p] & wrap), out=upper)
                for q, w2 in lower[p]:
                    if q in bit:
                        upper.reshape(-1, 2, 1 << bit[q])[:, 1, :] -= w2
            return orders

        rows = doubled([*range(bits), *crossing]).reshape(-1, 1 << bits)
        block_min = doubled(list(range(bits, n - 1)))
        pattern = np.zeros(period, pattern_dtype)
        if crossing:
            # the first row holds the orders of the offsets alone, whose
            # minimum is its entry 0, order 0: only other rows shift
            row_min = rows.min(axis=1)
            shift = row_min - rows[:, 0]   # wraps: at most 0
            rows -= row_min[:, None]
            for i, p in enumerate(crossing):
                pattern |= ((np.arange(period) >> (p - bits) & 1) << i).astype(pattern_dtype)
            columns = block_min.reshape(-1, period)
            columns += shift[pattern]
        table = self._order_cache["orders"] = OrderTable(block_min, pattern, rows)
        return table
