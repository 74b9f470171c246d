"""Square-grid cell complexes, pictures and the cut order function.

Pixel sets are plain ints used as bitmasks over row-major pixel ids, so a
set of pixels doubles as one orientation of a bipartition of the canvas.
"""
from __future__ import annotations

import os
from contextlib import suppress
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

DEFAULT_PIXEL_CAP = 20
HARD_PIXEL_CAP = 32

# the largest total edge weight, which bounds every order: the order table
# is uint8, uint16 or uint32, the narrowest that holds the total
_ORDER_LIMIT = (1 << 32) - 1
_CGROUP_MEMORY_MAX = "/sys/fs/cgroup/memory.max"


def _physical_memory() -> int | None:
    """Bytes of memory the process may use: the host's physical memory or
    the cgroup v2 memory limit, whichever is smaller, or None where
    neither can be read.  A limit of "max" or an unreadable limit file
    leaves the host's figure."""
    figures = []
    with suppress(AttributeError, ValueError, OSError):
        figures.append(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES"))
    with suppress(OSError, ValueError):   # a limit of "max" raises ValueError
        figures.append(int(Path(_CGROUP_MEMORY_MAX).read_text()))
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

    def order(self, A: int) -> int:
        """Sum of (N - delta) over the boundary edges of A."""
        total = 0
        for (p, q), d in zip(self.canvas.edges, self.delta):
            if ((A >> p) ^ (A >> q)) & 1:
                total += self.N - d
        return total

    def all_orders(self) -> np.ndarray:
        """Orders of every bipartition of the pixel set: the 2^(n-1)
        subsets A without the top pixel n-1, indexed by bitmask.

        A side and its complement share their boundary, hence their order,
        so a side that holds the top pixel reads its order at its
        complement: order(A) = orders[A ^ full] for A >= 2^(n-1).
        `SeparationPool.order_of` is the one reader that folds so.

        Built by doubling over pixels 0..n-2.  For A inside the first p
        pixels, adding pixel p turns every edge at p into a boundary edge
        except those to a lower neighbour q in A, which stop being one:
        order(A | p) = order(A) + gain[p] - 2 * sum(w over lower q in A),
        where gain[p] is the sum of N - delta over the edges at p.  So the
        upper half orders[2^p : 2^(p+1)] is the lower half plus gain[p],
        then minus 2w on the entries with bit q set, for each lower
        neighbour q, all in place.

        The table's dtype is the narrowest of uint8, uint16 and uint32 that
        holds the total edge weight.  The build runs modulo 2^bits of that
        dtype: gain[p] and 2w are reduced modulo 2^bits first, and every
        addition and subtraction wraps.  Each final order lies between 0
        and the total edge weight, which is below 2^bits (`from_picture`
        keeps it below 2^32), so each entry ends exact.

        The table takes itemsize * 2^(n-1) bytes: 1, 2 or 4 bytes per
        bipartition.  A table larger than the host's physical memory or the
        cgroup v2 memory limit raises CanvasSizeError before anything is
        allocated.
        """
        cached = self._order_cache.get("orders")
        if cached is not None:
            return cached
        n = self.npixels
        dtype = np.min_scalar_type(sum(self.N - d for d in self.delta))
        need = dtype.itemsize << (n - 1)
        memory = _physical_memory()
        if memory is not None and need > memory:
            raise CanvasSizeError(
                f"the order table of {n} pixels needs {need} bytes, more than "
                f"the {memory} bytes of memory the process may use")
        wrap = np.iinfo(dtype).max   # 2^bits - 1: reduces a scalar modulo 2^bits
        gain = [0] * n
        lower: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        for (a, b), d in zip(self.canvas.edges, self.delta):
            w = self.N - d
            if w:
                p, q = max(a, b), min(a, b)
                gain[p] += w
                gain[q] += w
                lower[p].append((q, dtype.type(2 * w & wrap)))
        orders = np.zeros(1 << (n - 1), dtype=dtype)
        for p in range(n - 1):
            half = 1 << p
            upper = orders[half:2 * half]
            np.add(orders[:half], dtype.type(gain[p] & wrap), out=upper)
            for q, w2 in lower[p]:
                upper.reshape(-1, 2, 1 << q)[:, 1, :] -= w2
        self._order_cache["orders"] = orders
        return orders
