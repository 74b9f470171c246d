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

_ORDER_LIMIT = (1 << 32) - 1   # orders are stored as uint32
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
        """Orders of every subset of the pixel set, indexed by bitmask.

        Built by doubling over pixels.  For A inside the first p pixels,
        adding pixel p turns every edge at p into a boundary edge except
        those to a lower neighbour q in A, which stop being one:
        order(A | p) = order(A) + gain[p] - 2 * sum(w over lower q in A),
        where gain[p] is the sum of N - delta over the edges at p.  So the
        upper half orders[2^p : 2^(p+1)] is the lower half plus gain[p],
        then minus 2w on the entries with bit q set, for each lower
        neighbour q, all in place.

        The subtractions cannot underflow: each partial result is at least
        the final order(A | p), which is >= 0.  An addition can pass 2^32
        on the way, but uint32 arithmetic is modulo 2^32 and every final
        order is at most the total edge weight, which `from_picture` keeps
        below 2^32, so each entry ends exact.

        The table takes 4 * 2^n bytes; a table larger than the host's
        physical memory or the cgroup v2 memory limit raises
        CanvasSizeError before anything is allocated.
        """
        cached = self._order_cache.get("orders")
        if cached is not None:
            return cached
        n = self.npixels
        need = 4 << n   # one uint32 per subset
        memory = _physical_memory()
        if memory is not None and need > memory:
            raise CanvasSizeError(
                f"the order table of {n} pixels needs {need} bytes, more than "
                f"the {memory} bytes of memory the process may use")
        gain = [0] * n
        lower: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        for (a, b), d in zip(self.canvas.edges, self.delta):
            w = self.N - d
            if w:
                p, q = max(a, b), min(a, b)
                gain[p] += w
                gain[q] += w
                # 2w can pass 2^32; its residue is the same step modulo 2^32
                lower[p].append((q, 2 * w & _ORDER_LIMIT))
        orders = np.zeros(1 << n, dtype=np.uint32)
        for p in range(n):
            half = 1 << p
            upper = orders[half:2 * half]
            np.add(orders[:half], np.uint32(gain[p]), out=upper)
            for q, w2 in lower[p]:
                upper.reshape(-1, 2, 1 << q)[:, 1, :] -= np.uint32(w2)
        self._order_cache["orders"] = orders
        return orders
