"""Deterministic test pictures shared across the suite.

Alongside the built-in fixtures this adds a ladder of small pictures so
that exhaustive oracles stay cheap: several at or below 9 pixels, one at
12 pixels, and a seeded 20-pixel picture for randomized checks.  The
Hypothesis strategy `random_weighted` draws small random weighted canvases
for differential tests.
"""
from __future__ import annotations

from itertools import product

from hypothesis import strategies as st

from tanglescope import (WeightedCanvas, attach_picture, build_grid_canvas, fixture,
                         suggest_N)

_LCG_MULT = 1103515245
_LCG_INC = 12345
_LCG_MOD = 1 << 31


def lcg_stream(seed: int, count: int, bits: int = 1) -> list[int]:
    x = seed
    out = []
    for _ in range(count):
        x = (_LCG_MULT * x + _LCG_INC) % _LCG_MOD
        out.append((x >> 16) & ((1 << bits) - 1))
    return out


def picture(width: int, height: int, values, n: int = 1, pixel_cap: int = 20):
    return attach_picture(build_grid_canvas(width, height, pixel_cap=pixel_cap),
                          values, n)


def white2x2():
    return picture(2, 2, [0, 0, 0, 0])


def stripes3x2():
    return picture(3, 2, [1, 0, 1,
                          1, 0, 1])


def lshape3x3():
    return picture(3, 3, [1, 0, 0,
                          1, 0, 0,
                          1, 1, 1])


def checker3x3():
    return picture(3, 3, [(r + c) % 2 for r, c in product(range(3), range(3))])


def bicolor3x4():
    return picture(3, 4, [1, 1, 1,
                          1, 1, 1,
                          0, 0, 0,
                          0, 0, 0])


def rand4x5():
    return picture(4, 5, lcg_stream(7, 20, bits=2), n=2)


def one_pixel():
    return picture(1, 1, [0])


def dot4x5():
    # its level-5 F-tangle is not principal: every pixel has order({p}) <= 4
    return picture(4, 5, [1] + [0] * 19)


def defect4x4():
    # a checkerboard with pixel 5 flipped, so only pixel 5's four edges
    # carry weight: pixel orders at most 4, and 30,719 pairs in stratum 4
    return picture(4, 4, [(r + c) % 2 ^ (r * 4 + c == 5)
                          for r, c in product(range(4), range(4))])


def defect5x4():
    # the same defect on a 5x4 checkerboard, pixel 6 flipped: levels 1-4
    # have 32,767 to 491,519 pairs, each with one F-tangle, the principal
    # one toward pixel 6
    return picture(5, 4, [(r + c) % 2 ^ (r * 5 + c == 6)
                          for r, c in product(range(4), range(5))])


def random4x3():
    # random.Random(32).randrange(4) per pixel: one of its six F-tangles on
    # the 19 pairs of level 4 chooses sides that share no pixel, so the
    # search's leaf check runs the co-pointing rule on it
    return picture(4, 3, [0, 1, 1, 2,
                          1, 3, 0, 0,
                          0, 2, 2, 0], n=2)


def random6x5():
    # random.Random(1).randrange(4) per pixel, 30 px (pixel_cap=30): an
    # F-tangle whose sides share no pixel, on the 10,911 pairs of level 6
    return picture(6, 5, [1, 0, 2, 0, 3, 3,
                          3, 3, 1, 0, 3, 0,
                          3, 3, 0, 3, 2, 1,
                          0, 2, 0, 0, 0, 0,
                          3, 1, 3, 0, 1, 3], n=2, pixel_cap=30)


SMALL_PICTURES = {
    "mono2x2": lambda: fixture("mono2x2"),
    "white2x2": white2x2,
    "stripes3x2": stripes3x2,
    "lshape3x3": lshape3x3,
    "checker3x3": checker3x3,
}

TWELVE_PIXEL_PICTURES = dict(SMALL_PICTURES, bicolor3x4=bicolor3x4)

LARGE_PICTURES = {
    "checker4x4": lambda: fixture("checker4x4"),
    "noisedisc4x4": lambda: fixture("noisedisc4x4"),
    "rand4x5": rand4x5,
}


def weighted(builder) -> WeightedCanvas:
    return WeightedCanvas.from_picture(builder())


@st.composite
def random_weighted(draw, max_pixels: int = 12, max_extra_N: int = 2) -> WeightedCanvas:
    """A random w x h picture of at most max_pixels pixels with 1 or 2 bits
    per pixel, weighted with an offset N between the maximum edge weight
    and max_extra_N above it."""
    width = draw(st.integers(1, max_pixels))
    height = draw(st.integers(1, max_pixels // width))
    n = draw(st.integers(1, 2))
    values = draw(st.lists(st.integers(0, (1 << n) - 1),
                           min_size=width * height, max_size=width * height))
    pic = picture(width, height, values, n=n)
    return WeightedCanvas.from_picture(pic, suggest_N(pic) + draw(st.integers(0, max_extra_N)))
