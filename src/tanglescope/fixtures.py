"""Built-in deterministic test pictures."""
from __future__ import annotations

from .canvas import Picture, WeightedCanvas, attach_picture, build_grid_canvas

FIXTURE_NAMES = ("mono2x2", "miniL", "quad4x4", "checker4x4", "noisedisc4x4")

_LCG_SEED = 1
_LCG_MULT = 1103515245
_LCG_INC = 12345
_LCG_MOD = 1 << 31


def _lcg_bits(seed: int, count: int) -> list[int]:
    x = seed
    bits = []
    for _ in range(count):
        x = (_LCG_MULT * x + _LCG_INC) % _LCG_MOD
        bits.append((x >> 16) & 1)
    return bits


def mono2x2() -> Picture:
    """One black pixel in the top-left corner of a 2x2 canvas."""
    return attach_picture(build_grid_canvas(2, 2), [1, 0, 0, 0], 1)


def miniL() -> Picture:
    """A 5x5 letter L: the left column plus two serif pixels at the bottom."""
    canvas = build_grid_canvas(5, 5, pixel_cap=25)
    black = {(r, 0) for r in range(5)} | {(4, 1), (4, 2)}
    values = [1 if (r, c) in black else 0 for r in range(5) for c in range(5)]
    return attach_picture(canvas, values, 1)


def quad4x4() -> Picture:
    """Four 2x2 quadrants with 2-bit colors chosen so the vertical mid-line
    is free and each quadrant line is cheap."""
    colors = {(0, 0): 1, (0, 1): 2, (1, 0): 3, (1, 1): 0}
    values = [colors[(r // 2, c // 2)] for r in range(4) for c in range(4)]
    return attach_picture(build_grid_canvas(4, 4), values, 2)


def checker4x4() -> Picture:
    """Alternating 1-bit checkerboard."""
    values = [(r + c) % 2 for r in range(4) for c in range(4)]
    return attach_picture(build_grid_canvas(4, 4), values, 1)


def noisedisc4x4() -> Picture:
    """A solid 3x3 block with the remaining border pixels set by a seeded
    linear congruential generator (x -> 1103515245 x + 12345 mod 2^31,
    bit 16), scanned in row-major order."""
    block = {(r, c) for r in range(3) for c in range(3)}
    noise_cells = [(r, c) for r in range(4) for c in range(4)
                   if (r, c) not in block]
    bits = _lcg_bits(_LCG_SEED, len(noise_cells))
    noise = dict(zip(noise_cells, bits))
    values = [1 if (r, c) in block else noise[(r, c)]
              for r in range(4) for c in range(4)]
    return attach_picture(build_grid_canvas(4, 4), values, 1)


_BUILDERS = {
    "mono2x2": mono2x2,
    "miniL": miniL,
    "quad4x4": quad4x4,
    "checker4x4": checker4x4,
    "noisedisc4x4": noisedisc4x4,
}


def fixture(name: str) -> Picture:
    try:
        return _BUILDERS[name]()
    except KeyError:
        raise ValueError(f"unknown fixture {name!r}; "
                         f"choose from {', '.join(FIXTURE_NAMES)}") from None


def fixture_canvas(name: str) -> WeightedCanvas:
    return WeightedCanvas.from_picture(fixture(name))


def noisedisc_masks() -> tuple[int, int]:
    """Bitmasks of the solid block and the noise border of noisedisc4x4."""
    block = 0
    for r in range(3):
        for c in range(3):
            block |= 1 << (r * 4 + c)
    return block, block ^ 0xFFFF
