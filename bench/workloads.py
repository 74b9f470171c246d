"""Workload inputs, the operation each workload times, and its output checks.

Each workload has a fixed pool of base pictures. The run seed picks one of
the eight dihedral symmetries (transpose, flip rows, flip columns) for every
picture, so every seed runs the same work up to isomorphism while the
program still sees different bitmasks and a different search order. With
pictures freshly drawn per seed, the heavy-tailed cost of random pictures
(81 random 12-px pictures on a 2-core x86 machine: p50 0.35 s, max 12.6 s)
made one 30-s run's throughput depend mostly on how many tail pictures the
seed happened to draw.

Functions of the package are looked up through ``ts`` at call time, so the
tracer's runtime wrappers see every call.
"""
from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass

import tanglescope as ts

DEFAULT_SEED = 0
WORKLOADS = ("random12", "glyph25", "resolution-subsets")

# random12: 12-px pictures, shapes cycling, every third one 1-bit.
RANDOM12_SHAPES = ((3, 4), (4, 3), (2, 6), (6, 2))
RANDOM12_POOL = 48
RANDOM12_POOL_SEED = 12

# glyph25: the 2^25 order table. I, T, O, half-block (9-15 s each) and the
# 2x2 box (16 s) are left out so that one pass fits a run; plus, U and the
# filled 3x3 box are search-bound (47 s to over 60 s), random12's mechanism.
GLYPH_PIXEL_CAP = 25
GLYPHS = {
    "L": {(r, 0) for r in range(5)} | {(4, 1), (4, 2)},
    "dot": {(2, 2)},
}

# resolution-subsets: connected subsets of seeded 2-bit 4x5 pictures.
RESOLUTION_PICTURES = 8
RESOLUTION_QUERIES_PER_PICTURE = 50
RESOLUTION_SUBSET_PX = (6, 14)
RESOLUTION_POOL_SEED = 45


@dataclass(frozen=True)
class Picture:
    label: str
    width: int
    height: int
    n: int
    values: tuple[int, ...]
    pixel_cap: int = 20

    def grid_text(self) -> str:
        canvas = ts.build_grid_canvas(self.width, self.height, pixel_cap=self.pixel_cap)
        return ts.format_grid(ts.attach_picture(canvas, self.values, self.n))


@dataclass(frozen=True)
class Op:
    """One timed operation: a picture, and for resolution a pixel subset."""

    picture: Picture
    subset: int | None = None


def _symmetry(width: int, height: int, code: int):
    """Pixel map (old id -> new id) and new shape of a dihedral symmetry."""
    w, h = (height, width) if code & 1 else (width, height)
    mapping = []
    for p in range(width * height):
        r, c = divmod(p, width)
        if code & 1:
            r, c = c, r
        if code & 2:
            r = h - 1 - r
        if code & 4:
            c = w - 1 - c
        mapping.append(r * w + c)
    return mapping, w, h


def _transform(pic: Picture, code: int) -> tuple[Picture, list[int]]:
    mapping, w, h = _symmetry(pic.width, pic.height, code)
    values = [0] * len(mapping)
    for old, new in enumerate(mapping):
        values[new] = pic.values[old]
    return Picture(f"{pic.label}-s{code}", w, h, pic.n, tuple(values), pic.pixel_cap), mapping


def _random12_pool() -> list[Picture]:
    rng = random.Random(RANDOM12_POOL_SEED)
    pool = []
    for i in range(RANDOM12_POOL):
        w, h = RANDOM12_SHAPES[i % 4]
        n = 1 if i % 3 == 0 else 2
        values = tuple(rng.randrange(1 << n) for _ in range(w * h))
        pool.append(Picture(f"r{i:02d}-{w}x{h}n{n}", w, h, n, values))
    return pool


def _glyph25_pool() -> list[Picture]:
    pool = [Picture("flat-5x4", 5, 4, 1, (0,) * 20, GLYPH_PIXEL_CAP)]
    for name, cells in GLYPHS.items():
        values = tuple(int((r, c) in cells) for r in range(5) for c in range(5))
        pool.append(Picture(name, 5, 5, 1, values, GLYPH_PIXEL_CAP))
    return pool


def _connected_subset(rng: random.Random, width: int, height: int, size: int) -> int:
    pixel = rng.randrange(width * height)
    mask = 1 << pixel
    frontier = set()

    def add_neighbours(p):
        r, c = divmod(p, width)
        for rr, cc in ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1)):
            if 0 <= rr < height and 0 <= cc < width:
                frontier.add(rr * width + cc)

    add_neighbours(pixel)
    while mask.bit_count() < size:
        pixel = rng.choice(sorted(q for q in frontier if not mask >> q & 1))
        mask |= 1 << pixel
        add_neighbours(pixel)
    return mask


def _resolution_pool() -> list[tuple[Picture, list[int]]]:
    rng = random.Random(RESOLUTION_POOL_SEED)
    lo, hi = RESOLUTION_SUBSET_PX
    pool = []
    for i in range(RESOLUTION_PICTURES):
        pic = Picture(f"p{i}-4x5n2", 4, 5, 2, tuple(rng.randrange(4) for _ in range(20)))
        subsets = [_connected_subset(rng, 4, 5, rng.randint(lo, hi))
                   for _ in range(RESOLUTION_QUERIES_PER_PICTURE)]
        pool.append((pic, subsets))
    return pool


def generate(workload: str, seed: int) -> list[Op]:
    """The ops of one pass, in pool order, each under a seed-chosen symmetry."""
    rng = random.Random(f"{workload}:{seed}")
    if workload in ("random12", "glyph25"):
        pool = _random12_pool() if workload == "random12" else _glyph25_pool()
        return [Op(_transform(pic, rng.randrange(8))[0]) for pic in pool]
    if workload == "resolution-subsets":
        ops = []
        for pic, subsets in _resolution_pool():
            moved, mapping = _transform(pic, rng.randrange(8))
            for subset in subsets:
                ops.append(Op(moved, sum(1 << mapping[p] for p in range(20) if subset >> p & 1)))
        return ops
    raise ValueError(f"unknown workload {workload!r}")


def prepare(op: Op):
    """Untimed per-op state: the weighted canvas a resolution query runs on."""
    if op.subset is None:
        return op.picture.grid_text()
    picture = ts.parse_grid(op.picture.grid_text(), pixel_cap=op.picture.pixel_cap)
    return ts.WeightedCanvas.from_picture(picture)


def run_op(op: Op, state):
    """The timed operation, through the public functions the CLI calls."""
    if op.subset is not None:
        return ts.max_supported_resolution(state, subset=op.subset)
    cap = op.picture.pixel_cap
    wc = ts.WeightedCanvas.from_picture(ts.parse_grid(state, pixel_cap=cap))
    report, ok = ts.analyze(wc, pixel_cap=cap)
    text = ts.encode_report(report)
    decoded = ts.decode_report(text)
    return {"report": report, "ok": ok, "decoded": decoded,
            "svg": ts.render_svg(decoded), "mask": ts.render_mask(decoded)}


def math_content(report: dict) -> dict:
    """The report's mathematical content; verification flags are left out."""
    return {
        "regions": report["regions"],
        "tree_set": report["tree_set"],
        "splitting_stars": report["splitting_stars"],
        "outlines": report["outlines"],
        "verdicts": [{"k": v["k"], "f_tangle": v["f_tangle"], "chop_tree": v["chop_tree"]}
                     for v in report["duality"]["verdicts"]],
        "max_supported_resolution": report["duality"]["max_supported_resolution"],
    }


def digest(result) -> str | int:
    """Reference key of one op's output: the answer, or a content hash."""
    if isinstance(result, int):
        return result
    text = json.dumps(math_content(result["report"]), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def verdict_counts(result) -> tuple[int, int]:
    """(verdicts whose ok is not a definite true/false, verdicts produced)."""
    if isinstance(result, int):
        return 0, 0
    verdicts = result["report"]["duality"]["verdicts"]
    return sum(v.get("ok") not in (True, False) for v in verdicts), len(verdicts)


def _resolution_certificate(op: Op, state, answer: int) -> str | None:
    """Independent check of an answer r: an unfocused profile at r, and a
    chop tree at r + 1 that the tree verifier accepts."""
    sub = ts.induced_subcanvas(state, op.subset)
    pool = ts.build_universe(sub)
    if answer >= 1:
        tangle = ts.find_f_tangle(pool.stratum(answer))
        if tangle is None or not ts.is_profile(tangle) or ts.is_focused(tangle):
            return f"no unfocused profile at k={answer}"
    tree = ts.build_chop_tree(sub, answer + 1, pool)
    if tree is None or not ts.verify_chop_tree(tree, sub, pool).ok:
        return f"no verified chop tree at k={answer + 1}"
    return None


def check(op: Op, state, result, reference) -> str | None:
    """Why the op's output is wrong, or None. `reference` is the recorded
    digest for this op, or None when the run's seed has no reference."""
    if isinstance(result, BaseException):
        return f"{type(result).__name__}: {result}"
    if op.subset is not None:
        if not isinstance(result, int) or result < 0:
            return f"resolution answer {result!r} is not a natural number"
        problem = _resolution_certificate(op, state, result)
        if problem:
            return problem
    else:
        if not result["ok"]:
            return "analyze reported a failed verification"
        if result["decoded"] != result["report"]:
            return "decode_report(encode_report(report)) differs from the report"
        if not result["svg"].startswith("<svg") or not result["mask"].startswith(b"P2"):
            return "malformed render output"
    if reference is not None and digest(result) != reference:
        return f"output {digest(result)!r} differs from reference {reference!r}"
    return None
