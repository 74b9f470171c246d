"""Tangle duality: F-tangles for the standard star set F, chop trees and
the maximum supported resolution of a picture."""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cache

import numpy as np

from .canvas import DEFAULT_PIXEL_CAP, HARD_PIXEL_CAP, Canvas, Picture, WeightedCanvas
from .profiles import Profile, principal
from .search import SearchDefect, _shares_pixel_certificate, find_star_avoiding_orientation
from .sepsys import (SeparationPool, Stratum, build_universe, laminar_sides,
                     star_sides, void_sides)

# above this many pairs a duality report records the tree side as not
# attempted; `verify_duality` reads it, and nothing else does.  Only the
# glyph25 bench reference, which records the flat 5x4's k=1 verdict as
# skipped, still needs it: that tree builds and verifies in well under a
# second
CHOP_TREE_PAIR_LIMIT = 40000


def find_f_tangle(stratum: Stratum) -> Profile | None:
    """An F-tangle of the stratum for the standard F, or None.  It builds
    no chop tree and writes nothing to the pool: `verify_duality` settles
    the levels that have a verified tree before it calls this.  Two steps:

    - **Heavy pixel.**  A level where some pixel p has order({p}) >= k is
      answered in closed form, with the principal orientation toward the
      lowest such p: the side containing p of every pair.  It is an
      F-tangle: any two of its chosen sides share p, so it is consistent
      and no set of its sides is void, and it chooses no single pixel,
      since the only candidate, {p}, is not in the stratum.  It is also an
      unfocused profile, as for chosen x and y the side (x & y)* misses p.
      The answer gets the O(pairs) certificate of this argument
      (`_shares_pixel_certificate`), and one that fails it is an internal
      defect.
    - **Search.**  Every other level runs the find-one search, a level
      with a chop tree too.  Its hit is returned as found: the search
      keeps only leaves that its own leaf check has certified as
      F-tangles (see `search`).
    """
    k = stratum.k
    heavy = [p for p, order in enumerate(stratum.pool.pixel_orders) if order >= k]
    if heavy:
        hit = principal(stratum, heavy[0])
        if not _shares_pixel_certificate(hit):
            raise SearchDefect(f"the principal orientation toward pixel {heavy[0]} "
                               f"failed its certificate at k={k}")
        return hit
    return find_star_avoiding_orientation(stratum)


# -- chop trees ---------------------------------------------------------------


@dataclass(frozen=True)
class ChopNode:
    """A part of the recursive bipartition; leaves carry single pixels."""

    part: int
    children: tuple["ChopNode", ...]   # () for leaves, 2 otherwise

    def walk(self):
        """This node and its descendants in preorder."""
        return _preorder((self,))


# the leaf of each pixel: nodes are immutable, so every carved tree shares them
_LEAVES = tuple(ChopNode(1 << p, ()) for p in range(HARD_PIXEL_CAP))


@dataclass(frozen=True)
class ChopTree:
    """A rooted-at-an-edge decomposition by lines of order below k whose
    splitting stars are void 3-stars or single pixels."""

    k: int
    roots: tuple[ChopNode, ...]   # two halves, or one leaf for a 1-pixel canvas

    def nodes(self):
        """Every node of the tree in preorder, root by root."""
        return _preorder(self.roots)


def _preorder(roots):
    # an explicit stack, not one generator per tree level
    stack = list(roots[::-1])
    while stack:
        node = stack.pop()
        yield node
        stack += node.children[::-1]


def build_chop_tree(wc: WeightedCanvas, k: int,
                    pool: SeparationPool) -> ChopTree | None:
    """The dual witness: split the pixel set recursively along lines of
    order below k, down to single pixels, or None if no such tree exists.

    A tree's leaves are the single pixels, and each is a part of order
    below k.  So where some pixel p has order({p}) >= k no tree exists,
    and the answer is None without a search; `find_f_tangle` answers the
    same levels with the principal orientation toward p.

    `chop(part)` tries each split of part into two stratum sides c1 < c2.
    In a split, c1 < c2 exactly when c1 lacks part's highest pixel, so
    the candidates c1 are the stratum sides inside part less that pixel,
    read with numpy off the array of every stratum side.  It walks them
    in (order, side) order, the canonical sides of the stratum's pairs,
    which it sorts so by the stratum's `orders`, and then
    their complements in the same order.  A candidate passes when
    c2 = part ^ c1 has order below k, read with `pool.order_of` only as
    the walk reaches it, and the first split whose halves both chop is
    kept.  Halves are strictly smaller parts, so the memoised recursion
    ends and is exhaustive over splits; the roots are the two halves of
    the full set.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if wc.npixels == 0:
        raise ValueError("empty canvas")
    if wc.npixels == 1:
        return ChopTree(k, (ChopNode(wc.full_mask, ()),))
    if max(pool.pixel_orders) >= k:
        return None
    full = pool.full_mask
    order_of = pool.order_of
    stratum = pool.stratum(k)
    pairs = stratum.pairs[np.lexsort((stratum.pairs, stratum.orders))]
    sides = np.concatenate((pairs, pairs ^ full))

    @cache
    def chop(part: int) -> ChopNode | None:
        if part.bit_count() == 1:
            return ChopNode(part, ())
        low = part ^ (1 << (part.bit_length() - 1))
        for c1 in sides[(sides & low) == sides].tolist():
            if order_of(part ^ c1) < k:
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


def carve_chop_tree(wc: WeightedCanvas, k: int) -> ChopTree | None:
    """A chop tree at k carved bottom-up from the edge weights alone, or
    None where this greedy carving finds none; it reads no order table.

    It starts from the single pixels and repeatedly merges the two parts
    joined by the heaviest total edge weight w(A, B) among those whose
    union has order below k; ties go to the lower union order, then to
    the lower union mask.  order(A | B) = order(A) + order(B) - 2 w(A, B),
    as the edges between A and B leave the boundary.  Two parts remain as
    the roots.  Parts that share no edge are never merged, and the greedy
    order can miss a tree that exists, so None proves nothing: the exact
    `build_chop_tree` decides such a level.  A one-pixel canvas is its
    one leaf, as in `build_chop_tree`.

    The candidate merges are kept by union mask, each under its sort key
    (-w, union order, union mask), and each merge takes the least key.  A
    merge changes no other part's order or joining weight, so it drops the
    candidates of its two halves and offers the merged part's own, and
    every other candidate keeps its key."""
    nodes = {leaf.part: leaf for leaf in _LEAVES[:wc.npixels]}
    order = dict.fromkeys(nodes, 0)
    joined: dict[int, dict[int, int]] = {p: {} for p in nodes}   # by part: w to each neighbour
    N = wc.N
    for (p, q), d in zip(wc.canvas.edges, wc.delta):
        p, q, w = 1 << p, 1 << q, N - d
        order[p] += w
        order[q] += w
        joined[p][q] = joined[q][p] = joined[p].get(q, 0) + w
    if max(order.values()) >= k:
        return None
    # by union mask: (-w, union order, union mask, lower half, upper half)
    candidates = {}
    for a, around in joined.items():
        for b, w in around.items():
            if a < b:
                union = order[a] + order[b] - 2 * w
                if union < k:
                    candidates[a | b] = (-w, union, a | b, a, b)
    while len(nodes) > 2:
        if not candidates:
            return None
        _, union, merged, a, b = min(candidates.values())
        order[merged] = union
        nodes[merged] = ChopNode(merged, (nodes.pop(a), nodes.pop(b)))
        around = joined[merged] = {}
        for half in (a, b):
            for c, w in joined.pop(half).items():
                del joined[c][half]
                candidates.pop(half | c, None)
                if not c & merged:
                    around[c] = around.get(c, 0) + w
        for c, w in around.items():
            joined[c][merged] = w
            grown = union + order[c] - 2 * w
            if grown < k:
                candidates[merged | c] = ((-w, grown, merged | c, merged, c) if merged < c
                                          else (-w, grown, merged | c, c, merged))
    return ChopTree(k, tuple(nodes.values()))


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
                     pool: SeparationPool) -> ChopTreeReport:
    """Independent validation of the chop-tree invariants: the parts are
    laminar, every part but the full set has order below k (read with
    `pool.order_of`, or `pool.pixel_orders` for a single pixel, not taken
    from whatever built the tree), the leaves are the single pixels, one
    each, and every inner node splits its part into two children whose
    star is void.  One walk over the nodes in preorder checks all but
    laminarity, which the pairwise test checks only where the splits do
    not imply it."""
    full, k = pool.full_mask, tree.k
    order_of, pixel_orders = pool.order_of, pool.pixel_orders
    nodes = list(tree.nodes())
    orders_below_k = single_leaves = True
    # the two roots are the sides of one line
    stars_ok = (len(tree.roots) == 1 or
                (tree.roots[0].part | tree.roots[1].part == full
                 and not tree.roots[0].part & tree.roots[1].part))
    leaves = union = 0
    for node in nodes:
        part, children = node.part, node.children
        if orders_below_k and 0 < part < full:
            # a single pixel's order is the one the pool keeps for it
            orders_below_k = (pixel_orders[part.bit_length() - 1] if part & (part - 1) == 0
                              else order_of(part)) < k
        if not children:   # a leaf's star is its single pixel
            leaves += 1
            union |= part
            if part.bit_count() != 1:
                single_leaves = stars_ok = False
        elif stars_ok:
            # {part, c1*, c2*} is a void star iff c1 and c2 split part into
            # two nonempty halves and part is not the full set (whose two
            # halves would be one pair)
            stars_ok = len(children) == 2
            if stars_ok:
                star = [part, children[0].part ^ full, children[1].part ^ full]
                stars_ok = star_sides(star, full) and void_sides(star, full)
    leaves_biject_pixels = single_leaves and union == full and leaves == wc.npixels
    # where every split checks and at most two roots split the canvas, the
    # parts form a tree of partitions: two parts on one branch are nested,
    # and two on branches that part at some node (or at the roots) are
    # disjoint, so they are laminar without the pairwise test
    laminar = ((stars_ok and len(tree.roots) <= 2)
               or laminar_sides([node.part for node in nodes], full))
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
    """The level's chop tree with the verifier's report, and its F-tangle;
    by the duality theorem exactly one of the two exists.  This is the one
    place that builds a level's exact chop tree.

    Up to CHOP_TREE_PAIR_LIMIT pairs it builds the tree with
    `build_chop_tree` and checks it with `verify_chop_tree`, once each.  A
    tree that verifies answers that no F-tangle exists, by the easy half
    of the duality theorem (below), and the level is listed as empty for
    `profiles.regions`.  Every other level goes to `find_f_tangle`: one
    with no tree, one above the pair limit, whose tree side is skipped,
    and one whose tree fails verification.  That verdict is not ok, and
    its F-tangle side is searched independently of the failed tree.

    The easy half.  Let T be a verified chop tree at k and suppose an
    F-tangle t exists at k.  Every part of T has order below k, so t
    orients it.  The two roots are the sides of one line, so t chooses one
    of them.  Whenever t chooses the part X of a node with children c1 and
    c2, it chooses c1 or c2: otherwise it chooses X, c1* and c2*, and
    since c1 and c2 split X, {X, c1*, c2*} is a void 3-star, which is in F.
    Parts shrink going down, so t chooses some leaf {p}, a single pixel,
    which is in F too.  Either way t does not avoid F, a contradiction.
    A one-pixel canvas has the one root {p}, the full side, which every
    orientation chooses."""
    stratum = pool.stratum(k)
    if len(stratum.pairs) > CHOP_TREE_PAIR_LIMIT:
        return DualityReport(k, find_f_tangle(stratum), None, None, True)
    tree = build_chop_tree(pool.wc, k, pool)
    report = None if tree is None else verify_chop_tree(tree, pool.wc, pool)
    if report is not None and report.ok:
        pool._f_tangles[k] = ()
        return DualityReport(k, None, tree, report, False)
    return DualityReport(k, find_f_tangle(stratum), tree, report, False)


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
    """The largest k admitting an unfocused k-profile, found via F-tangles.

    It is the carving width of the pixel graph under the edge weights
    N - delta (Seymour and Thomas, *Call routing and the ratcatcher*,
    Combinatorica 1994).  A chop tree at k is a carving, a recursive split
    down to single pixels, whose every part has order below k, so a tree
    exists exactly when the width is below k, and by the duality an
    F-tangle exists exactly when k is at most the width.

    The answer is at least m = max_p order({p}): at every k <= m the
    principal orientation toward a pixel of order m is an F-tangle (see
    `find_f_tangle`), and no chop tree exists, since that pixel's leaf
    would have order >= k.  So the sweep starts at k = m + 1.  At each
    level it first tries `carve_chop_tree`, a greedy bottom-up carving
    from the edge weights; a carved tree that `verify_chop_tree` accepts
    proves that no F-tangle exists there, and the answer is k - 1.  The
    verifier reads each order through `SeparationPool.order_of`, which
    counts the boundary edges by the cut definition
    (`WeightedCanvas.order`) while the canvas has no table, not off the
    carving's own sums, and a carved tree that fails it is an internal
    defect.  So a query settled by a carving reads no order table and
    builds no stratum: it costs one carving, which keeps its candidate
    merges from one merge to the next, and one verification.  Only a
    level that the carving cannot settle builds its stratum, and
    `verify_duality` decides it, by a verified chop tree where one exists
    and by the search only where none does; a verdict that is not ok is
    an internal defect.  No bound on k is needed: at k above the largest
    order the stratum is the full universe, which has no F-tangle."""
    if subset is not None:
        wc = induced_subcanvas(wc, subset)
    pool = build_universe(wc, pixel_cap)
    best = max(pool.pixel_orders)
    for k in itertools.count(best + 1):
        tree = carve_chop_tree(wc, k)
        if tree is not None:
            if not verify_chop_tree(tree, wc, pool).ok:
                raise SearchDefect(f"the carved chop tree at k={k} failed verification")
            break
        # existence is downward-closed in k (restrictions of unfocused
        # profiles are unfocused), so stop at the first failure
        verdict = verify_duality(pool, k)
        if not verdict.ok:
            raise SearchDefect(f"the duality verdict at k={k} failed")
        if verdict.f_tangle is None:
            break
        best = k
    return best
