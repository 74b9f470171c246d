"""Independent brute-force oracles used to validate the search engines,
and the definitions that only tests use.

Everything in the first part except `ReferenceSearch` enumerates all
2^pairs orientations of a stratum and filters by the definitions, with no
pruning and no shared code with the engines under test.  Only usable on
strata with few pairs.

`ReferenceSearch` is the search engine as it was before its forcing ran
on bitsets: the same decisions and rules, with every assignment scanning
all pairs and all previously chosen sides.  It is kept frozen as the
reference for strata too large for the exhaustive oracles.  Its F'-tangle
mode (`unfocused=False`) supplies the F'-tangles against which the tests
check the footnote equivalence, profiles = F'-tangles.

The second part holds definitions that no analysis path needs: the order
of every subset as one table, every side of a stratum as a set, any set
of chosen sides as an orientation, a profile planted as a search
engine's assignment, the standard star set F as an explicit set,
principality, induction, equivalence of profiles and the complete
profile levels.

`cut_order`, `carving_width` and `greedy_carving` stand apart from both.
`cut_order` is the order of a pixel set by the cut definition, one edge at
a time, against which the tests check the package's order kernel and its
order table.  `carving_width` is the weighted carving width by a subset
recursion, with `cut_order`'s orders, against which the tests check the
resolution and the duality verdicts.  `greedy_carving` is the bottom-up
carving as it was before its candidate merges were kept between merges,
rescanning every adjacency at each merge; `duality.carve_chop_tree` must
return the same tree, node for node.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, product

import numpy as np

from tanglescope.canvas import WeightedCanvas
from tanglescope.duality import ChopNode, ChopTree
from tanglescope.profiles import (Profile, enumerate_profiles, is_focused,
                                  is_profile, restrict)
from tanglescope.sepsys import SeparationPool, Stratum, star_sides, void_sides


def all_orientations(stratum: Stratum):
    full = stratum.full_mask
    for choice in product(*(((c, c ^ full) for c in stratum.pairs.tolist()))):
        yield frozenset(choice) | {full}


def naive_profiles(stratum: Stratum) -> list[frozenset[int]]:
    return sorted(
        (o for o in all_orientations(stratum)
         if is_profile(orientation_of(stratum, o))),
        key=sorted,
    )


def _consistent(chosen, full) -> bool:
    members = sorted(chosen)
    for i, x in enumerate(members):
        for y in members[i + 1:]:
            if x & y == 0 and x ^ full != y:
                return False
    return True


def _contains_star_from(chosen, stars) -> bool:
    return any(star <= chosen for star in stars)


def naive_tangles(stratum: Stratum, stars) -> list[frozenset[int]]:
    """Consistent orientations containing no member star as a subset."""
    return sorted(
        (o for o in all_orientations(stratum)
         if _consistent(o, stratum.full_mask)
         and not _contains_star_from(o, stars)),
        key=sorted,
    )


def naive_fprime_stars(stratum: Stratum) -> list[frozenset[int]]:
    """All stars {x, y, (x join y) inverse} within the stratum."""
    full = stratum.full_mask
    sides = members(stratum)
    out = set()
    for x, y in combinations(sorted(sides), 2):
        z = (x & y) ^ full
        star = frozenset({x, y, z})
        if z in sides and all(
            a | b == full for a, b in combinations(star, 2)
        ):
            out.add(star)
    return sorted(out, key=sorted)


class ReferenceSearch:
    """Scan-based DPLL search over one side per pair (frozen reference).

    `run` returns its leaves in discovery order; the bitset engine in
    `tanglescope.search` must return the same list."""

    def __init__(self, stratum: Stratum, unfocused: bool):
        self.unfocused = unfocused
        self.full = stratum.full_mask
        self.pairs = sorted(
            stratum.pairs.tolist(),
            key=lambda c: (min(c.bit_count(), (c ^ self.full).bit_count()), c),
        )
        self.index: dict[int, int] = {}
        for i, c in enumerate(self.pairs):
            self.index[c] = i
            self.index[c ^ self.full] = i
        self.status: list[int | None] = [None] * len(self.pairs)
        self.chosen: list[int] = []

    def _propagate(self, side: int) -> int | None:
        made = 0
        queue = [side]
        while queue:
            s = queue.pop()
            if self.unfocused and s.bit_count() == 1:
                return None
            i = self.index[s]
            cur = self.status[i]
            if cur is not None:
                if cur != s:
                    return None
                continue
            for y in self.chosen:
                if y | s == self.full:
                    j = y & s
                    pj = self.index.get(j)
                    if pj is not None:
                        if self.status[pj] is None:
                            queue.append(j)
                        elif self.status[pj] != j:
                            return None
            self.status[i] = s
            self.chosen.append(s)
            made += 1
            for pk, c in enumerate(self.pairs):
                if self.status[pk] is None:
                    d = c ^ self.full
                    if c & s == s:
                        queue.append(c)
                    elif d & s == s:
                        queue.append(d)
        return made

    def _rollback(self, count: int) -> None:
        for _ in range(count):
            s = self.chosen.pop()
            self.status[self.index[s]] = None

    def run(self, find_one: bool = False) -> list[frozenset[int]]:
        results: list[frozenset[int]] = []
        stack: list[list] = []
        start = 0
        while True:
            i = next((j for j in range(start, len(self.pairs))
                      if self.status[j] is None), None)
            if i is None:
                results.append(frozenset(self.chosen) | {self.full})
                if find_one:
                    return results
            else:
                c = self.pairs[i]
                d = c ^ self.full
                sides = [c, d] if d.bit_count() >= c.bit_count() else [d, c]
                stack.append([i, sides, 0])
            while stack:
                frame = stack[-1]
                self._rollback(frame[2])
                frame[2] = 0
                if not frame[1]:
                    stack.pop()
                    continue
                before = len(self.chosen)
                made = self._propagate(frame[1].pop())
                if made is None:
                    self._rollback(len(self.chosen) - before)
                    continue
                frame[2] = made
                start = frame[0] + 1
                break
            else:
                return results


# -- definitions used only by tests -------------------------------------------

def full_orders(wc: WeightedCanvas) -> np.ndarray:
    """The order of every subset of the pixel set, indexed by bitmask.

    The canvas's factored table gives the subsets without the top pixel:
    subset h * len(row) + l has order block_min[h] + rows[pattern(h)][l].
    A subset i with the top pixel has the order of its complement
    i ^ full = full - i, which is entry i - 2^(n-1) of that half reversed."""
    t = wc.all_orders()
    blocks = np.arange(len(t.block_min))
    half = (t.block_min[:, None] + t.rows[t.pattern[blocks % len(t.pattern)]]).ravel()
    return np.concatenate((half, half[::-1]))


def members(stratum: Stratum) -> frozenset[int]:
    """Every side of the stratum: both sides of each pair, 0 and the full side."""
    full = stratum.full_mask
    pairs = stratum.pairs.tolist()
    return frozenset([0, full, *pairs, *(c ^ full for c in pairs)])


_ENUMERATE_LIMIT = 400


@dataclass(frozen=True)
class StarSetF:
    """The standard star set over a stratum: void stars with at most three
    elements and single pixels; co-trivial singletons are void 1-stars."""

    stratum: Stratum

    @cached_property
    def _members(self) -> frozenset[int]:
        return members(self.stratum)

    def __contains__(self, star) -> bool:
        sides = set(star)
        full = self.stratum.full_mask
        if not sides <= self._members or not star_sides(sides, full):
            return False
        if len(sides) == 1 and next(iter(sides)).bit_count() == 1:
            return True  # single pixel
        return len(sides) <= 3 and void_sides(sides, full)

    def enumerate(self) -> list[frozenset[int]]:
        """All member stars; only for small strata."""
        sides = sorted(self._members)
        if len(sides) > _ENUMERATE_LIMIT:
            raise ValueError("stratum too large for star enumeration")
        out = []
        for r in (1, 2, 3):
            for combo in combinations(sides, r):
                if combo in self:
                    out.append(frozenset(combo))
        return out


@dataclass(frozen=True)
class Orientation:
    """Any set of chosen sides on a stratum, which `is_profile` reads as
    it reads a profile's `chosen`: a profile holds the chosen side of every
    pair plus the full side."""

    stratum: Stratum
    chosen: frozenset[int]


def orientation_of(stratum: Stratum, chosen) -> Orientation:
    return Orientation(stratum, frozenset(chosen) | {stratum.full_mask})


def profile_of(stratum: Stratum, chosen) -> Profile:
    """The bit form of a set holding one side of every pair."""
    return Profile(stratum, [c in chosen for c in stratum.pairs.tolist()])


def plant(engine, p: Profile) -> None:
    """Set a search engine's assignment to the complete orientation p, in
    the engine's search order, as if its search had reached p as a leaf."""
    engine.as_c = sum(1 << r for r, b in zip(engine.rank.tolist(), p.bits.tolist()) if b)
    engine.as_d = engine.all ^ engine.as_c


def is_principal(p: Orientation) -> bool:
    """True iff the profile is exactly 'everything containing some pixel p'."""
    full = p.stratum.full_mask
    pairs = p.stratum.pairs.tolist()
    for pix in range(full.bit_length()):
        bit = 1 << pix
        if all((c & bit != 0) == (c in p.chosen)
               for pair in pairs for c in (pair, pair ^ full)):
            return True
    return False


def induces(p: Profile, q: Profile) -> bool:
    """The definition: q shares p's pool, and its chosen sides are p's
    chosen sides of order below q.k."""
    if q.k > p.k:
        raise ValueError("a profile can only induce profiles of lower or equal order")
    pool = p.stratum.pool
    return q.stratum.pool is pool and q.chosen == {s for s in p.chosen if pool.order_of(s) < q.k}


def equivalent(p: Profile, q: Profile) -> bool:
    """Equivalence of profiles: the higher one induces the lower and is the
    only profile doing so at every intermediate level."""
    if p.stratum.pool is not q.stratum.pool:
        raise ValueError("profiles from different pools")
    if p.k == q.k:
        return p == q
    hi, lo = (p, q) if p.k > q.k else (q, p)
    if restrict(hi, lo.k) != lo:
        return False
    for mid in range(lo.k, hi.k + 1):
        inducing = [r for r in enumerate_profiles(hi.stratum.pool.stratum(mid))
                    if restrict(r, lo.k) == lo]
        if inducing != [restrict(hi, mid)]:
            return False
    return True


def profile_levels(pool: SeparationPool) -> dict[int, tuple[Profile, ...]]:
    """Profiles per stratum index, up to the first level where every profile
    is focused (no higher level can host an unfocused profile, since
    restrictions of unfocused profiles are unfocused)."""
    levels: dict[int, tuple[Profile, ...]] = {}
    max_k = pool.max_order + 1
    for k in range(1, max_k + 1):
        profs = enumerate_profiles(pool.stratum(k))
        levels[k] = profs
        if all(is_focused(p) for p in profs):
            break
    return levels


def cut_order(wc: WeightedCanvas, A: int) -> int:
    """The order of the pixel set A by the cut definition: N - delta summed
    over the edges with exactly one endpoint in A, one edge at a time."""
    return sum(wc.N - d for (p, q), d in zip(wc.canvas.edges, wc.delta)
               if (A >> p & 1) != (A >> q & 1))


def carving_width(wc: WeightedCanvas) -> int:
    """The carving width of the pixel graph under the edge weights N - delta
    (Seymour and Thomas, *Call routing and the ratcatcher*, 1994): the least
    w such that the pixel set splits into two parts, and each part of more
    than one pixel again into two, down to single pixels, with every part
    of order at most w.  w({p}) = order({p}), and w(S) is the minimum over
    splits S = A + B of max(order(A), order(B), w(A), w(B)).  A 3^n
    recursion over the subsets, with each order from `cut_order`."""
    n = wc.npixels
    order = [cut_order(wc, s) for s in range(1 << n)]
    width = list(order)
    for s in range(1, 1 << n):
        if s & (s - 1) == 0:
            continue
        low = s & -s
        best = None
        a = (s - 1) & s
        while a:
            if a & low:  # each split once: A holds the lowest pixel of S
                b = s ^ a
                split = max(order[a], order[b], width[a], width[b])
                best = split if best is None else min(best, split)
            a = (a - 1) & s
        width[s] = best
    return width[(1 << n) - 1]


def greedy_carving(wc: WeightedCanvas, k: int) -> ChopTree | None:
    """The bottom-up greedy carving of `duality.carve_chop_tree` with a full
    rescan: each merge scans every pair of adjacent parts for the heaviest
    joining weight w whose union has order below k, ties to the lower
    union order, then to the lower union mask."""
    nodes = {1 << p: ChopNode(1 << p, ()) for p in range(wc.npixels)}
    order = dict.fromkeys(nodes, 0)
    joined: dict[int, dict[int, int]] = {p: {} for p in nodes}   # by part: w to each neighbour
    for (p, q), d in zip(wc.canvas.edges, wc.delta):
        p, q, w = 1 << p, 1 << q, wc.N - d
        order[p] += w
        order[q] += w
        joined[p][q] = joined[q][p] = joined[p].get(q, 0) + w
    if max(order.values()) >= k:
        return None
    while len(nodes) > 2:
        best = None
        for a, around in joined.items():
            for b, w in around.items():
                if a < b:
                    union = order[a] + order[b] - 2 * w
                    if union < k and (best is None or (-w, union, a | b) < best[0]):
                        best = (-w, union, a | b), a, b
        if best is None:
            return None
        (_, union, merged), a, b = best
        order[merged] = union
        nodes[merged] = ChopNode(merged, (nodes.pop(a), nodes.pop(b)))
        around = joined[merged] = {}
        for half in (a, b):
            for c, w in joined.pop(half).items():
                del joined[c][half]
                if not c & merged:
                    around[c] = around.get(c, 0) + w
        for c, w in around.items():
            joined[c][merged] = w
    return ChopTree(k, tuple(nodes.values()))
