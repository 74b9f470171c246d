"""Minimal laminar distinguishing line sets, their orientations and stars.

A line is an unoriented nontrivial bipartition, named by its canonical
side (the side not containing pixel 0); its order is the pool's."""
from __future__ import annotations

from dataclasses import dataclass

from .profiles import Profile, Region, distinguishable, distinguishes
from .search import SearchDefect
from .sepsys import SeparationPool, consistent_sides, laminar_sides, nested_sides


@dataclass(frozen=True)
class TreeSet:
    """A laminar set of lines over one pool."""

    pool: SeparationPool
    lines: tuple[int, ...]      # canonical sides, sorted by (order, side)

    def __len__(self):
        return len(self.lines)

    @property
    def full_mask(self) -> int:
        return self.pool.full_mask


def make_tree_set(pool: SeparationPool, lines) -> TreeSet:
    return TreeSet(pool, tuple(sorted(set(lines), key=lambda c: (pool.order_of(c), c))))


def _oriented_by(p: Profile, t: TreeSet) -> frozenset[int]:
    """The sides of t's lines that p chooses: p's partial orientation of t."""
    full = t.full_mask
    return frozenset(side for line in t.lines
                     for side in (line, line ^ full) if side in p.chosen)


def min_distinguishers(p: Profile, q: Profile) -> frozenset[int]:
    """All minimum-order lines distinguishing p from q (the efficiency oracle)."""
    if not distinguishable(p, q):
        raise ValueError("profiles are not distinguishable")
    order = p.pool.order_of
    candidates = [c for c in p.pool.stratum(min(p.k, q.k)).pairs
                  if distinguishes(c, p, q)]
    best = min(map(order, candidates))
    return frozenset(c for c in candidates if order(c) == best)


# -- orientations of a tree set ----------------------------------------------


def consistent_orientations(t: TreeSet) -> list[frozenset[int]]:
    """All consistent orientations of the tree set, as chosen-side sets."""
    full = t.full_mask
    out: list[frozenset[int]] = []

    def descend(i: int, chosen: list[int]):
        if i == len(t.lines):
            out.append(frozenset(chosen))
            return
        line = t.lines[i]
        for side in (line, line ^ full):
            if consistent_sides(chosen + [side], full):
                chosen.append(side)
                descend(i + 1, chosen)
                chosen.pop()

    descend(0, [])
    return sorted(out, key=sorted)


def _maximal_elements(sides) -> frozenset[int]:
    """Maximal under <= (reverse inclusion): the inclusion-minimal sides."""
    sides = list(sides)
    return frozenset(
        s for s in sides
        if not any(o != s and o & s == o for o in sides)
    )


def splitting_stars(t: TreeSet) -> list[frozenset[int]]:
    """Maximal-element sets of the consistent orientations (the tree nodes)."""
    return [_maximal_elements(o) for o in consistent_orientations(t)]


def outline(rho: Region, t: TreeSet) -> frozenset[int]:
    """Maximal elements of the complexity-level profile's restriction to t."""
    return _maximal_elements(_oriented_by(rho.members[0], t))


# -- construction and verification -------------------------------------------


def build_distinguishing_tree_set(profiles, pool: SeparationPool) -> TreeSet:
    """A minimal laminar set of efficient distinguishers for the profiles.

    Greedy by increasing minimum distinguishing order with nestedness
    backtracking, then a deletion pass; candidate outputs failing plain
    minimality fall through to the next greedy solution.
    """
    profiles = sorted(set(profiles), key=lambda p: (p.k, sorted(p.chosen)))
    pairs = []
    for i, p in enumerate(profiles):
        for q in profiles[i + 1:]:
            pairs.append((min_distinguishers(p, q), (p, q)))
    # a pair's candidates share one order
    order = pool.order_of
    pairs.sort(key=lambda pr: (order(min(pr[0])), sorted(pr[0])))
    full = pool.full_mask

    def plain_ok(lines, without=None) -> bool:
        kept = [l for l in lines if l != without]
        return all(any(distinguishes(l, p, q) for l in kept)
                   for _, (p, q) in pairs)

    def efficient_ok(lines, without=None) -> bool:
        kept = [l for l in lines if l != without]
        return all(any(l in cands for l in kept) for cands, _ in pairs)

    def solutions(i: int, lines: list[int]):
        if i == len(pairs):
            yield list(lines)
            return
        candidates, _ = pairs[i]
        if any(l in candidates for l in lines):
            yield from solutions(i + 1, lines)
            return
        for cand in sorted(candidates):
            if all(nested_sides(cand, l, full) for l in lines):
                lines.append(cand)
                yield from solutions(i + 1, lines)
                lines.pop()

    for lines in solutions(0, []):
        # deletion pass: drop lines while every pair stays efficiently
        # distinguished
        changed = True
        while changed:
            changed = False
            for l in sorted(lines, key=lambda l: (-order(l), -l)):
                if efficient_ok(lines, without=l):
                    lines.remove(l)
                    changed = True
                    break
        if all(not plain_ok(lines, without=l) for l in lines):
            return make_tree_set(pool, lines)
    raise SearchDefect("no minimal laminar efficient distinguisher set found")


@dataclass(frozen=True)
class TreeSetReport:
    laminar: bool
    efficiency: bool
    minimality: bool
    bijection: bool

    @property
    def ok(self) -> bool:
        return self.laminar and self.efficiency and self.minimality and self.bijection


def verify_tree_set(t: TreeSet, profiles) -> TreeSetReport:
    """Independent check of efficiency, minimality and the orientation
    bijection, plus laminarity."""
    profiles = sorted(set(profiles), key=lambda p: (p.k, sorted(p.chosen)))
    laminar = laminar_sides(t.lines, t.full_mask)
    prof_pairs = [(p, q) for i, p in enumerate(profiles) for q in profiles[i + 1:]]

    efficiency = all(not min_distinguishers(p, q).isdisjoint(t.lines)
                     for p, q in prof_pairs)
    minimality = all(
        any(not any(distinguishes(l, p, q)
                    for l in t.lines if l != removed)
            for p, q in prof_pairs)
        for removed in t.lines
    ) if t.lines else True

    orientations = consistent_orientations(t)
    # the consistent orientations of t extending each profile's partial one
    partials = [_oriented_by(p, t) for p in profiles]
    exts = [[o for o in orientations if part <= o] for part in partials]
    bijection = (
        len(orientations) == len(profiles)
        and all(len(e) == 1 for e in exts)
        and len({e[0] for e in exts}) == len(profiles)
    )
    return TreeSetReport(laminar, efficiency, minimality, bijection)
