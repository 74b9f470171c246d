"""Independent brute-force oracles used to validate the search engines.

Everything here except `ReferenceSearch` enumerates all 2^pairs
orientations of a stratum and filters by the definitions, with no pruning
and no shared code with the engines under test.  Only usable on strata
with few pairs.

`ReferenceSearch` is the search engine as it was before its forcing ran
on bitsets: the same decisions and rules, with every assignment scanning
all pairs and all previously chosen sides.  It is kept frozen as the
reference for strata too large for the exhaustive oracles.
"""
from __future__ import annotations

from itertools import combinations, product

from tanglescope.profiles import is_profile, orientation_of
from tanglescope.sepsys import Stratum


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
    members = sorted(stratum.members)
    out = set()
    for x, y in combinations(members, 2):
        z = (x & y) ^ full
        star = frozenset({x, y, z})
        if z in stratum.members and all(
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
