"""Backtracking searches for consistent orientations of a stratum.

One engine serves profile enumeration, F'-tangle enumeration and F-tangle
existence.  It keeps an explicit assignment per separation pair and
propagates to a fixed point after every decision:

- consistency: a chosen side forces every stratum superset's pair toward
  the superset (the other orientation would be disjoint from a chosen
  side);
- profile mode: two chosen sides force their intersection's pair toward
  the intersection wherever that pair lies in the stratum (the profile
  condition);
- fprime/ftangle modes: the same, but only for co-pointing chosen sides
  (sides whose union is everything) — avoiding the star {r, s, (r & s)*},
  which for co-pointing r, s is both a void 3-star and a violator of the
  profile condition;
- ftangle mode additionally rejects single-pixel sides.

Each rule is a direct consequence of the orientation property being
searched for, and each is detected the moment the last side of a
violating configuration is assigned: a violation always consists of sides
x, y whose forced consequence contradicts a third assigned side, and the
pairwise scan against all previously chosen sides runs on every
assignment.  Leaves of the search are therefore exactly the orientations
sought, with no post-filtering.  This module holds no checkers of its own:
`duality.find_f_tangle` re-verifies every F-tangle hit with the
definition-level `profiles.is_profile` and `profiles.is_focused`, and the
test suite compares all three modes against brute-force oracles.
"""
from __future__ import annotations

from .sepsys import Stratum

_MODES = ("profile", "fprime", "ftangle")


class SearchDefect(RuntimeError):
    """Internal invariant failure in an exhaustive search."""


def _is_full_universe(stratum: Stratum) -> bool:
    npix = stratum.full_mask.bit_count()
    return len(stratum.pairs) == (1 << (npix - 1)) - 1


def _principal_orientations(stratum: Stratum) -> list[frozenset[int]]:
    """The orientation toward each pixel of a full-universe stratum, in
    pixel order.  That is the canonical order: for pixels p < q the
    smallest side chosen by exactly one of the two is {p}, chosen toward p."""
    full = stratum.full_mask
    out = []
    for p in range(full.bit_length()):
        chosen = [c if c >> p & 1 else c ^ full for c in stratum.pairs]
        chosen.append(full)
        out.append(frozenset(chosen))
    return out


class _AssignmentSearch:
    """DPLL-style search over one side per pair, propagating to conflict
    or fixed point after each decision."""

    def __init__(self, stratum: Stratum, mode: str):
        assert mode in _MODES
        self.mode = mode
        self.full = stratum.full_mask
        # branch on small underlying sets first: they decide the most
        self.pairs = sorted(
            stratum.pairs,
            key=lambda c: (min(c.bit_count(), (c ^ self.full).bit_count()), c),
        )
        self.index: dict[int, int] = {}
        for i, c in enumerate(self.pairs):
            self.index[c] = i
            self.index[c ^ self.full] = i
        self.status: list[int | None] = [None] * len(self.pairs)
        self.chosen: list[int] = []

    def _propagate(self, side: int) -> int | None:
        """Assign `side` and close under forcing.  Returns the number of
        assignments made, or None on conflict (caller rolls back using
        the length of self.chosen recorded beforehand)."""
        made = 0
        queue = [side]
        while queue:
            s = queue.pop()
            if self.mode == "ftangle" and s.bit_count() == 1:
                return None  # single-pixel star
            i = self.index[s]
            cur = self.status[i]
            if cur is not None:
                if cur != s:
                    return None
                continue
            # forced intersections with previously chosen sides
            for y in self.chosen:
                if self.mode == "profile" or y | s == self.full:
                    j = y & s
                    if j == 0:
                        return None  # disjoint chosen sides: inconsistent
                    pj = self.index.get(j)
                    if pj is not None:
                        if self.status[pj] is None:
                            queue.append(j)
                        elif self.status[pj] != j:
                            return None  # {s, y, j*} fully present
            self.status[i] = s
            self.chosen.append(s)
            made += 1
            # consistency: every stratum superset of s is forced
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
        # decision frames [pair index, sides left to try (the larger side
        # is tried first), assignments made by the side being tried]
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
            # backtrack to the deepest frame with a side left that propagates
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


# -- public entry points ------------------------------------------------------


def enumerate_profile_orientations(stratum: Stratum) -> list[frozenset[int]]:
    """All profiles of the stratum as chosen-side sets, canonically sorted."""
    if _is_full_universe(stratum):
        # over the full universe every profile is principal: if no single
        # pixel is chosen then every inverse of one is, and for a minimal
        # chosen member m with p in m the profile condition applied to m
        # and {p}* forces m minus p in, descending to a single pixel
        return _principal_orientations(stratum)
    found = _AssignmentSearch(stratum, "profile").run()
    return sorted(found, key=sorted)


def enumerate_fprime_orientations(stratum: Stratum) -> list[frozenset[int]]:
    """All consistent orientations avoiding stars of the form r, s, (r v s)*."""
    if _is_full_universe(stratum):
        # as for profiles: the forcing star {m, {p}*, (m minus p)*} lies in
        # F' whenever its members are present, which over the full universe
        # they always are, so the same descent applies; conversely every
        # principal orientation avoids F' since all its members share a pixel
        return _principal_orientations(stratum)
    found = _AssignmentSearch(stratum, "fprime").run()
    return sorted(found, key=sorted)


def find_star_avoiding_orientation(stratum: Stratum) -> frozenset[int] | None:
    """One consistent orientation avoiding void <=3-stars and single pixels."""
    if _is_full_universe(stratum):
        # no avoiding orientation exists over the full universe: single
        # pixels force every inverse of one in, and a minimal member m
        # with p in m then closes the void 3-star {m, {p}*, (m minus p)*}
        return None
    hits = _AssignmentSearch(stratum, "ftangle").run(find_one=True)
    return hits[0] if hits else None
