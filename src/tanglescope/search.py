"""Backtracking searches for consistent orientations of a stratum.

One engine serves F-tangle enumeration and existence; it searches
F-tangles only.  It assigns one side per separation pair and propagates
to a fixed point after every decision:

- consistency: a chosen side forces every stratum superset's pair toward
  the superset (the other orientation would be disjoint from a chosen
  side);
- co-pointing chosen sides r, s (sides whose union is everything) force
  their intersection's pair toward the intersection wherever that pair
  lies in the stratum, avoiding the star {r, s, (r & s)*}, which is both
  a void 3-star and a violator of the profile condition;
- single-pixel sides are rejected, as every one of them is a star in F.

Each rule is a direct consequence of the orientation property being
searched for, so forcing never prunes an orientation sought.  It is not
complete, though: a side forced as a superset runs no co-pointing check
(below), so a complete assignment can still hold a star {r, s, (r & s)*}.
Every leaf is therefore checked before it is kept: first by the
shared-pixel certificate, where its chosen sides share a pixel (one
`np.bitwise_and.reduce` over the chosen-side array and a single-pixel
test), and otherwise by `_AssignmentSearch._closed_under_co_pointing`,
the co-pointing rule run on every two chosen sides.  A leaf failing both
is dropped and counted (`dropped`), and a find-one search goes on past
it.  A kept leaf is an F-tangle, and nothing checks it again:

- a leaf is consistent by construction, as the chosen sides stay
  up-closed in the stratum: every stratum superset of a chosen side is
  chosen.  Suppose they are before a popped side s is assigned.  A popped
  side whose pair holds its other side is a conflict, and superset
  forcing assigns only free pairs, so a superset t of s whose pair is
  assigned already holds t: were t* chosen, its superset s* would be
  chosen too, and s a conflict.  A side forced as a superset forces
  nothing itself, but its supersets are supersets of s, all chosen now.
  So two chosen sides x, y of distinct pairs are never disjoint, or y
  would put its superset x* beside x;
- a consistent orientation O of a stratum S_k of a submodular order is a
  profile exactly when, for any two chosen sides r, s with r | s = full
  whose intersection's pair lies in S_k, r & s is chosen.  The profile
  condition says (r & s)* is not chosen, and O orients that pair.
  Conversely, let chosen x, y have z = (x & y)* chosen.  Submodularity
  and order(A) = order(A*) give order(x & y*) + order(x* & y) <=
  order(x) + order(y) < 2k, so one of them, say x & y*, lies in S_k.
  Then x and z co-point, and x & z = x & y* is nonempty (or z = x*)
  and misses the chosen y, so it is y* or a side that consistency keeps
  out: either way it is not chosen, and the rule fails at (x, z).
  Canvas orders are cut functions with weights N - delta >= 0
  (`WeightedCanvas.from_picture`), so they are submodular;
- single-pixel sides are rejected on assignment, and a superset of a
  side of two or more pixels is no single pixel, so a leaf passing the
  rule is an unfocused profile, an F-tangle.  The shared-pixel
  certificate is the heavy-pixel argument of `duality.find_f_tangle`: it
  is sufficient, and it costs O(pairs).

The assignment is two Python-int bitsets over the pair indices and
nothing else: `as_c` holds the pairs whose canonical side (the one
without pixel 0) is chosen, `as_d` those whose other side is.  A side is
looked up by its canonical side.  Each decision frame keeps the
(as_c, as_d) it started from, and backtracking restores that pair, so an
undo costs nothing per assignment.  A leaf is a `profiles.Profile`:
the bits of `as_c`, unpacked in one numpy pass and put back into stratum
order.  No set of chosen sides is built.

The search order sorts the pairs c by (min(|c|, |c*|), c), with a numpy
popcount of the pairs' bit matrix and one `np.lexsort`.  Within one
`_propagate` call the pair statuses are read from bytearray copies of
as_c and as_d, in O(1) per read: each single assignment sets its bit in
the copy as well, and a superset OR that assigns pairs copies its bitset
again.  A read of the ints themselves would shift an int as wide as the
stratum.

Forcing runs on the same bitsets.  One column per pixel p, built once per
search from the pairs' bit matrix, has bit i set iff p lies in the
canonical side of pair i.  The pairs whose canonical side contains a side
s are then the AND of the columns of the pixels of s, and the pairs whose
other side contains s the AND of the complemented columns; the two masks
are computed when needed, not kept.  For a side s that runs its checks:

- the chosen sides co-pointing with s are the chosen supersets of s*,
  `(sup_c(s*) & as_c) | (sup_d(s*) & as_d)`, and each one's intersection
  with s is looked up by side and queued when it lies in the stratum; a
  queued side whose pair holds it already is skipped, and one whose pair
  holds its other side is a conflict;
- superset forcing then assigns the free supersets of s at once, with
  `as_c |= sup_c(s) & free` and `as_d |= sup_d(s) & free`.  These sides
  run no checks of their own: their supersets are supersets of s, and
  the stars their co-pointing check would catch are left to the leaf
  check.  Only decided sides and forced intersections run the checks;
- the next decision is the lowest free pair at or after the last one.

Weaker forcing changes neither the kept leaves nor their order.  When
pair i is decided every earlier pair is assigned, so two leaves part at
the decision on the first pair where they differ, and the one holding
the side tried first there (the larger side) comes first: the search
lists its leaves in this lexicographic order whatever sound forcing it
runs.
Forcing that skips a check only adds leaves, the certified ones are
still exactly the orientations sought, and so the kept leaves, their
order and the first of them (the find-one hit) are those of an engine
that runs every co-pointing check.

Profiles are assembled, not searched for.  A profile that chooses some
{p} contains every side containing p, so it is the principal orientation
toward p, and that orientation is a profile whenever {p} lies in the
stratum.  A profile choosing no single pixel is exactly an F-tangle,
since profiles are the F'-tangles (the footnote equivalence) and the
F-tangles are the F'-tangles choosing no single pixel.  Enumeration
therefore returns the focus pixels and the F-tangles, and builds no
principal orientation: `profiles.enumerate_profiles` builds them for a
complete level, as the bits `(pairs >> p) & 1`, and `profiles.regions`
never does: it needs only the number of focused profiles inducing each
F-tangle, which it reads off the pixels' orders
(`profiles.focused_children`).

The find-one search is left only the levels where a non-principal
F-tangle could be the answer.  `duality.find_f_tangle` answers a level
where some pixel p has order({p}) >= k with the principal orientation
toward p, and searches every other level it is given, one with a chop
tree too.  `duality.verify_duality` owns the chop tree: it builds and
verifies a level's tree first, answers a level whose tree
`duality.verify_chop_tree` accepts with no F-tangle, by the easy half of
the duality theorem that its docstring proves, and calls `find_f_tangle`
on the rest.  So on the `analyze` path the search decides only levels
where every {p} lies in the stratum and no verified tree exists, which
are exactly the levels with a non-principal F-tangle, and the strata
above `duality.CHOP_TREE_PAIR_LIMIT` pairs, where no tree is tried.
A resolution query (`duality.max_supported_resolution`) reaches
`verify_duality` only at a level that its bottom-up carving
(`duality.carve_chop_tree`) cannot settle; a level settled by a verified
carved tree reads no order table and builds no stratum.

The test suite compares the leaf check with the definition-level profile
predicate, the search and the assembled profiles with brute-force
oracles, and the profiles with the F'-tangles of the frozen reference
search in `tests/oracles.py`.
"""
from __future__ import annotations

import numpy as np

from . import profiles  # which imports this module: its names are read at call time
from .sepsys import Stratum


class SearchDefect(RuntimeError):
    """Internal invariant failure in an exhaustive search."""


def _focus_pixels(stratum: Stratum) -> list[int]:
    """The pixels p with {p} in the stratum, in pixel order.  That is the
    canonical order of their principal orientations: for such p < q the
    smallest side chosen by exactly one of the two is {p}, chosen toward p."""
    return [p for p, order in enumerate(stratum.pool.pixel_orders) if order < stratum.k]


def _bits(mask: int) -> list[int]:
    """The indices of the set bits of `mask`, lowest first."""
    return np.flatnonzero(_bit_array(mask, mask.bit_length())).tolist()


def _bit_array(mask: int, count: int) -> np.ndarray:
    """Bits 0 .. count - 1 of `mask`, lowest first, one uint8 each: the
    mask's bytes unpacked in one numpy pass."""
    raw = np.frombuffer(mask.to_bytes((count + 7) // 8, "little"), np.uint8)
    return np.unpackbits(raw, count=count, bitorder="little")


def _shares_pixel_certificate(p: profiles.Profile) -> bool:
    """True when one pixel lies in every side the orientation chooses and
    none of them is a single pixel.  Such an orientation is an unfocused
    profile: any two chosen sides x, y share the pixel, so they are not
    disjoint and (x & y)*, which misses it, is not chosen.  O(pairs).
    The full side is no single pixel here: every stratum of a 1-pixel
    canvas is a full universe, which has no F-tangle to certify
    (`_f_tangles`)."""
    sides = p.sides()
    return (int(np.bitwise_and.reduce(sides, initial=p.stratum.full_mask)) != 0
            and np.count_nonzero(sides & (sides - 1)) == len(sides))


class _AssignmentSearch:
    """DPLL-style search over one side per pair, propagating to conflict
    or fixed point after each decision."""

    def __init__(self, stratum: Stratum):
        self.stratum = stratum
        self.dropped = 0             # complete assignments that failed the leaf check
        self.full = stratum.full_mask
        # the pairs' little-endian bit matrix: row i holds the pixels of pair
        # i, as sides fit in 32 bits (HARD_PIXEL_CAP)
        matrix = np.unpackbits(np.asarray(stratum.pairs, "<u4").view(np.uint8).reshape(-1, 4),
                               axis=1, bitorder="little")
        # branch on small underlying sets first: they decide the most.  The
        # search order sorts the pairs c by (min(|c|, |c*|), c)
        size = matrix.sum(axis=1)
        order = np.lexsort((stratum.pairs, np.minimum(size, self.full.bit_length() - size)))
        self.pairs = stratum.pairs[order].tolist()
        self.rank = np.argsort(order)   # pair i of the stratum is pairs[rank[i]]
        # pair index by canonical side, the side without pixel 0
        self.index = {c: i for i, c in enumerate(self.pairs)}
        # the whole assignment: the pairs whose canonical side (as_c) or
        # whose other side (as_d) is chosen
        self.all = (1 << len(self.pairs)) - 1
        self.width = (len(self.pairs) + 7) // 8   # bytes of an assignment bitset
        self.as_c = 0
        self.as_d = 0
        # pixel columns: bit i of incl[p] is set iff pixel p is in pairs[i],
        # the search-ordered matrix transposed
        columns = np.packbits(matrix[order].T, axis=1, bitorder="little")
        self.incl = [int.from_bytes(col.tobytes(), "little")
                     for col in columns[:self.full.bit_length()]]
        self.excl = [col ^ self.all for col in self.incl]

    def _supersets(self, side: int) -> tuple[int, int]:
        """The pairs whose canonical side contains `side`, and those whose
        other side does, as bitsets."""
        sup_c = sup_d = self.all
        for p in range(side.bit_length()):
            if side >> p & 1:
                sup_c &= self.incl[p]
                sup_d &= self.excl[p]
        return sup_c, sup_d

    def _propagate(self, side: int) -> bool:
        """Assign `side` and close under forcing.  False on conflict, with
        the assignment left half made: the caller restores it.

        Pair statuses are read from bytearray copies of as_c and as_d,
        bit i of byte i >> 3, which each single assignment sets as well and
        which are copied again after a superset OR that assigned pairs."""
        full, pairs, index, width = self.full, self.pairs, self.index, self.width
        chose_c = bytearray(self.as_c.to_bytes(width, "little"))
        chose_d = bytearray(self.as_d.to_bytes(width, "little"))
        queue = [side]
        while queue:
            s = queue.pop()
            if s.bit_count() == 1:
                return False  # single-pixel star
            i = index[s ^ full if s & 1 else s]
            byte, bit = i >> 3, 1 << (i & 7)
            held, other = (chose_d, chose_c) if s & 1 else (chose_c, chose_d)
            if other[byte] & bit:
                return False  # the pair holds the other side
            if held[byte] & bit:
                continue
            held[byte] |= bit
            if s & 1:
                self.as_d |= 1 << i
            else:
                self.as_c |= 1 << i
            # forced intersections with the chosen sides y co-pointing with
            # s (y | s == full): exactly the chosen supersets of s*.  Sides
            # of distinct pairs that co-point always meet.  An intersection
            # already held is skipped when popped, and one whose pair holds
            # its other side is a conflict, {s, y, j*} fully present
            sup_c, sup_d = self._supersets(s ^ full)
            for py in _bits((sup_c & self.as_c) | (sup_d & self.as_d)):
                j = (pairs[py] if chose_c[py >> 3] >> (py & 7) & 1 else pairs[py] ^ full) & s
                if (j ^ full if j & 1 else j) in index:
                    queue.append(j)
            # consistency: every stratum superset of s is forced, with no
            # checks of its own (the leaf check catches the stars skipped)
            sup_c, sup_d = self._supersets(s)
            free = self.all ^ (self.as_c | self.as_d)
            if sup_c & free:
                self.as_c |= sup_c & free
                chose_c = bytearray(self.as_c.to_bytes(width, "little"))
            if sup_d & free:
                self.as_d |= sup_d & free
                chose_d = bytearray(self.as_d.to_bytes(width, "little"))
        return True

    def _closed_under_co_pointing(self) -> bool:
        """The leaf check behind the shared-pixel certificate, on a complete
        assignment: True when, for every two co-pointing chosen sides s and
        y whose intersection's pair lies in the stratum, s & y is chosen.
        On the engine's leaves, which are consistent, that is the profile
        condition (see the module docstring).  Each unordered pair of sides
        is visited once, from its earlier side in search order: the
        co-pointing chosen sides are the chosen supersets of s*."""
        full, pairs, index = self.full, self.pairs, self.index
        sides = [c if b else c ^ full
                 for c, b in zip(pairs, _bit_array(self.as_c, len(pairs)).tolist())]
        for i, s in enumerate(sides):
            sup_c, sup_d = self._supersets(s ^ full)
            for py in _bits(((sup_c & self.as_c) | (sup_d & self.as_d)) >> (i + 1)):
                j = sides[i + 1 + py] & s
                pj = index.get(j ^ full if j & 1 else j)
                if pj is not None and sides[pj] != j:
                    return False
        return True

    def run(self, find_one: bool = False) -> list[profiles.Profile]:
        results: list[profiles.Profile] = []
        # decision frames (pair index, sides left to try (the larger side is
        # tried first), the assignment before the pair was decided)
        stack: list[tuple] = []
        start = 0
        while True:
            # the lowest free pair at or after start
            free = (self.all ^ (self.as_c | self.as_d)) >> start
            if not free:
                leaf = profiles.Profile(self.stratum, _bit_array(self.as_c, len(self.pairs))[self.rank])
                if _shares_pixel_certificate(leaf) or self._closed_under_co_pointing():
                    results.append(leaf)
                    if find_one:
                        return results
                else:
                    self.dropped += 1
            else:
                i = start + (free & -free).bit_length() - 1
                c = self.pairs[i]
                d = c ^ self.full
                sides = [c, d] if d.bit_count() >= c.bit_count() else [d, c]
                stack.append((i, sides, self.as_c, self.as_d))
            # backtrack to the deepest frame with a side left that propagates
            while stack:
                i, sides, self.as_c, self.as_d = stack[-1]
                if not sides:
                    stack.pop()
                elif self._propagate(sides.pop()):
                    start = i + 1
                    break
            else:
                return results


def _f_tangles(stratum: Stratum, find_one: bool = False) -> list[profiles.Profile]:
    """The consistent orientations avoiding void <=3-stars and single pixels
    (all of them, or the first found)."""
    if stratum.k > stratum.pool.max_order:
        # every bipartition has order below k, and no avoiding orientation
        # exists over this full universe: single pixels force every inverse
        # of one in, and a minimal member m with p in m then closes the
        # void 3-star {m, {p}*, (m minus p)*}
        return []
    return _AssignmentSearch(stratum).run(find_one)


# -- public entry points ------------------------------------------------------


def enumerate_profile_orientations(stratum: Stratum) -> tuple[list[int], list[profiles.Profile]]:
    """The profiles of the stratum in two parts: the pixels p with {p} in
    the stratum, in pixel order (the focused profile toward p is the
    principal orientation toward p), and the F-tangles, in search order."""
    return _focus_pixels(stratum), _f_tangles(stratum)


def find_star_avoiding_orientation(stratum: Stratum) -> profiles.Profile | None:
    """One consistent orientation avoiding void <=3-stars and single pixels."""
    hits = _f_tangles(stratum, find_one=True)
    return hits[0] if hits else None
