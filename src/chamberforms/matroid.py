"""Matroid invariants feeding the determinant formulas.

Matroids are stored by explicit basis lists (ground sets here stay small),
which makes rank, minors, duals and the flat lattice direct to compute and
easy to test.  The product formulas need coloop-free flats, Crapo's beta
and mu+ of a matroid and of its dual.  The last three are read from one
count of the bases by Tutte's internal and external activity: beta(M) is
the coefficient of x in T_M(x, y), mu+(M) = T_M(1, 0) and mu+(M*) =
T_M(0, 1).  The tests compute mu+ and beta by a second, independent
route, from the mu function of the lattice of flats.

Bases are trusted: minors, duals, uniform matroids and the matroid of a
compiled arrangement (nonzero determinants) are matroids by construction.
Bases from outside input must pass Matroid.check_exchange() where they enter.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, NamedTuple


def in_ground_order(ground: tuple, elements: Iterable) -> list:
    """The elements as a list in ground order, so that messages do not
    follow the hash order of a set."""
    s = frozenset(elements)
    return [e for e in ground if e in s]


class Flat(NamedTuple):
    elements: frozenset
    rank: int


class Matroid:
    """A matroid given by its ground list (fixing the activity order) and bases.

    The constructor checks structure only, not basis exchange; bases from
    outside input must pass check_exchange().
    """

    def __init__(self, ground: Iterable, bases: Iterable[Iterable]):
        self.ground = tuple(ground)
        if len(set(self.ground)) != len(self.ground):
            raise ValueError("ground elements must be distinct")
        self.bases = frozenset(frozenset(b) for b in bases)
        if not self.bases:
            raise ValueError("a matroid needs at least one basis")
        sizes = {len(b) for b in self.bases}
        if len(sizes) != 1:
            raise ValueError("all bases must have equal cardinality")
        (self.rank_,) = sizes
        gset = set(self.ground)
        if any(not b <= gset for b in self.bases):
            raise ValueError("basis element outside ground set")
        self._rank_cache: dict[frozenset, int] = {}
        self._flats = None
        self._activities = None

    def check_exchange(self) -> None:
        """Raise ValueError unless the bases satisfy the exchange axiom."""
        bases = sorted(self.bases, key=self._key)  # not hash order: same failure each run
        for b1 in bases:
            # swaps[x]: the y for which b1 - {x} + {y} is a basis
            swaps = {x: {y for y in self.ground if b1 - {x} | {y} in self.bases}
                     for x in in_ground_order(self.ground, b1)}
            for b2 in bases:
                for x, ys in swaps.items():
                    if x not in b2 and not ys & b2:
                        pair = [in_ground_order(self.ground, b) for b in (b1, b2)]
                        raise ValueError(
                            f"basis exchange fails for {pair[0]}, {pair[1]}, {x}")

    def __eq__(self, other):
        return (isinstance(other, Matroid)
                and self.ground == other.ground and self.bases == other.bases)

    def __hash__(self):
        return hash((self.ground, self.bases))

    def __repr__(self):
        return f"Matroid(rank {self.rank_} on {len(self.ground)} elements, {len(self.bases)} bases)"

    # -- rank and closure ----------------------------------------------------

    def rank(self, subset: Iterable) -> int:
        s = frozenset(subset)
        if not s <= set(self.ground):
            raise ValueError(f"elements {set(s) - set(self.ground)} not in ground set")
        cached = self._rank_cache.get(s)
        if cached is None:
            cached = max(len(s & b) for b in self.bases)
            self._rank_cache[s] = cached
        return cached

    def closure(self, subset: Iterable) -> Flat:
        """s plus the elements that lie in no basis B with |B & s| = r(s).

        r(s + e) = r(s) exactly when e lies in no such B, so one pass over
        the bases finds r(s) and the union of those B together.
        """
        s = frozenset(subset)
        if not s <= set(self.ground):
            raise ValueError(f"elements {set(s) - set(self.ground)} not in ground set")
        r, spanned = -1, set()
        for b in self.bases:
            k = len(s & b)
            if k > r:
                r, spanned = k, set(b)
            elif k == r:
                spanned |= b
        return Flat(s | frozenset(e for e in self.ground if e not in spanned), r)

    # -- flat lattice ----------------------------------------------------------

    def _key(self, s: frozenset) -> tuple:
        idx = {e: i for i, e in enumerate(self.ground)}
        return tuple(sorted(idx[e] for e in s))

    def flats(self) -> list[Flat]:
        """All flats, sorted by (rank, ground-order lexicographic elements)."""
        if self._flats is None:
            bottom = self.closure(())
            level = {bottom.elements}
            found = {bottom.elements: bottom.rank}
            while level:
                nxt = set()
                for f in level:
                    for e in self.ground:
                        if e in f:
                            continue
                        g = self.closure(f | {e})
                        if g.elements not in found:
                            found[g.elements] = g.rank
                            nxt.add(g.elements)
                level = nxt
            self._flats = sorted((Flat(s, r) for s, r in found.items()),
                                 key=lambda fl: (fl.rank, self._key(fl.elements)))
        return list(self._flats)

    # -- basis activities --------------------------------------------------------

    def activities(self) -> dict[tuple[int, int], int]:
        """Number of bases by (internal, external) activity, in ground order.

        These are the coefficients of the Tutte polynomial.  For a basis B,
        f in B and g outside B lie in each other's fundamental cocircuit and
        circuit exactly when B - f + g is a basis.  An element is active when
        it is the least of its fundamental cocircuit (f in B) or circuit
        (g outside B).
        """
        if self._activities is None:
            order = {e: i for i, e in enumerate(self.ground)}
            counts: dict[tuple[int, int], int] = {}
            for b in self.bases:
                outside = [g for g in self.ground if g not in b]
                internal, external = set(b), set(outside)
                for f in b:
                    for g in outside:
                        if b - {f} | {g} in self.bases:
                            if order[g] < order[f]:
                                internal.discard(f)
                            else:
                                external.discard(g)
                key = (len(internal), len(external))
                counts[key] = counts.get(key, 0) + 1
            self._activities = counts
        return dict(self._activities)

    def tutte(self, x: int, y: int) -> int:
        """T_M(x, y); T(1, 0) is mu+ of the top flat, T(0, 1) that of the dual.

        A loop is externally active in every basis, so T(1, 0) is 0 on a
        matroid with a loop, the convention the bounded-region counts need.
        """
        return sum(c * x ** i * y ** j for (i, j), c in self.activities().items())

    def beta(self) -> int:
        """Crapo's beta: bases with internal activity 1 and external activity 0.

        Nonzero exactly when the matroid is connected with at least one
        element that is not a loop.
        """
        return self.activities().get((1, 0), 0)

    # -- minors and duality ------------------------------------------------------

    def restrict(self, subset: Iterable) -> "Matroid":
        s = frozenset(subset)
        r = self.rank(s)
        bases = {s & b for b in self.bases if len(s & b) == r}
        return Matroid(tuple(e for e in self.ground if e in s), bases)

    def contract(self, subset: Iterable) -> "Matroid":
        """M/K: b - K for the bases b that meet K in a basis of K."""
        s = frozenset(subset)
        r = self.rank(s)
        bases = {b - s for b in self.bases if len(s & b) == r}
        return Matroid(tuple(e for e in self.ground if e not in s), bases)

    def dual(self) -> "Matroid":
        gset = frozenset(self.ground)
        return Matroid(self.ground, {gset - b for b in self.bases})

    # -- coloops ------------------------------------------------------------------

    def is_coloop(self, e) -> bool:
        return all(e in b for b in self.bases)

    def coloop_free_flats(self) -> list[Flat]:
        """Flats K with no coloop in M|K: r(K - e) = r(K) for every e in K."""
        return [f for f in self.flats()
                if all(self.rank(f.elements - {e}) == f.rank for e in f.elements)]


def uniform_matroid(r: int, n: int, ground=None) -> Matroid:
    ground = tuple(range(1, n + 1)) if ground is None else tuple(ground)
    return Matroid(ground, combinations(ground, r))

