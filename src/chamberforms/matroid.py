"""Matroid invariants feeding the determinant formulas.

Matroids are stored by explicit basis lists (ground sets here stay small),
which makes rank, minors and the flat lattice direct to compute and easy
to test.  The product formulas need coloop-free flats, Crapo's beta
and mu+ of a matroid and of its dual.  The last three are read from one
count of the bases by Tutte's internal and external activity: beta(M) is
the coefficient of x in T_M(x, y), mu+(M) = T_M(1, 0) and mu+(M*) =
T_M(0, 1).  The tests compute mu+ and beta by a second, independent
route, from the mu function of the lattice of flats.

A set of ground elements is an int mask throughout the package: bit i
stands for ground[i], so the bits of a mask list its set in ground order.
Labels appear only in constructor inputs, reports and messages;
Matroid.elements converts a mask to them, and bits walks a mask.

Bases are trusted: minors and the matroid of a compiled arrangement
(nonzero determinants) are matroids by construction.  Bases from outside
input must pass Matroid.check_exchange() where they enter.
"""

from __future__ import annotations

from functools import reduce
from itertools import combinations
from operator import and_
from typing import Iterable, Iterator, NamedTuple


def bits(mask: int) -> Iterator[int]:
    """The positions of the set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def r_subsets(n: int, r: int) -> list[int]:
    """The r-subsets of n elements as masks, in lexicographic order."""
    return [sum(1 << i for i in c) for c in combinations(range(n), r)]


class Flat(NamedTuple):
    elements: int  # mask
    rank: int


class Matroid:
    """A matroid given by its ground list (fixing the activity order) and
    its bases as masks.

    The constructor checks structure only, not basis exchange; bases from
    outside input must pass check_exchange().
    """

    def __init__(self, ground: Iterable, bases: Iterable[int]):
        self.ground = tuple(ground)
        if len(set(self.ground)) != len(self.ground):
            raise ValueError("ground elements must be distinct")
        self._full = (1 << len(self.ground)) - 1
        self.bases = frozenset(bases)
        if not self.bases:
            raise ValueError("a matroid needs at least one basis")
        sizes = {b.bit_count() for b in self.bases}
        if len(sizes) != 1:
            raise ValueError("all bases must have equal cardinality")
        (self.rank_,) = sizes
        if any(b & ~self._full for b in self.bases):
            raise ValueError("basis element outside ground set")
        self._flats = None
        self._activities = None

    def elements(self, s: int) -> list:
        """The elements of mask s, in ground order."""
        self._check(s)
        return [self.ground[i] for i in bits(s)]

    def _check(self, s: int) -> None:
        if s & ~self._full:
            raise ValueError(f"mask {s:#b} has bits outside the ground set "
                             f"of {len(self.ground)} elements")

    def check_exchange(self) -> None:
        """Raise ValueError unless the bases satisfy the exchange axiom."""
        bases = sorted(self.bases)  # not hash order: same failure each run
        for b1 in bases:
            # swaps[x]: the mask of the y for which b1 - x + y is a basis; it
            # holds x itself, so b2 fails exactly when it misses all of it
            swaps = {x: sum(1 << y for y in range(len(self.ground))
                            if b1 ^ 1 << x | 1 << y in self.bases)
                     for x in bits(b1)}
            for b2 in bases:
                for x, ys in swaps.items():
                    if not ys & b2:
                        raise ValueError(
                            f"basis exchange fails for {self.elements(b1)}, "
                            f"{self.elements(b2)}, {self.ground[x]}")

    def __eq__(self, other):
        return (isinstance(other, Matroid)
                and self.ground == other.ground and self.bases == other.bases)

    def __hash__(self):
        return hash((self.ground, self.bases))

    def __repr__(self):
        return f"Matroid(rank {self.rank_} on {len(self.ground)} elements, {len(self.bases)} bases)"

    # -- rank and closure ----------------------------------------------------

    def rank(self, s: int) -> int:
        self._check(s)
        return max((s & b).bit_count() for b in self.bases)

    def closure(self, s: int) -> Flat:
        """s plus the elements that lie in no basis B with |B & s| = r(s).

        r(s + e) = r(s) exactly when e lies in no such B, so one pass over
        the bases finds r(s) and the union of those B together.
        """
        self._check(s)
        r, spanned = -1, 0
        for b in self.bases:
            k = (s & b).bit_count()
            if k > r:
                r, spanned = k, b
            elif k == r:
                spanned |= b
        return Flat(s | self._full & ~spanned, r)

    # -- flat lattice ----------------------------------------------------------

    def flats(self) -> list[Flat]:
        """All flats, sorted by (rank, ground-order lexicographic elements)."""
        if self._flats is None:
            bottom = self.closure(0)
            level = [bottom.elements]
            found = {bottom.elements: bottom.rank}
            while level:
                nxt = []
                for f in level:
                    rest = self._full & ~f
                    while rest:  # the covers of f partition rest: one closure each
                        g = self.closure(f | rest & -rest)
                        rest &= ~g.elements
                        if g.elements not in found:
                            found[g.elements] = g.rank
                            nxt.append(g.elements)
                level = nxt
            self._flats = sorted((Flat(s, r) for s, r in found.items()),
                                 key=lambda fl: (fl.rank, tuple(bits(fl.elements))))
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
            counts: dict[tuple[int, int], int] = {}
            for b in self.bases:
                internal, external = b, self._full ^ b
                outside = list(bits(external))
                for f in bits(b):
                    for g in outside:
                        if b ^ 1 << f | 1 << g in self.bases:
                            if g < f:
                                internal &= ~(1 << f)
                            else:
                                external &= ~(1 << g)
                key = (internal.bit_count(), external.bit_count())
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

    def restrict(self, s: int) -> "Matroid":
        """M|s: b & s for the bases b that meet s in a basis of s."""
        return self._minor(s, s)

    def contract(self, s: int) -> "Matroid":
        """M/s: b - s for the bases b that meet s in a basis of s."""
        return self._minor(s, self._full ^ s)

    def _minor(self, s: int, keep: int) -> "Matroid":
        """b & keep for the bases b that meet s in a basis of s, on the
        elements of keep: bit k of a new mask is the k-th element of keep."""
        r = self.rank(s)
        pos = list(bits(keep))
        return Matroid(self.elements(keep),
                       {sum(1 << k for k, i in enumerate(pos) if b >> i & 1)
                        for b in self.bases if (s & b).bit_count() == r})

    # -- coloops ------------------------------------------------------------------

    def coloop_free_flats(self) -> list[Flat]:
        """Flats K with no coloop in M|K.

        The bases of M|K are the b & K with |b & K| = r(K), and a coloop of
        M|K lies in all of them, so K has none exactly when those bases have
        an empty intersection on K.
        """
        return [f for f in self.flats()
                if not reduce(and_, (b for b in self.bases
                                     if (b & f.elements).bit_count() == f.rank),
                              f.elements)]
