"""Matroid invariants feeding the determinant formulas.

Matroids are stored by explicit basis lists (ground sets here stay small),
which makes rank, minors, duals and the flat lattice direct to compute and
easy to test.  The invariants exposed are exactly the ones appearing in the
product formulas: Mobius values mu+, nbc basis counts, Crapo's beta, and
coloop-free flats.

Bases are trusted: minors, duals, uniform matroids and the matroid of a
compiled arrangement (nonzero determinants) are matroids by construction.
Bases from outside input must pass Matroid.check_exchange() where they enter.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, NamedTuple


class Flat(NamedTuple):
    elements: frozenset
    rank: int


class Matroid:
    """A matroid given by its ground list (fixing the nbc order) and bases.

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
        self._circuits = None
        self._mobius = None

    def check_exchange(self) -> None:
        """Raise ValueError unless the bases satisfy the exchange axiom."""
        for b1 in self.bases:
            # swaps[x]: the y for which b1 - {x} + {y} is a basis
            swaps = {x: {y for y in self.ground if b1 - {x} | {y} in self.bases}
                     for x in b1}
            for b2 in self.bases:
                for x in b1 - b2:
                    if not swaps[x] & b2:
                        raise ValueError(
                            f"basis exchange fails for {set(b1)}, {set(b2)}, {x}")

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
        s = frozenset(subset)
        r = self.rank(s)
        closed = frozenset(e for e in self.ground if self.rank(s | {e}) == r)
        return Flat(closed, r)

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

    def _require_flat(self, k: Flat | Iterable) -> Flat:
        s = k.elements if isinstance(k, Flat) else frozenset(k)
        cl = self.closure(s)
        if cl.elements != s:
            raise ValueError(f"{set(s)} is not a flat (closure adds {set(cl.elements - s)})")
        return cl

    def mobius(self, k) -> int:
        """Mobius value mu(bottom, K) on the lattice of flats."""
        k = self._require_flat(k)
        if self._mobius is None:
            self._mobius = {}
            for fl in self.flats():
                below = sum(self._mobius[f.elements] for f in self.flats()
                            if f.elements < fl.elements)
                self._mobius[fl.elements] = 1 if fl.rank == self.flats()[0].rank else -below
        return self._mobius[k.elements]

    def mobius_plus(self, k) -> int:
        """Unsigned Mobius value (-1)^r(K) mu(bottom, K); positive on flats."""
        k = self._require_flat(k)
        v = (-1) ** k.rank * self.mobius(k)
        assert v > 0, "mu+ must be positive on flats of a loopless matroid"
        return v

    # -- circuits and nbc counts -----------------------------------------------

    def circuits(self) -> list[frozenset]:
        """Minimal dependent sets; every circuit has at most rank+1 elements."""
        if self._circuits is None:
            found: list[frozenset] = []
            top = min(self.rank_ + 1, len(self.ground))
            for size in range(1, top + 1):
                for c in combinations(self.ground, size):
                    s = frozenset(c)
                    if any(k <= s for k in found):
                        continue
                    if self.rank(s) < len(s):
                        found.append(s)
            self._circuits = found
        return list(self._circuits)

    def nbc_basis_count(self, k) -> int:
        """Bases of the restriction to flat K avoiding every broken circuit.

        The linear order is the ground-list order.  Equals mu+(K) whenever
        the restriction is loopless.
        """
        k = self._require_flat(k)
        rest = self.restrict(k.elements)
        order = {e: i for i, e in enumerate(self.ground)}
        broken = [c - {min(c, key=order.__getitem__)} for c in rest.circuits()]
        return sum(1 for b in rest.bases
                   if not any(bc <= b for bc in broken))

    # -- minors and duality ------------------------------------------------------

    def restrict(self, subset: Iterable) -> "Matroid":
        s = frozenset(subset)
        r = self.rank(s)
        bases = {s & b for b in self.bases if len(s & b) == r}
        return Matroid(tuple(e for e in self.ground if e in s), bases)

    def delete(self, e) -> "Matroid":
        return self.restrict(set(self.ground) - {e})

    def contract(self, e) -> "Matroid":
        if self.is_loop(e):
            return self.delete(e)
        ground = tuple(x for x in self.ground if x != e)
        bases = {b - {e} for b in self.bases if e in b}
        return Matroid(ground, bases)

    def contract_set(self, subset: Iterable) -> "Matroid":
        m = self
        for e in subset:
            m = m.contract(e)
        return m

    def dual(self) -> "Matroid":
        gset = frozenset(self.ground)
        return Matroid(self.ground, {gset - b for b in self.bases})

    # -- connectivity and beta ----------------------------------------------------

    def is_loop(self, e) -> bool:
        return all(e not in b for b in self.bases)

    def is_coloop(self, e) -> bool:
        return all(e in b for b in self.bases)

    def is_connected(self) -> bool:
        """Connected iff the circuit relation links all pairs of elements."""
        n = len(self.ground)
        if n <= 1:
            return True
        parent = {e: e for e in self.ground}

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for c in self.circuits():
            it = iter(c)
            first = find(next(it))
            for e in it:
                parent[find(e)] = first
        return len({find(e) for e in self.ground}) == 1

    def beta(self) -> int:
        """Crapo beta by deletion/contraction; 0 for loops and disconnected."""
        n = len(self.ground)
        if n == 0:
            return 0
        if n == 1:
            return 1 if self.rank_ == 1 else 0  # coloop vs loop
        e = next((x for x in self.ground
                  if not self.is_loop(x) and not self.is_coloop(x)), None)
        if e is None:
            return 0  # direct sum of loops/coloops on >= 2 elements
        return self.delete(e).beta() + self.contract(e).beta()

    def beta_sum(self, k) -> int:
        """(-1)^r(K) sum of mu(F) r(F) over flats F below K; equals beta of m|K."""
        k = self._require_flat(k)
        total = sum(self.mobius(f) * f.rank for f in self.flats()
                    if f.elements <= k.elements)
        return (-1) ** k.rank * total

    def coloop_free_flats(self) -> list[Flat]:
        out = []
        for f in self.flats():
            rest = self.restrict(f.elements) if f.elements else None
            if rest is None or not any(rest.is_coloop(e) for e in rest.ground):
                out.append(f)
        return out


def uniform_matroid(r: int, n: int, ground=None) -> Matroid:
    ground = tuple(range(1, n + 1)) if ground is None else tuple(ground)
    return Matroid(ground, combinations(ground, r))


def top_mu_plus(m: Matroid) -> int:
    """Number of nbc bases of the whole matroid.

    Equals the unsigned Mobius value of the top flat when the matroid is
    loopless; a loop makes the empty set a broken circuit, so the count is 0,
    which is the convention the bounded-region counts need.
    """
    return m.nbc_basis_count(m.closure(m.ground))
