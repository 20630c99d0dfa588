import json
import random
from fractions import Fraction
from functools import cache, reduce
from itertools import combinations, permutations
from math import comb
from operator import or_
from pathlib import Path
from typing import Optional, Sequence

import pytest

from chamberforms.arrangement import Arrangement
from chamberforms.forms import (IntersectionForm, build_S, build_Sq, h_poly,
                                verify)
# the fixture builders, re-exported to the test modules
from chamberforms.make_fixtures import example13_C, example13_Cprime, line_points
from chamberforms.matroid import Flat, Matroid, r_subsets
from chamberforms.oriented_matroid import (AffineOrientedMatroid, Chirotope,
                                           SignVector)
from chamberforms.polyring import ONE, ZERO, IntPoly, const

FIXTURE_DIR = Path(__file__).resolve().parent.parent / "fixtures"


def random_arrangement(rng: random.Random, dim: int, n: int):
    from chamberforms.cli import generate_random_arrangement
    return generate_random_arrangement(rng, dim, n)


def uniform_arrangement(rng: random.Random, r: int, n: int) -> Arrangement:
    """A generic arrangement whose normal matroid is U(r, n), like `dense`'s."""
    while True:
        arr = random_arrangement(rng, r, n)
        if arr is not None and len(arr.compile().matroid().bases) == comb(n, r):
            return arr


def uniform_lines(rng: random.Random, n: int = 8) -> Arrangement:
    """Generic lines in the plane whose normal matroid is uniform."""
    return uniform_arrangement(rng, 2, n)


# Fraction linear algebra: the reference for the integer minors that
# Arrangement reads its vertices and edge directions from, and for int_det.

def row_reduce(rows: list[list[Fraction]]) -> int:
    """In-place reduced row echelon form over Q; returns the rank."""
    if not rows:
        return 0
    n_cols = len(rows[0])
    r = 0
    for c in range(n_cols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        r += 1
        if r == len(rows):
            break
    return r


def fraction_det(rows) -> int:
    """Determinant of a square integer matrix by elimination over Q."""
    a = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for k in range(len(a)):
        piv = next((i for i in range(k, len(a)) if a[i][k]), None)
        if piv is None:
            return 0
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            det = -det
        det *= a[k][k]
        for i in range(k + 1, len(a)):
            f = a[i][k] / a[k][k]
            if f:
                a[i] = [x - f * y for x, y in zip(a[i], a[k])]
    return int(det)


def kernel_vector(rows, dim: int):
    """A nonzero vector spanning the kernel of the rows, or None unless it is a line."""
    work = [[Fraction(x) for x in row] for row in rows]
    rank = row_reduce(work)
    if rank != dim - 1:
        return None
    pivots = [next(c for c in range(dim) if row[c] != 0) for row in work[:rank]]
    free = next(c for c in range(dim) if c not in pivots)
    v = [Fraction(0)] * dim
    v[free] = Fraction(1)
    for row, p in zip(work[:rank], pivots):
        v[p] = -row[free]
    return tuple(v)


def vertices(arr: Arrangement) -> dict:
    """The intersection point of each basis of the normal matroid, over Q,
    keyed by basis mask; arr need not be generic."""
    m = normal_matroid(arr)
    out = {}
    for b in m.bases:
        labels = m.elements(b)
        hyps = [h for h in arr.hyperplanes if h.label in labels]
        aug = [list(h.normal) + [h.offset] for h in hyps]
        assert row_reduce(aug) == arr.dim
        out[b] = tuple(row[arr.dim] for row in aug)
    return out


def point_signs(arr: Arrangement, point) -> SignVector:
    """Side of each hyperplane that a rational point lies on."""
    signs = []
    for h in arr.hyperplanes:
        v = sum(a * x for a, x in zip(h.normal, point)) - h.offset
        signs.append((v > 0) - (v < 0))
    return SignVector.from_signs(arr.ground, signs)


def matroid_from_columns(cols, ground=None) -> Matroid:
    """Column matroid of a rational matrix, its columns labelled by ground
    (default 1..n): independent oracle for tests."""
    cols = [tuple(Fraction(x) for x in c) for c in cols]
    ground = tuple(range(1, len(cols) + 1)) if ground is None else tuple(ground)

    def rank_of(subset):
        rows = [list(cols[i]) for i in subset]
        return row_reduce(rows) if rows else 0

    r = rank_of(range(len(cols)))
    return Matroid(ground, [sum(1 << i for i in sub)
                            for sub in combinations(range(len(cols)), r)
                            if rank_of(sub) == r])


def normal_matroid(arr: Arrangement) -> Matroid:
    """The matroid of the normals by Fraction rank, on arr.ground; unlike
    compile(), it needs no genericity."""
    return matroid_from_columns([h.normal for h in arr.hyperplanes], arr.ground)


def matroid_on(ground, bases) -> Matroid:
    """The Matroid with bases given as sets of labels."""
    ground = tuple(ground)
    return Matroid(ground, [sum(1 << ground.index(e) for e in b) for b in bases])


def mask(m: Matroid, labels) -> int:
    """The mask of the given ground elements of m; ValueError on any other."""
    return reduce(or_, (1 << m.ground.index(e) for e in labels), 0)


def dual(m: Matroid) -> Matroid:
    """The dual matroid: the complements of the bases."""
    full = (1 << len(m.ground)) - 1
    return Matroid(m.ground, [full ^ b for b in m.bases])


def uniform_matroid(r: int, n: int, ground=None) -> Matroid:
    """U(r, n) on ground, by default 1..n."""
    ground = tuple(range(1, n + 1)) if ground is None else tuple(ground)
    return Matroid(ground, r_subsets(len(ground), r))


# Brute-force definitions that the basis-activity invariants are tested against.

def circuits(m: Matroid) -> list[frozenset]:
    """Minimal dependent sets; every circuit has at most rank + 1 elements."""
    found: list[frozenset] = []
    for size in range(1, min(m.rank_ + 1, len(m.ground)) + 1):
        for c in combinations(m.ground, size):
            s = frozenset(c)
            if not any(k <= s for k in found) and m.rank(mask(m, s)) < len(s):
                found.append(s)
    return found


def nbc_count(m: Matroid, flat) -> int:
    """Bases of m|K containing no broken circuit, in ground order.

    Equals mu+(K) when m|K is loopless and 0 when it has a loop (the empty
    set is then a broken circuit).
    """
    rest = m.restrict(flat.elements)
    order = {e: i for i, e in enumerate(m.ground)}
    broken = [c - {min(c, key=order.__getitem__)} for c in circuits(rest)]
    return sum(1 for b in rest.bases
               if not any(bc <= frozenset(rest.elements(b)) for bc in broken))


def is_coloop(m: Matroid, e) -> bool:
    """e lies in every basis."""
    return all(e in m.elements(b) for b in m.bases)


def is_connected(m: Matroid) -> bool:
    """Connected iff the circuits link all elements into one component."""
    components = [{e} for e in m.ground]
    for c in circuits(m):
        touched = [comp for comp in components if comp & c]
        components = [comp for comp in components if not comp & c]
        components.append(set().union(*touched))
    return len(components) <= 1


# The Mobius function of the lattice of flats: a second route to mu+ and beta.

def _require_flat(m: Matroid, k) -> Flat:
    s = k.elements if isinstance(k, Flat) else mask(m, k)
    cl = m.closure(s)
    if cl.elements != s:
        raise ValueError(f"{set(m.elements(s))} is not a flat "
                         f"(closure adds {set(m.elements(cl.elements & ~s))})")
    return cl


@cache
def _mobius_values(m: Matroid) -> dict:
    """mu(bottom, F) keyed by the mask of F, from the order on label sets."""
    flats = m.flats()
    labels = {f.elements: frozenset(m.elements(f.elements)) for f in flats}
    values: dict = {}
    for fl in flats:
        below = sum(values[f.elements] for f in flats
                    if labels[f.elements] < labels[fl.elements])
        values[fl.elements] = 1 if fl.rank == flats[0].rank else -below
    return values


def mobius(m: Matroid, k) -> int:
    """Mobius value mu(bottom, K) on the lattice of flats."""
    return _mobius_values(m)[_require_flat(m, k).elements]


def mobius_plus(m: Matroid, k) -> int:
    """Unsigned Mobius value (-1)^r(K) mu(bottom, K); positive on flats."""
    k = _require_flat(m, k)
    v = (-1) ** k.rank * mobius(m, k)
    if v <= 0:
        raise ValueError(f"mu+ of flat {set(m.elements(k.elements))} is {v}; the bases "
                         f"do not form a matroid")
    return v


def beta_sum(m: Matroid, k) -> int:
    """(-1)^r(K) sum of mu(F) r(F) over flats F below K; equals beta of m|K."""
    k = _require_flat(m, k)
    inside = set(m.elements(k.elements))
    total = sum(mobius(m, f) * f.rank for f in m.flats()
                if set(m.elements(f.elements)) <= inside)
    return (-1) ** k.rank * total


# Sign-vector and face references for the vertex stars of AffineOrientedMatroid:
# the cocircuits at infinity and composition closures, which the package no
# longer computes.

def support(bits: int, n: int) -> int:
    """The mask of the nonzero entries of a packed sign vector on n elements."""
    return (bits | bits >> n) & ((1 << n) - 1)


def negate(bits: int, n: int) -> int:
    """The packed sign vector -x on n elements: its + and - halves swapped."""
    return bits >> n | (bits & ((1 << n) - 1)) << n


def _is_face(y: int, x: int, n: int) -> bool:
    """True iff x(e) = y(e) wherever y(e) != 0, for packed x, y on n elements."""
    s = support(y, n)
    return x & (s | s << n) == y


def perm_parity(seq: Sequence[int]) -> int:
    """+1 or -1: the parity of the inversions of seq."""
    inv = sum(1 for i in range(len(seq)) for j in range(i + 1, len(seq))
              if seq[i] > seq[j])
    return -1 if inv % 2 else 1


def chirotope_sign(c: Chirotope, elements: Sequence) -> int:
    """The alternating extension of c to r-tuples of labels: the stored sign
    of their set times the parity of their order, 0 on a repeat."""
    idx = [c.ground.index(e) for e in elements]
    if len(idx) != c.rank:
        raise ValueError(f"chirotope takes {c.rank}-tuples")
    if len(set(idx)) != len(idx):
        return 0
    return c.sign_of(sum(1 << i for i in idx)) * perm_parity(idx)


def cocircuits_from_chirotope(c: Chirotope) -> list[SignVector]:
    """One representative per +/- cocircuit pair, the one whose first
    nonzero sign is +, sorted by SignVector.key.

    For each (r-1)-subset s the candidate is Y(j) = chi(s, j); a dependent
    s gives the zero vector and is skipped.
    """
    ground = c.ground
    n = len(ground)
    found = set()
    for s in combinations(range(n), c.rank - 1):
        selem = [ground[i] for i in s]
        bits = SignVector.from_signs(
            ground, [0 if j in s else chirotope_sign(c, selem + [ground[j]])
                     for j in range(n)]).bits
        if bits:
            sup = support(bits, n)
            first_minus = not bits & sup & -sup  # its first nonzero is -
            found.add(negate(bits, n) if first_minus else bits)
    return sorted((SignVector(ground, b) for b in found), key=SignVector.key)


def infinite_bits(om: AffineOrientedMatroid) -> list[int]:
    """Both signs of every cocircuit at infinity, as packed sign vectors."""
    n = len(om.ground)
    return [b for y in cocircuits_from_chirotope(om.central)
            for b in (y.bits, negate(y.bits, n))]


def _composition_closure(gen: Sequence[int], n: int) -> set[int]:
    """Every composition of one or more generators, packed sign vectors on
    n elements."""
    states = set(gen)
    frontier = list(gen)
    while frontier:
        nxt = []
        for x in frontier:
            s = support(x, n)
            x_keep = ~(s | s << n)
            for y in gen:
                z = x | (y & x_keep)
                if z not in states:
                    states.add(z)
                    nxt.append(z)
        frontier = nxt
    return states


def conforms(x: SignVector, t: SignVector) -> bool:
    """True iff x(e) in {0, t(e)} for every e (x is a face candidate of t)."""
    if x.ground != t.ground:
        raise ValueError("sign vectors live on different ground sets")
    return _is_face(x.bits, t.bits, len(x.ground))


def bounded_topes_by_closure(om: AffineOrientedMatroid) -> tuple[list, dict]:
    """The bounded topes in canonical order and each one's face mask.

    Closes the feasible cocircuits under composition, keeps the full-support
    covectors to which no infinite cocircuit conforms, and sets bit k of a
    tope's mask when feasible cocircuit k conforms to it.
    """
    n = len(om.ground)
    inf_bits = infinite_bits(om)
    gen = [y.bits for y in om.feasible]
    topes, masks = [], {}
    for x in _composition_closure(gen, n):
        if support(x, n) != (1 << n) - 1:
            continue  # not full support
        if any(_is_face(y, x, n) for y in inf_bits):
            continue  # an infinite cocircuit is a face: unbounded
        topes.append(SignVector(om.ground, x))
        masks[x] = sum(1 << k for k, y in enumerate(gen) if _is_face(y, x, n))
    return sorted(topes, key=SignVector.key), masks


def compose(x: SignVector, y: SignVector) -> SignVector:
    """(x o y)(e) = x(e) if x(e) != 0 else y(e)."""
    if x.ground != y.ground:
        raise ValueError("sign vectors live on different ground sets")
    s = support(x.bits, len(x.ground))
    return SignVector(x.ground, x.bits | (y.bits & ~(s | s << len(x.ground))))


def cocircuit_pool(om: AffineOrientedMatroid) -> list[SignVector]:
    """All cocircuits of the lift: feasible plus both infinite signs."""
    return list(om.feasible) + [SignVector(om.ground, b) for b in infinite_bits(om)]


def cocircuit_faces(om: AffineOrientedMatroid, t: SignVector) -> list[SignVector]:
    return [y for y in cocircuit_pool(om) if conforms(y, t)]


def affine_covectors(om: AffineOrientedMatroid) -> list[SignVector]:
    """All faces of the affine part, as sign vectors on the ground set.

    Computed as the composition closure of every cocircuit of the lift,
    keeping the covectors whose lift sign is +; the lift sign is tracked
    explicitly, so central covectors (lift sign 0) are not conflated with
    affine ones that restrict to the same signs.
    """
    n = len(om.ground)
    full, g_plus = (1 << n) - 1, 1 << n  # g is element n of the lift

    def lift(bits: int) -> int:  # re-pack onto n + 1 elements, g with sign 0
        return bits & full | (bits >> n) << n + 1

    gen = [lift(y.bits) | g_plus for y in om.feasible] + list(map(lift, infinite_bits(om)))
    return sorted((SignVector(om.ground, b & full | (b >> n + 1) << n)
                   for b in _composition_closure(gen, n + 1) if b & g_plus),
                  key=SignVector.key)


def meet_f_vector_by_rank(om: AffineOrientedMatroid, a: SignVector,
                          b: SignVector) -> Optional[tuple[int, ...]]:
    """The f-vector of the meet of a and b, each face of dimension r minus
    the matroid rank of its zero set."""
    common = [y.bits for y in om.cocircuits_in(om.face_mask(a) & om.face_mask(b))]
    if not common:
        return None
    m, r = om.matroid(), om.central.rank

    def dim(bits: int) -> int:
        return r - m.rank(SignVector(om.ground, bits).zero_set())

    top = 0
    for y in common:
        top |= y
    counts = [0] * (dim(top) + 1)
    for x in _composition_closure(common, len(om.ground)):
        counts[dim(x)] += 1
    return tuple(counts)


def forms_by_all_pairs(om: AffineOrientedMatroid):
    """S and S_q with every pair of bounded topes met, the second route to
    build_S and build_Sq.

    S(a, b) is (-1)^d times the common cocircuit faces of a and b, S_q(a, b)
    is (-q)^d h(q^2) with the meet's f-vector from meet_f_vector_by_rank,
    and both are ZERO where no vertex is shared.
    """
    topes = om.bounded_topes()
    n = len(topes)
    s = [[ZERO] * n for _ in range(n)]
    sq = [[ZERO] * n for _ in range(n)]
    for i, a in enumerate(topes):
        for j, b in enumerate(topes):
            f = meet_f_vector_by_rank(om, a, b)
            if f is None:
                continue
            d = support(a.bits ^ b.bits, len(om.ground)).bit_count()
            f0 = len([y for y in om.feasible if conforms(y, a) and conforms(y, b)])
            s[i][j] = const((-1) ** d * f0)
            sq[i][j] = h_poly(f).scaled((-1) ** d).shifted(d)
    return tuple(IntersectionForm(tuple(topes), tuple(map(tuple, grid)))
                 for grid in (s, sq))


def verify_built(om: AffineOrientedMatroid):
    """forms.verify on the S and S_q built from om."""
    return verify(om, (build_S(om), build_Sq(om)))


def det_by_expansion(rows: Sequence[Sequence[IntPoly]]) -> IntPoly:
    """Signed permutation-sum determinant; independent oracle for small n."""
    n = len(rows)
    total = ZERO
    for perm in permutations(range(n)):
        term = ONE
        for i in range(n):
            term = term * rows[i][perm[i]]
        total = total + (term if perm_parity(perm) == 1 else -term)
    return total


@pytest.fixture(scope="session")
def vamos_om() -> AffineOrientedMatroid:
    return AffineOrientedMatroid.from_json(load_fixture("vamos.json"))


@pytest.fixture(scope="session")
def example_c_om():
    return example13_C().compile()


@pytest.fixture(scope="session")
def example_cprime_om():
    return example13_Cprime().compile()


def load_fixture(name: str) -> dict:
    return json.loads((FIXTURE_DIR / name).read_text())
