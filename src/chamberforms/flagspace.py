"""Independent oracle: exterior-algebra vectors attached to bounded topes.

Each bounded tope A yields a vector phi(A) supported on the bases of the
central matroid whose feasible cocircuit is a face of A; the Gram matrix of
these vectors under the monomial pairing must reproduce the intersection
matrix S, each phi(A) must lie in the kernel of the simplicial boundary, and
together they must form a Z-basis of that kernel (unit Smith divisors).

For realizable inputs the module also builds the square sign matrix y
indexed by generic-functional-bounded regions and bases.

The unimodularity claims are certified in time linear in the nonzero
entries, by the triangular order the proof uses.  _peel removes, one at a
time, a row that is the only one left with a nonzero entry in some column,
when that entry is +-1.  If every row goes, the peeled columns form a
maximal minor that is triangular with a +-1 diagonal.  On the phi matrix
that minor proves rank n_topes and unit Smith divisors; on the square y it
gives det y as the sign of the row-to-column permutation times the product
of the pivots.  The boundary kernel dimension is pinned from both sides: n
independent phi vectors in the kernel bound it below by n, and the rank of
the boundary matrix modulo a prime, never above its rank over Q, bounds it
above.  Whenever a certificate does not hold, the exact computation runs
instead (smith_divisors, int_det), so no value or verdict depends on which
route was taken.

Sets of ground elements are masks (bit i for ground[i], as in the matroid
module): phi vectors and their boundaries are dicts keyed by the masks of
bases and of (r-1)-subsets, and the y-matrix columns are basis masks.
"""

from __future__ import annotations

import random
from math import prod
from typing import NamedTuple, Optional, Sequence

from .arrangement import Arrangement
from .matroid import bits, r_subsets
from .oriented_matroid import (AffineOrientedMatroid, SignVector, _fillings,
                               _odd_mask, _perm_parity, separation)
from .polyring import _CERT_PRIME, _eliminate_mod, int_det


def _monomial_sign(om: AffineOrientedMatroid, b: int, signs: Sequence[int]) -> int:
    """The chirotope sign of basis b times the product of signs over b."""
    out = om.central.sign_of(b)
    for i in bits(b):
        out *= signs[i]
    return out


def phi(om: AffineOrientedMatroid, tope: SignVector) -> dict[int, int]:
    """Signed sum over bases whose feasible cocircuit conforms to the tope.

    Returns its coordinates in the sorted-monomial basis, keyed by basis
    mask.  The coefficient at basis b is prod_{i in b} tope(i) times the
    chirotope sign of b.
    """
    signs = tope.signs()
    return {b: _monomial_sign(om, b, signs)
            for b in (y.zero_set() for y in om.cocircuits_in(om.face_mask(tope)))}


def pairing(u: dict, v: dict) -> int:
    small, large = (u, v) if len(u) <= len(v) else (v, u)
    return sum(c * large.get(b, 0) for b, c in small.items())


def boundary(v: dict[int, int]) -> dict[int, int]:
    """Simplicial boundary into (r-1)-subset coordinates."""
    out: dict[int, int] = {}
    for b, c in v.items():
        for k, i in enumerate(bits(b)):
            key = b ^ 1 << i
            out[key] = out.get(key, 0) + (c if k % 2 == 0 else -c)
    return {k: c for k, c in out.items() if c}


def smith_divisors(rows: Sequence[Sequence[int]]) -> list[int]:
    """Nonzero elementary divisors of an integer matrix, divisibility chain."""
    m = [list(r) for r in rows]
    n_rows = len(m)
    n_cols = len(m[0]) if m else 0
    divisors = []
    t = 0
    while t < min(n_rows, n_cols):
        pos = min(((i, j) for i in range(t, n_rows) for j in range(t, n_cols)
                   if m[i][j] != 0),
                  key=lambda ij: abs(m[ij[0]][ij[1]]), default=None)
        if pos is None:
            break
        i0, j0 = pos
        m[t], m[i0] = m[i0], m[t]
        for row in m:
            row[t], row[j0] = row[j0], row[t]
        while True:
            # clear the pivot column
            dirty = False
            for i in range(t + 1, n_rows):
                if m[i][t]:
                    q = m[i][t] // m[t][t]
                    m[i] = [a - q * b for a, b in zip(m[i], m[t])]
                    if m[i][t]:
                        m[t], m[i] = m[i], m[t]
                        dirty = True
            # clear the pivot row
            for j in range(t + 1, n_cols):
                if m[t][j]:
                    q = m[t][j] // m[t][t]
                    for row in m:
                        row[j] -= q * row[t]
                    if m[t][j]:
                        for row in m:
                            row[t], row[j] = row[j], row[t]
                        dirty = True
            if dirty:
                continue
            # pivot must divide the rest of the submatrix
            bad = next(((i, j) for i in range(t + 1, n_rows)
                        for j in range(t + 1, n_cols)
                        if m[i][j] % m[t][t] != 0), None)
            if bad is None:
                break
            m[t] = [a + b for a, b in zip(m[t], m[bad[0]])]
        divisors.append(abs(m[t][t]))
        t += 1
    return divisors


def _peel(rows: Sequence) -> Optional[list[tuple[int, object, int]]]:
    """Peel a triangular minor with a +-1 diagonal off an integer matrix.

    Each row is a sequence of entries or a mapping from column to entry.
    Repeatedly remove the one remaining row with a nonzero entry in some
    column, when that entry is +-1.  Removing rows only shrinks column
    supports, so the rows that can go do not depend on the order, and one
    pass over the nonzero entries finds them all.  Returns the (row, column,
    pivot) triples in peel order when every row goes, else None.  The
    peeled columns then index a maximal minor that, in peel order, is upper
    triangular with the pivots on its diagonal.
    """
    entries = [[(j, c) for j, c in (row.items() if isinstance(row, dict)
                                    else enumerate(row)) if c]
               for row in rows]
    support: dict = {}
    for i, row in enumerate(entries):
        for j, _ in row:
            support.setdefault(j, set()).add(i)
    ready = [j for j, s in support.items() if len(s) == 1]
    peeled = []
    while ready:
        j = ready.pop()
        if not support[j]:
            continue  # its one row went through another column
        (i,) = support[j]
        pivot = rows[i][j]
        if pivot not in (1, -1):
            continue  # stays so until its row goes, which empties the column
        peeled.append((i, j, pivot))
        for k, _ in entries[i]:
            s = support[k]
            s.discard(i)
            if len(s) == 1:
                ready.append(k)
    return peeled if len(peeled) == len(rows) else None


def _peeled_det(peeled: list[tuple[int, int, int]]) -> int:
    """det of a square matrix whose rows all peeled: sgn(sigma) times the
    product of the pivots, sigma mapping each row to its peeled column."""
    return prod((p for _, _, p in peeled),
                start=_perm_parity([j for _, j, _ in sorted(peeled)]))


class KernelReport(NamedTuple):
    n_topes: int
    kernel_flags: tuple[bool, ...]
    phi_divisors: tuple[int, ...]
    phi_rank: int
    mu_plus_dual: int
    boundary_kernel_dim: int


def check_basis_of_kernel(om: AffineOrientedMatroid,
                          vectors: Sequence[dict]) -> KernelReport:
    """Measure the kernel-basis clauses on the phi vectors of the bounded topes.

    The clauses hold when every kernel flag is set and the phi rank, mu+ of
    the dual and the boundary kernel dimension all equal len(vectors), with
    every phi divisor 1.  Each flag is the computed boundary of its vector.
    When _peel removes every row of the phi matrix, a maximal minor is +-1,
    so the rank is len(vectors) and every divisor is 1; otherwise
    smith_divisors computes them.  The boundary kernel dimension is
    len(vectors) when those vectors are certified independent and all in the
    kernel, and the rank of the boundary matrix modulo a prime leaves a
    kernel of exactly that dimension; otherwise smith_divisors gives the
    rank of the boundary matrix.
    """
    bases = om.central.bases()
    flags = tuple(not boundary(v) for v in vectors)
    n = len(vectors)
    phi_certified = _peel(vectors) is not None
    if phi_certified:
        divisors = (1,) * n
    else:
        divisors = tuple(smith_divisors([[v.get(b, 0) for b in bases]
                                         for v in vectors]))

    col = {s: j for j, s in enumerate(r_subsets(len(om.ground), om.central.rank - 1))}
    bmatrix = [[0] * len(col) for _ in bases]
    for row, b in zip(bmatrix, bases):
        for face, c in boundary({b: 1}).items():
            row[col[face]] = c
    if (phi_certified and all(flags)
            and len(bases) - _eliminate_mod(bmatrix, _CERT_PRIME)[0] == n):
        kernel_dim = n  # n independent kernel vectors; rank over Q >= rank mod p
    else:
        kernel_dim = len(bases) - len(smith_divisors(bmatrix))

    mu_dual = om.matroid().tutte(0, 1)  # mu+ of the dual matroid
    return KernelReport(n, flags, divisors, len(divisors), mu_dual, kernel_dim)


class YMatrixReport(NamedTuple):
    xi: tuple[int, ...]
    bases: tuple[int, ...]  # masks, in the order of the y columns
    regions: tuple[SignVector, ...]
    y: tuple[tuple[int, ...], ...]
    det_y: int
    region_of_basis: dict


def _region_of_basis(arr: Arrangement, directions: dict, xi: Sequence[int],
                     y: SignVector) -> SignVector:
    """Sign vector of the xi-bounded region whose optimum is y's vertex.

    y is the vertex's feasible cocircuit; directions maps the masks of
    (r-1)-subsets to their edge directions.
    """
    b = y.zero_set()
    signs = list(y.signs())
    for j in bits(b):
        v = directions[b ^ 1 << j]
        pairing_xi = sum(a * x for a, x in zip(xi, v))
        if pairing_xi == 0:
            raise ValueError("functional not generic on an edge direction")
        if pairing_xi > 0:
            v = tuple(-x for x in v)
        # nonzero: a_j . v = +-det A_b, and b is a basis
        s = sum(a * x for a, x in zip(arr.rows[j][:arr.dim], v))
        signs[j] = 1 if s > 0 else -1
    return SignVector.from_signs(arr.ground, signs)


_MAX_DRAWS = 64  # functionals drawn before build_y_matrix gives up


def build_y_matrix(arr: Arrangement, seed: int) -> YMatrixReport:
    """Square sign matrix between functional-bounded regions and bases.

    Draws a generic integer linear functional from the seed (rejecting any
    draw vanishing on an edge direction), builds the optimum bijection from
    bases to bounded regions, and certifies det y = +-1: by peeling y to a
    triangular form with a +-1 diagonal, else by int_det.
    """
    om = arr.compile()
    bases = om.central.bases()

    directions = {}
    for s in r_subsets(len(arr.ground), arr.dim - 1):
        v = arr.kernel_direction(list(bits(s)))
        if any(v):  # a rank-deficient subset spans no line
            directions[s] = v

    rng = random.Random(seed)
    for _ in range(_MAX_DRAWS):
        xi = tuple(rng.randint(-10 ** 4, 10 ** 4) for _ in range(arr.dim))
        if any(xi) and all(sum(a * x for a, x in zip(xi, v)) != 0
                           for v in directions.values()):
            break
    else:
        raise ValueError(
            f"no generic functional found in {_MAX_DRAWS} draws; try another seed")

    cocircuit = {b: om.basis_to_cocircuit(b) for b in bases}
    region_of = {b: _region_of_basis(arr, directions, xi, cocircuit[b])
                 for b in bases}
    regions = sorted(region_of.values(), key=SignVector.key)
    row_of = {t.bits: i for i, t in enumerate(regions)}
    if len(row_of) != len(bases):
        raise ValueError("optimum map is not injective: functional not generic")
    if not {t.bits for t in om.bounded_topes()} <= row_of.keys():
        raise ValueError("a bounded tope is missing from the functional-bounded set")

    # y[t][b] is nonzero exactly when region t is a filling of cocircuit[b]
    odd = _odd_mask(len(arr.ground))
    rows = [[0] * len(bases) for _ in regions]
    for j, b in enumerate(bases):
        for x in _fillings(cocircuit[b].bits, odd):
            i = row_of.get(x)
            if i is not None:
                rows[i][j] = (-1) ** separation(regions[i], region_of[b])
    y_rows = tuple(map(tuple, rows))
    peeled = _peel(y_rows)
    det_y = _peeled_det(peeled) if peeled is not None else int_det(y_rows)
    if det_y not in (1, -1):
        raise ValueError(f"det y = {det_y}, expected +-1")
    return YMatrixReport(xi, tuple(bases), tuple(regions), y_rows, det_y, region_of)


def expansion_matches_y(om: AffineOrientedMatroid, rep: YMatrixReport,
                        vectors: Sequence[dict]) -> list[str]:
    """Check phi(A) rows against y rows on bounded topes, in adapted coordinates.

    vectors holds phi(A) for the bounded topes A in their canonical order.
    In the basis e'_b = (prod_{i in b} region(b)(i)) e_b the coefficient of
    phi(A) at b must be (-1)^d(A, region(b)) exactly when the cocircuit of b
    is a face of A.  Every bounded tope is a region of rep: build_y_matrix
    raises ValueError otherwise, as pos_of would raise KeyError.
    """
    # sign of e'_b against e_b, in the order of rep.bases
    units = [_monomial_sign(om, b, rep.region_of_basis[b].signs()) for b in rep.bases]
    pos_of = {t.bits: i for i, t in enumerate(rep.regions)}
    failures = []
    for t, v in zip(om.bounded_topes(), vectors):
        row = rep.y[pos_of[t.bits]]
        for jb, (b, unit) in enumerate(zip(rep.bases, units)):
            coeff = v.get(b, 0) * unit  # change to the adapted unit basis
            if coeff != row[jb]:
                failures.append(f"phi({t.key()}) coefficient at "
                                f"{tuple(om.matroid().elements(b))} "
                                f"is {coeff}, y row has {row[jb]}")
    return failures
