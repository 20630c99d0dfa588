"""Intersection matrices S and S_q of bounded topes, and the determinant identities.

S(A,B)   = (-1)^d(A,B) * f_0(A meet B)
S_q(A,B) = (-q)^d(A,B) * h(A meet B, q^2)

with h(x) = f(x-1) the h-polynomial of the meet face.  The right-hand sides
are products over coloop-free proper flats K of the central matroid of
|I \\ K| (resp. the q-integer [|I \\ K|]) raised to beta(M/K) * mu+((M|K)*).
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from .matroid import Matroid
from .oriented_matroid import (AffineOrientedMatroid, SignVector,
                               check_form_cap, separation)
from .polyring import (IntPoly, ONE, ZERO, certify_det, const, poly_det,
                       poly_eval, poly_pow, q_integer)


class TheoremViolation(RuntimeError):
    """det S disagreed with the proven product formula: an internal bug."""


_Q2_MINUS_1 = IntPoly((-1, 0, 1))


@lru_cache(maxsize=1024)  # meets of one instance share few f-vectors
def h_poly(f: tuple[int, ...]) -> IntPoly:
    """h-polynomial of a meet face with f-vector f, in q: sum f_i (q^2 - 1)^i.

    Cached per f-vector; an f-vector that breaks the Euler relation raises
    on every call, since exceptions are not cached.
    """
    acc = ZERO
    power = ONE
    for fi in f:
        acc = acc + power.scaled(fi)
        power = power * _Q2_MINUS_1
    if acc[0] != 1:
        raise ValueError(f"meet face with f-vector {f} breaks the Euler "
                         f"relation: the input is not an oriented matroid")
    return acc


class IntersectionForm(NamedTuple):
    topes: tuple[SignVector, ...]
    matrix: tuple[tuple[IntPoly, ...], ...]  # rows and columns in tope order

    @property
    def n(self) -> int:
        return len(self.topes)


class Factor(NamedTuple):
    flat: tuple
    base: int
    exponent: int


class DeterminantVerdict(NamedTuple):
    lhs: IntPoly
    rhs: IntPoly
    factors: tuple[Factor, ...]
    match: bool


def _pair_entries(om: AffineOrientedMatroid, entry_fn):
    topes = om.bounded_topes()
    n = len(topes)
    check_form_cap(n)
    grid = [[ZERO] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            grid[i][j] = grid[j][i] = entry_fn(topes[i], topes[j])
    return IntersectionForm(tuple(topes), tuple(map(tuple, grid)))


def build_S(om: AffineOrientedMatroid) -> IntersectionForm:
    """Integer form: entries (-1)^d * (#common cocircuit faces)."""

    def entry(a: SignVector, b: SignVector) -> IntPoly:
        f0 = (om.face_mask(a) & om.face_mask(b)).bit_count()
        if f0 == 0:
            return ZERO
        return const(f0 if separation(a, b) % 2 == 0 else -f0)

    return _pair_entries(om, entry)


def build_Sq(om: AffineOrientedMatroid) -> IntersectionForm:
    """q-form: entries (-q)^d * h(meet, q^2); zero on empty meets."""

    def entry(a: SignVector, b: SignVector) -> IntPoly:
        f = om.meet_faces(a, b)
        if f is None:
            return ZERO
        d = separation(a, b)
        h = h_poly(f)
        return h.shifted(d) if d % 2 == 0 else (-h).shifted(d)

    return _pair_entries(om, entry)


@lru_cache(maxsize=1)  # rhs_classical and rhs_q read the same matroid's factors
def _rhs_factors(m: Matroid) -> tuple[Factor, ...]:
    # Exponent of the factor at a coloop-free proper flat K:
    # beta(M/K) times mu+ of the dual of the restriction M|K, T_{M|K}(0, 1).
    # (The dual is what the honest dualization of the flag-space determinant
    # produces; restrictions like U_{2,5}, whose dual has a different mu+,
    # confirm it numerically, as does the published rank-4 example on 8
    # elements.)
    factors = []
    for k in m.coloop_free_flats():
        if k.rank == m.rank_:
            continue  # the ground set, the one flat of full rank
        base = len(m.ground) - k.elements.bit_count()
        exponent = (m.contract(k.elements).beta()
                    * m.restrict(k.elements).tutte(0, 1))
        factors.append(Factor(tuple(m.elements(k.elements)), base, exponent))
    return tuple(factors)


def rhs_classical(m: Matroid) -> tuple[int, list[Factor]]:
    factors = list(_rhs_factors(m))
    value = 1
    for f in factors:
        value *= f.base ** f.exponent
    return value, factors


def rhs_q(m: Matroid) -> tuple[IntPoly, list[Factor]]:
    factors = list(_rhs_factors(m))
    value = ONE
    for f in factors:
        value = value * poly_pow(q_integer(f.base), f.exponent)
    return value, factors


def verify(om: AffineOrientedMatroid,
           forms: tuple[IntersectionForm, IntersectionForm],
           ) -> tuple[DeterminantVerdict, DeterminantVerdict]:
    """Evaluate both determinant identities on the forms (S, S_q) of om.

    A mismatch in the integer identity is fatal (the formula is a theorem);
    a mismatch in the q-identity is reported as a finding, never an abort.

    The right-hand side of the q-identity comes first, and certify_det
    puts det S_q = rhs_q to the certificate at a random point without
    reconstructing det S_q.  Only when that does not succeed does
    poly_det reconstruct det S_q, which then supplies the mismatch
    witness.  On the certified route det S_q is rhs_q, so the q = 1 check
    compares rhs_q(1) with det S.
    """
    s, sq = forms
    m = om.matroid()

    det_s = poly_det(s.matrix)
    rhs_s, factors = rhs_classical(m)
    verdict_s = DeterminantVerdict(det_s, const(rhs_s), tuple(factors),
                                   det_s == const(rhs_s))
    if not verdict_s.match:
        raise TheoremViolation(
            f"det S = {det_s} but the product formula gives {rhs_s}; "
            f"factors {factors}")

    rhs_sq, factors_q = rhs_q(m)
    det_sq = certify_det(sq.matrix, rhs_sq)
    if det_sq is None:
        det_sq = poly_det(sq.matrix)
    verdict_sq = DeterminantVerdict(det_sq, rhs_sq, tuple(factors_q),
                                    det_sq == rhs_sq)

    if poly_eval(det_sq, 1) != poly_eval(det_s, 1):
        raise TheoremViolation(
            "q=1 specialization of det S_q disagrees with det S")
    return verdict_s, verdict_sq
