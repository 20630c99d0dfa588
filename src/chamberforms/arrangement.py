"""Exact rational hyperplane arrangements and their oriented-matroid compile.

A hyperplane is {x : <normal, x> = offset} with positive side
<normal, x> > offset.  The oriented matroid is that of the lift: one integer
row (normal, -offset) per hyperplane, cleared of denominators.  Every sign
that compile() and the flag-space oracle need is the sign of an integer
minor of these rows: the chirotope, each vertex's cocircuit and each edge
direction.  Fraction is used only to parse, to serialise and in
with_offsets.
"""

from __future__ import annotations

import re
import sys
from decimal import Decimal
from fractions import Fraction
from math import lcm
from typing import NamedTuple, Optional, Sequence

from .matroid import bits, r_subsets
from .oriented_matroid import (AffineOrientedMatroid, Chirotope, SignVector,
                               check_star_cap, name_from_json)


class Hyperplane(NamedTuple):
    label: str
    normal: tuple[Fraction, ...]
    offset: Fraction

    @classmethod
    def make(cls, label, normal, offset) -> "Hyperplane":
        normal = tuple(_coordinate(label, x) for x in normal)
        if not any(normal):
            raise ValueError(f"hyperplane {label!r} has zero normal")
        return cls(str(label), normal, _coordinate(label, offset))


def _coordinate(label, x) -> Fraction:
    """x as a Fraction whose numerator and denominator fit the interpreter's
    int-string limit.

    A Decimal, as cli.load_instance reads a JSON number with a fraction or
    an exponent, is read through its string, so that a JSON number and the
    same text written as a string give the same value and the same checks.
    Fraction expands a string's exponent e as 10**e in full, which that limit
    does not bound, so a string with one is checked before Fraction builds
    it: |e| beyond the limit plus the mantissa's length puts the value above
    10**limit or below 10**-limit.  Nor does the limit bound a decimal's
    digits, which Fraction reads in two parts, so a string longer than the
    limit is checked too; a shorter one without an exponent fits it.  A run
    of more than limit digits, even of leading zeros, is one that Fraction
    could not read, and is rejected like a value too large.
    """
    limit = sys.get_int_max_str_digits()
    if isinstance(x, Decimal):
        x = str(x)
    if not (limit and isinstance(x, str)
            and ("e" in x or "E" in x or len(x) > limit)):
        return Fraction(x)
    mantissa, _, exp = x.lower().partition("e")
    try:
        e = int(exp)
    except ValueError:
        e = 0  # not an exponent: Fraction names the literal it rejects
    if (abs(e) <= limit + len(mantissa)
            and not re.search(fr"\d{{{limit + 1}}}", x)):
        v = Fraction(x)
        if max(abs(v.numerator), v.denominator) < 10 ** limit:
            return v
    raise ValueError(f"hyperplane {label!r} has a coordinate that needs more "
                     f"than {limit} digits")


class GenericityViolation(NamedTuple):
    """A circuit of hyperplanes with a common point, plus its rank: the
    coefficient and augmented ranks, both the circuit size minus one."""

    circuit: tuple[str, ...]
    rank: int

    def describe(self) -> str:
        return (f"hyperplanes {list(self.circuit)} are dependent but share a "
                f"point (coefficient rank {self.rank}, augmented rank {self.rank})")


def _cofactors(rows: Sequence[Sequence[int]], width: int) -> tuple[int, ...]:
    """Signed maximal minors of a (width - 1) x width integer matrix.

    Entry j is (-1)^j det(rows without column j).  The vector is orthogonal
    to every row, and it is zero exactly when the rows are dependent.  All
    entries come from one pass: the minors of the leading t rows, keyed by
    their column set, each expand along row t into the minors of the
    leading t + 1 rows, so every sub-minor is computed once.
    """
    minors = {0: 1}  # column bitmask -> minor of the leading rows on it
    cols = range(width - 1, -1, -1)
    for row in rows:
        grown: dict[int, int] = {}
        for mask, m in minors.items():
            for c in cols:  # m takes the sign (-1)^(mask's columns above c)
                bit = 1 << c
                if mask & bit:
                    m = -m
                elif row[c]:
                    grown[mask | bit] = grown.get(mask | bit, 0) + row[c] * m
        minors = grown
    full = (1 << width) - 1
    return tuple((-1) ** j * minors.get(full ^ 1 << j, 0) for j in range(width))


class Arrangement:
    """Essential affine arrangement; genericity is a separate validation."""

    def __init__(self, dim: int, hyperplanes: Sequence[Hyperplane]):
        self.dim = int(dim)
        self.hyperplanes = tuple(hyperplanes)
        labels = [h.label for h in self.hyperplanes]
        if len(set(labels)) != len(labels):
            raise ValueError("hyperplane labels must be distinct")
        if any(len(h.normal) != self.dim for h in self.hyperplanes):
            raise ValueError("normal length must equal the dimension")
        self.ground = tuple(labels)
        # the lift's row (a_i, -c_i) per hyperplane, cleared of denominators;
        # a positive scaling keeps every sign
        self.rows = []
        for h in self.hyperplanes:
            m = lcm(h.offset.denominator, *(x.denominator for x in h.normal))
            self.rows.append(tuple(int(x * m) for x in h.normal + (-h.offset,)))
        self._scan: Optional[tuple] = None
        self._compiled: Optional[AffineOrientedMatroid] = None

    # -- construction and serialization ---------------------------------------

    @classmethod
    def from_json(cls, doc: dict) -> "Arrangement":
        try:
            dim = doc["dim"]
            if type(dim) is not int or dim < 1:  # JSON true would read as 1
                raise TypeError(f"dim must be an integer >= 1, got {dim!r}")
            entries = doc["hyperplanes"]
            if not isinstance(entries, list):
                raise TypeError("hyperplanes must be an array")
            hyps = []
            for h in entries:
                label = name_from_json(h["label"], "label")
                normal, offset = h["normal"], h["offset"]
                if not isinstance(normal, list):  # a string would read per character
                    raise TypeError(f"normal of {label!r} must be an array")
                if type(offset) is bool or any(type(x) is bool for x in normal):
                    raise TypeError(f"hyperplane {label!r} has a boolean coordinate")
                hyps.append(Hyperplane.make(label, normal, offset))
        except KeyError as exc:
            raise ValueError(f"malformed arrangement JSON: missing {exc}") from None
        except ZeroDivisionError as exc:
            raise ValueError(f"malformed arrangement JSON: zero denominator in {exc}") from None
        except (TypeError, ValueError, OverflowError) as exc:  # Infinity reads as inf
            raise ValueError(f"malformed arrangement JSON: {exc}") from None
        return cls(dim, hyps)

    def to_json(self) -> dict:
        return {
            "dim": self.dim,
            "hyperplanes": [
                {"label": h.label,
                 "normal": [str(x) for x in h.normal],
                 "offset": str(h.offset)}
                for h in self.hyperplanes],
        }

    def with_offsets(self, offsets: Sequence[Fraction]) -> "Arrangement":
        hyps = [Hyperplane(h.label, h.normal, Fraction(c))
                for h, c in zip(self.hyperplanes, offsets)]
        return Arrangement(self.dim, hyps)

    # -- validation ------------------------------------------------------------

    def validate_generic(self) -> Optional[GenericityViolation]:
        """None when generic; otherwise a violating circuit.

        A violation is a circuit of the normal matroid whose affine system is
        feasible (dependent hyperplanes with a common point).  One exists
        exactly when some basis vertex lies on a hyperplane outside its
        basis: if circuit C has a common point, the vertex of a basis
        containing C - {c} lies on c as well.  The witness is the
        fundamental circuit of that extra hyperplane in the basis, whose
        coefficient and augmented ranks are both its size minus one.
        The check runs once per arrangement; compile() reuses it.
        """
        return self._vertex_scan()[1]

    def _vertex_scan(self) -> tuple[Chirotope, Optional[GenericityViolation],
                                    list[SignVector]]:
        """The chirotope, the first violation (or None) and the vertex sign
        vectors in basis order, from one cofactor vector per r-subset.

        The cofactor vector w of the lifted rows R_b has w_r = (-1)^r det A_b,
        so chi(b) = (-1)^r sign w_r.  For a basis b, the vertex x gives (x, 1),
        which spans the kernel of R_b, as does w.  Since R_e . w = (-1)^r
        det[R_b; R_e], the sign at e is chi(b) sign det[R_b; R_e], an integer
        minor that is zero for e in b.
        """
        if self._scan is None:
            r = self.dim
            check_star_cap(1, r)  # an essential arrangement has a vertex
            subsets = r_subsets(len(self.rows), r)
            cofactors = [_cofactors([self.rows[i] for i in bits(b)], r + 1)
                         for b in subsets]
            chi_signs = [(-1) ** r * ((w[-1] > 0) - (w[-1] < 0)) for w in cofactors]
            if not any(chi_signs):
                raise ValueError("arrangement is not essential: normals do not span")
            chi = Chirotope(r, self.ground, chi_signs)
            m = chi.to_matroid()
            violation = None
            feasible = []
            for b, w in zip(subsets, cofactors):
                if not w[-1]:
                    continue  # dependent normals: not a basis
                if w[-1] < 0:
                    w = tuple(-x for x in w)  # a positive multiple of (x, 1)
                signs = []
                for row in self.rows:
                    v = sum(a * x for a, x in zip(row, w))
                    signs.append((v > 0) - (v < 0))
                sv = SignVector.from_signs(self.ground, signs)
                feasible.append(sv)
                extra = sv.zero_set() & ~b
                if extra and violation is None:
                    e = next(bits(extra))
                    circuit = 1 << e | sum(1 << x for x in bits(b)
                                           if b ^ 1 << x | 1 << e in m.bases)
                    violation = GenericityViolation(
                        tuple(m.elements(circuit)), circuit.bit_count() - 1)
            self._scan = (chi, violation, feasible)
        return self._scan

    # -- compilation -------------------------------------------------------------

    def compile(self) -> AffineOrientedMatroid:
        """The affine oriented matroid, built once per arrangement."""
        if self._compiled is None:
            chi, violation, feasible = self._vertex_scan()
            if violation is not None:
                raise ValueError(f"arrangement is not generic: {violation.describe()}")
            g = "g"  # the lift's label is internal: any outside the ground set
            while g in self.ground:
                g += "'"
            self._compiled = AffineOrientedMatroid(chi, feasible, g)
        return self._compiled

    def kernel_direction(self, idxs: Sequence[int]) -> tuple[int, ...]:
        """Cofactor vector of the given r - 1 normals.

        It spans their common kernel, and it is zero when they are dependent.
        """
        return _cofactors([self.rows[i][:self.dim] for i in idxs], self.dim)
