"""Exact rational hyperplane arrangements and their oriented-matroid compile.

All geometry runs over Fraction; sign decisions are exact.  A hyperplane is
{x : <normal, x> = offset} with positive side <normal, x> > offset.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import combinations
from math import lcm
from typing import NamedTuple, Optional, Sequence

from .matroid import Matroid
from .oriented_matroid import AffineOrientedMatroid, Chirotope, SignVector
from .polyring import int_det


class Hyperplane(NamedTuple):
    label: str
    normal: tuple[Fraction, ...]
    offset: Fraction

    @classmethod
    def make(cls, label, normal, offset) -> "Hyperplane":
        normal = tuple(Fraction(x) for x in normal)
        if not any(normal):
            raise ValueError(f"hyperplane {label!r} has zero normal")
        return cls(str(label), normal, Fraction(offset))


class GenericityViolation(NamedTuple):
    """A circuit of hyperplanes with a common point, plus the two ranks."""

    circuit: tuple[str, ...]
    rank_coefficient: int
    rank_augmented: int

    def describe(self) -> str:
        return (f"hyperplanes {list(self.circuit)} are dependent but share a "
                f"point (coefficient rank {self.rank_coefficient}, augmented "
                f"rank {self.rank_augmented})")


def _row_reduce(rows: list[list[Fraction]]) -> int:
    """In-place row echelon over Q; returns the rank."""
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


def _solve_square(rows: Sequence[Sequence[Fraction]],
                  rhs: Sequence[Fraction]) -> tuple[Fraction, ...]:
    """Unique solution of an invertible square rational system."""
    n = len(rows)
    aug = [list(row) + [b] for row, b in zip(rows, rhs)]
    rank = _row_reduce(aug)
    if rank != n:
        raise ValueError("system is singular")
    return tuple(aug[i][n] for i in range(n))


def _kernel_direction(rows: Sequence[Sequence[Fraction]], dim: int) -> tuple[int, ...]:
    """Primitive integer spanning vector of a corank-one solution space."""
    work = [list(r) for r in rows]
    rank = _row_reduce(work)
    if rank != dim - 1:
        raise ValueError("kernel is not one-dimensional")
    pivots = []
    for row in work[:rank]:
        pivots.append(next(c for c in range(dim) if row[c] != 0))
    free = next(c for c in range(dim) if c not in pivots)
    v = [Fraction(0)] * dim
    v[free] = Fraction(1)
    for row, p in zip(work[:rank], pivots):
        v[p] = -row[free]
    scale = lcm(*(x.denominator for x in v))
    return tuple(int(x * scale) for x in v)


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
        # integer-scaled rows: per-row positive scaling preserves all signs
        self.int_normals = []
        self.scaled_offsets = []
        for h in self.hyperplanes:
            m = lcm(*(x.denominator for x in h.normal))
            self.int_normals.append(tuple(int(x * m) for x in h.normal))
            self.scaled_offsets.append(h.offset * m)
        self._chirotope: Optional[Chirotope] = None
        self._vertices: Optional[dict] = None
        self._scan: Optional[tuple] = None
        self._compiled: Optional[AffineOrientedMatroid] = None

    # -- construction and serialization ---------------------------------------

    @classmethod
    def from_json(cls, doc: dict) -> "Arrangement":
        try:
            dim = doc["dim"]
            hyps = [Hyperplane.make(h["label"], h["normal"], h["offset"])
                    for h in doc["hyperplanes"]]
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed arrangement JSON: missing {exc}") from None
        except ValueError as exc:
            raise ValueError(f"malformed arrangement JSON: {exc}") from None
        return cls(dim, hyps)

    @classmethod
    def load(cls, path) -> "Arrangement":
        with open(path) as fh:
            return cls.from_json(json.load(fh))

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

    # -- oriented-matroid data ---------------------------------------------------

    def central_chirotope(self) -> Chirotope:
        """Sign of det of normal rows, in the fixed standard orientation."""
        if self._chirotope is None:
            n = len(self.hyperplanes)
            signs = {}
            essential = False
            for sub in combinations(range(n), self.dim):
                d = int_det([self.int_normals[i] for i in sub])
                s = (d > 0) - (d < 0)
                signs[sub] = s
                essential = essential or s != 0
            if not essential:
                raise ValueError("arrangement is not essential: normals do not span")
            self._chirotope = Chirotope(self.dim, self.ground, signs)
        return self._chirotope

    def matroid(self) -> Matroid:
        return self.central_chirotope().to_matroid()

    def vertices(self) -> dict[frozenset, tuple[Fraction, ...]]:
        """Exact intersection point for each basis of the normal matroid."""
        if self._vertices is None:
            out = {}
            for b in self.matroid().bases:
                idxs = sorted(self.ground.index(e) for e in b)
                rows = [[Fraction(x) for x in self.int_normals[i]] for i in idxs]
                rhs = [self.scaled_offsets[i] for i in idxs]
                out[b] = _solve_square(rows, rhs)
            self._vertices = out
        return dict(self._vertices)

    def point_signs(self, point: Sequence[Fraction]) -> SignVector:
        # clear denominators: sign(<a, x> - c) = sign(<a, den*x> * c_den - c_num * den)
        den = lcm(*(x.denominator for x in point))
        ints = [x.numerator * (den // x.denominator) for x in point]
        signs = []
        for row, c in zip(self.int_normals, self.scaled_offsets):
            v = (sum(a * x for a, x in zip(row, ints)) * c.denominator
                 - c.numerator * den)
            signs.append((v > 0) - (v < 0))
        return SignVector.from_signs(self.ground, signs)

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
        return self._vertex_scan()[0]

    def _vertex_scan(self) -> tuple[Optional[GenericityViolation], list[SignVector]]:
        """First violation (or None) and the vertex sign vectors, in basis order."""
        if self._scan is None:
            index = self.ground.index
            bases = set(self.matroid().bases)
            violation = None
            feasible = []
            for b, p in sorted(self.vertices().items(),
                               key=lambda kv: sorted(map(index, kv[0]))):
                sv = self.point_signs(p)
                extra = sv.zero_set() - b
                if extra and violation is None:
                    e = min(extra, key=index)
                    circuit = [x for x in b if (b - {x}) | {e} in bases] + [e]
                    violation = GenericityViolation(
                        tuple(sorted(circuit, key=index)),
                        len(circuit) - 1, len(circuit) - 1)
                feasible.append(sv)
            self._scan = (violation, feasible)
        return self._scan

    # -- compilation -------------------------------------------------------------

    def compile(self) -> AffineOrientedMatroid:
        """The affine oriented matroid, built once per arrangement."""
        if self._compiled is None:
            violation, feasible = self._vertex_scan()
            if violation is not None:
                raise ValueError(f"arrangement is not generic: {violation.describe()}")
            self._compiled = AffineOrientedMatroid(self.central_chirotope(), feasible)
        return self._compiled

    def kernel_direction(self, idxs: Sequence[int]) -> tuple[int, ...]:
        """Primitive integer vector spanning the kernel of the given normals."""
        rows = [[Fraction(x) for x in self.int_normals[i]] for i in idxs]
        return _kernel_direction(rows, self.dim)
