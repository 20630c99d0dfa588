"""Seeded input generation and the reference values the checkers compare to.

Everything here is computed apart from the program: exact ranks and
determinants on Python integers, and the bounded-region count of a generic
arrangement from Zaslavsky's theorem,

    b = |sum over independent sets S of the normals of (-1)^|S||,

which holds because a set of hyperplanes of a generic arrangement meets
exactly when its normals are independent (Zaslavsky, Mem. AMS 154, 1975).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb, gcd
from pathlib import Path
from typing import Optional

# dense and sweep draw their arrangements once, from a fixed seed, and --seed
# moves each into new integer coordinates (change_coordinates).  The oriented
# matroid, and with it every step the program takes, is then the same for
# every seed; arrangements drawn afresh per seed changed the work of a round
# by up to 15 %, which the spread of a set of runs would show as noise.

# check: one uniform arrangement per shape (dim r, n hyperplanes).
DENSE_SHAPES = ((3, 9), (4, 9), (3, 10))

# check: every shape with r in {1, 2, 3} and r <= n <= 8, SWEEP_COPIES times.
SWEEP_SHAPES = tuple((r, n) for r in (1, 2, 3) for n in range(r, 9))
SWEEP_COPIES = 8

# invariants: the Vamos fixture, then ORACLE_COPIES uniform arrangements per
# shape; uniform ones keep the work the same from seed to seed.
ORACLE_SHAPES = ((2, 7), (2, 8), (2, 9), (3, 7), (3, 8))
ORACLE_COPIES = 3
VAMOS_FIXTURE = Path(__file__).resolve().parent.parent / "fixtures" / "vamos.json"

# Bounded topes of the affine Vamos oriented matroid, as published with its
# 65 feasible cocircuits (lift by the cobasis {3, 6, 7, 8}).
VAMOS_TOPES = frozenset((
    "1 2 -3 -4 -5 -6 -7 -8", "1 -2 -3 4 -5 -6 -7 -8", "1 2 -3 4 -5 -6 -7 -8",
    "1 -2 -3 4 5 -6 -7 -8", "1 2 -3 4 5 -6 -7 -8", "1 -2 -3 4 5 6 -7 -8",
    "1 2 -3 -4 -5 -6 -7 8", "1 -2 -3 4 -5 -6 -7 8", "1 2 -3 4 -5 -6 -7 8",
    "-1 -2 -3 -4 5 -6 -7 8", "1 -2 -3 -4 5 -6 -7 8", "1 2 -3 -4 5 -6 -7 8",
    "-1 -2 -3 4 5 -6 -7 8", "1 -2 -3 4 5 -6 -7 8", "1 2 -3 4 5 -6 -7 8",
    "1 -2 -3 -4 -5 6 -7 8", "1 -2 -3 4 -5 6 -7 8", "1 2 -3 4 -5 6 -7 8",
    "-1 -2 -3 -4 5 6 -7 8", "1 -2 -3 -4 5 6 -7 8", "1 2 -3 -4 5 6 -7 8",
    "1 -2 -3 4 5 6 -7 8", "1 -2 -3 -4 5 -6 7 8", "1 -2 -3 4 5 -6 7 8",
    "1 -2 -3 -4 -5 6 7 8", "-1 -2 -3 4 -5 6 7 8", "1 -2 -3 4 -5 6 7 8",
    "1 -2 -3 -4 5 6 7 8", "1 2 -3 -4 5 6 7 8", "1 -2 -3 4 5 6 7 8",
))


def rank(rows: list[list[int]]) -> int:
    """Exact rank of an integer matrix by division-free elimination."""
    m = [list(r) for r in rows]
    if not m:
        return 0
    r = 0
    for c in range(len(m[0])):
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        p = m[r]
        for i in range(r + 1, len(m)):
            if m[i][c]:
                row = [p[c] * x - m[i][c] * y for x, y in zip(m[i], p)]
                g = gcd(*row)
                m[i] = [x // g for x in row] if g > 1 else row
        r += 1
        if r == len(m):
            break
    return r


def det(rows: list[list[int]]) -> int:
    """Exact determinant of a square integer matrix (Bareiss)."""
    m = [list(r) for r in rows]
    n = len(m)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            piv = next((i for i in range(k + 1, n) if m[i][k]), None)
            if piv is None:
                return 0
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1] if n else 1


@dataclass(frozen=True)
class Instance:
    """One generated input file and what its report must say."""

    name: str
    doc: dict
    topes: int                              # Zaslavsky's bounded-region count
    uniform: Optional[tuple[int, int]] = None  # (r, n) when the matroid is U_{r,n}


def arrangement_doc(normals, offsets) -> dict:
    return {"dim": len(normals[0]),
            "hyperplanes": [{"label": f"H{i}", "normal": [str(x) for x in a],
                             "offset": str(c)}
                            for i, (a, c) in enumerate(zip(normals, offsets), 1)]}


def _int_row(normal, offset: Fraction) -> list[int]:
    """The augmented row [a | c] scaled to integers (rank is unchanged)."""
    m = offset.denominator
    return [x * m for x in normal] + [offset.numerator]


def _generic_with(normals, offsets, normal, offset) -> bool:
    """Does adding a hyperplane keep every dependent set without a common point?

    A set of hyperplanes shares a point exactly when its normal rank equals
    its augmented rank; genericity asks that only independent sets do.  It is
    enough to test sets of at most r + 1 hyperplanes (they contain every
    circuit), and with the others already generic, only sets with the new one.
    """
    r = len(normal)
    new_aug = _int_row(normal, offset)
    for k in range(0, r + 1):
        for sub in combinations(range(len(normals)), k):
            aug = [_int_row(normals[i], offsets[i]) for i in sub] + [new_aug]
            lin = [row[:-1] for row in aug]
            rk = rank(lin)
            if rk < len(aug) and rank(aug) == rk:
                return False
    return True


def independent_signed_count(normals) -> int:
    """sum over independent subsets S of the normals of (-1)^|S|."""
    total = 0
    r = len(normals[0])

    def extend(chosen, start):
        nonlocal total
        total += (-1) ** len(chosen)
        if len(chosen) == r:
            return
        for i in range(start, len(normals)):
            rows = [normals[j] for j in chosen] + [normals[i]]
            if rank(rows) == len(rows):
                extend(chosen + [i], i + 1)

    extend([], 0)
    return total


def zaslavsky_bounded(normals) -> int:
    return abs(independent_signed_count(normals))


def uniform_arrangement(rng: random.Random, r: int, n: int) -> tuple[list, list]:
    """Integer normals with every r-minor nonzero and integer offsets such
    that no r + 1 hyperplanes share a point."""
    normals: list[list[int]] = []
    offsets: list[Fraction] = []
    while len(normals) < n:
        a = [rng.randint(-9, 9) for _ in range(r)]
        # Independent of every k others, with k = r - 1 once there are that
        # many: a dependent set taken early would block every later normal.
        k = min(len(normals), r - 1)
        if any(rank([normals[i] for i in sub] + [a]) <= k
               for sub in combinations(range(len(normals)), k)):
            continue
        c = Fraction(rng.randint(-99, 99))
        if any(det([_int_row(normals[i], offsets[i]) for i in sub]
                   + [_int_row(a, c)]) == 0
               for sub in combinations(range(len(normals)), r)):
            continue
        normals.append(a)
        offsets.append(c)
    return normals, offsets


def small_generic_arrangement(rng: random.Random, r: int, n: int) -> tuple[list, list]:
    """Normals with entries in [-2, 2], so that parallel and dependent normals
    occur, and rational offsets; redrawn until essential and generic."""
    while True:
        normals: list[list[int]] = []
        offsets: list[Fraction] = []
        for _ in range(50 * n):
            if len(normals) == n:
                break
            a = [rng.randint(-2, 2) for _ in range(r)]
            if not any(a):
                continue
            c = Fraction(rng.randint(-24, 24), rng.randint(1, 6))
            if _generic_with(normals, offsets, a, c):
                normals.append(a)
                offsets.append(c)
        if len(normals) == n and rank(normals) == r:
            return normals, offsets


def make_instance(name, normals, offsets, uniform=None) -> Instance:
    return Instance(name, arrangement_doc(normals, offsets),
                    zaslavsky_bounded(normals), uniform)


def unimodular(rng: random.Random, r: int) -> list[list[int]]:
    """A random r x r integer matrix of determinant +-1: a signed
    permutation followed by r shears with multiplier +-1."""
    u = [[0] * r for _ in range(r)]
    for i, j in enumerate(rng.sample(range(r), r)):
        u[i][j] = rng.choice((-1, 1))
    for _ in range(r if r > 1 else 0):
        i, j = rng.sample(range(r), 2)
        s = rng.choice((-1, 1))
        u[i] = [x + s * y for x, y in zip(u[i], u[j])]
    return u


def change_coordinates(rng: random.Random, normals, offsets) -> tuple[list, list]:
    """The same arrangement in the coordinates y with x = U y + b.

    U is unimodular and b integral, so a.x - c = (a U).y - (c - a.b): every
    point keeps its sign vector, and the oriented matroid is unchanged.
    """
    r = len(normals[0])
    u = unimodular(rng, r)
    b = [rng.randint(-3, 3) for _ in range(r)]
    new_normals = [[sum(a[i] * u[i][j] for i in range(r)) for j in range(r)]
                   for a in normals]
    new_offsets = [c - sum(x * y for x, y in zip(a, b))
                   for a, c in zip(normals, offsets)]
    return new_normals, new_offsets


def dense(seed: int) -> list[Instance]:
    master = random.Random("dense")
    rng = random.Random(f"dense:{seed}")
    out = []
    for r, n in DENSE_SHAPES:
        normals, offsets = change_coordinates(
            rng, *uniform_arrangement(master, r, n))
        out.append(make_instance(f"dense-r{r}-n{n}", normals, offsets,
                                 uniform=(r, n)))
    return out


def sweep(seed: int) -> list[Instance]:
    master = random.Random("sweep")
    rng = random.Random(f"sweep:{seed}")
    out = []
    for copy in range(SWEEP_COPIES):
        for r, n in SWEEP_SHAPES:
            normals, offsets = change_coordinates(
                rng, *small_generic_arrangement(master, r, n))
            out.append(make_instance(f"sweep-{copy}-r{r}-n{n}", normals, offsets))
    return out


def vamos_instance() -> Instance:
    doc = json.loads(VAMOS_FIXTURE.read_text())
    return Instance("vamos", doc, vamos_bounded(doc))


def vamos_bounded(doc: dict) -> int:
    """Zaslavsky's count on the central matroid read off the chirotope text.

    The text lists one sign per r-subset in lexicographic order; the bases are
    the subsets with a nonzero sign, the independent sets their subsets.
    """
    r = int(doc["rank"])
    n = len(doc["elements"])
    bases = [frozenset(s) for s, ch in zip(combinations(range(n), r),
                                          doc["chirotope"]) if ch != "0"]
    total = 0
    for k in range(r + 1):
        for sub in combinations(range(n), k):
            if any(set(sub) <= b for b in bases):
                total += (-1) ** k
    return abs(total)


def oracle(seed: int) -> list[Instance]:
    rng = random.Random(f"oracle:{seed}")
    out = [vamos_instance()]
    for copy in range(ORACLE_COPIES):
        for r, n in ORACLE_SHAPES:
            normals, offsets = uniform_arrangement(rng, r, n)
            out.append(make_instance(f"oracle-{copy}-r{r}-n{n}", normals, offsets))
    return out


def uniform_det_S(r: int, n: int) -> int:
    """det S of a generic arrangement with uniform matroid U_{r,n}.

    The only coloop-free proper flat of U_{r,n} is the empty one, with base n
    and exponent beta(U_{r,n}) = C(n-2, r-1).
    """
    return n ** comb(n - 2, r - 1)


def expected_uniform_topes(r: int, n: int) -> int:
    return comb(n - 1, r)


def write_inputs(instances: list[Instance], workdir: Path) -> list[Path]:
    paths = []
    for inst in instances:
        path = workdir / f"{inst.name}.json"
        path.write_text(json.dumps(inst.doc, indent=2) + "\n")
        paths.append(path)
    return paths

