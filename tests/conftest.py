import json
import random
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest

from chamberforms.arrangement import Arrangement
# the fixture builders, re-exported to the test modules
from chamberforms.make_fixtures import example13_C, example13_Cprime, line_points
from chamberforms.matroid import Matroid
from chamberforms.oriented_matroid import AffineOrientedMatroid, SignVector

FIXTURE_DIR = Path(__file__).resolve().parent.parent / "fixtures"


def random_arrangement(rng: random.Random, dim: int, n: int, attempts=400):
    from chamberforms.cli import generate_random_arrangement
    return generate_random_arrangement(rng, dim, n, attempts)


def uniform_lines(rng: random.Random, n: int = 8) -> Arrangement:
    """Generic lines in the plane whose normal matroid is uniform."""
    while True:
        arr = random_arrangement(rng, 2, n)
        if arr is not None and len(arr.matroid().bases) == n * (n - 1) // 2:
            return arr


# Fraction linear algebra: the reference for the integer minors that
# Arrangement reads its vertices and edge directions from.

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
    """The intersection point of each basis of the normal matroid, over Q."""
    out = {}
    for b in arr.matroid().bases:
        hyps = [h for h in arr.hyperplanes if h.label in b]
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


def matroid_from_columns(cols) -> Matroid:
    """Column matroid of a rational matrix: independent oracle for tests."""
    cols = [tuple(Fraction(x) for x in c) for c in cols]
    ground = tuple(range(1, len(cols) + 1))
    dim = len(cols[0]) if cols else 0

    def rank_of(subset):
        rows = [list(cols[i - 1]) for i in subset]
        return row_reduce(rows) if rows else 0

    r = rank_of(ground)
    bases = [set(sub) for sub in combinations(ground, r)
             if rank_of(sub) == r]
    return Matroid(ground, bases)


# Brute-force definitions that the basis-activity invariants are tested against.

def circuits(m: Matroid) -> list[frozenset]:
    """Minimal dependent sets; every circuit has at most rank + 1 elements."""
    found: list[frozenset] = []
    for size in range(1, min(m.rank_ + 1, len(m.ground)) + 1):
        for c in combinations(m.ground, size):
            s = frozenset(c)
            if not any(k <= s for k in found) and m.rank(s) < len(s):
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
    return sum(1 for b in rest.bases if not any(bc <= b for bc in broken))


def is_connected(m: Matroid) -> bool:
    """Connected iff the circuits link all elements into one component."""
    components = [{e} for e in m.ground]
    for c in circuits(m):
        touched = [comp for comp in components if comp & c]
        components = [comp for comp in components if not comp & c]
        components.append(set().union(*touched))
    return len(components) <= 1


@pytest.fixture(scope="session")
def vamos_om() -> AffineOrientedMatroid:
    from chamberforms.vamos import affine_vamos
    return affine_vamos()


@pytest.fixture(scope="session")
def example_c_om():
    return example13_C().compile()


@pytest.fixture(scope="session")
def example_cprime_om():
    return example13_Cprime().compile()


def load_fixture(name: str) -> dict:
    return json.loads((FIXTURE_DIR / name).read_text())
