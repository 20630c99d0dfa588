import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from chamberforms.arrangement import Arrangement, _row_reduce
# the fixture builders, re-exported to the test modules
from chamberforms.make_fixtures import example13_C, example13_Cprime, line_points
from chamberforms.matroid import Matroid
from chamberforms.oriented_matroid import AffineOrientedMatroid

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


def matroid_from_columns(cols) -> Matroid:
    """Column matroid of a rational matrix: independent oracle for tests."""
    cols = [tuple(Fraction(x) for x in c) for c in cols]
    ground = tuple(range(1, len(cols) + 1))
    dim = len(cols[0]) if cols else 0

    def rank_of(subset):
        rows = [list(cols[i - 1]) for i in subset]
        return _row_reduce(rows) if rows else 0

    r = rank_of(ground)
    from itertools import combinations
    bases = [set(sub) for sub in combinations(ground, r)
             if rank_of(sub) == r]
    return Matroid(ground, bases)


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
