import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from chamberforms import cli, flagspace
from chamberforms.flagspace import (_peel, _peeled_det, boundary, build_y_matrix,
                                    check_basis_of_kernel, expansion_matches_y,
                                    pairing, phi, smith_divisors)
from chamberforms.forms import build_S
from chamberforms.oriented_matroid import separation
from chamberforms.polyring import int_det, poly_eval
from conftest import (FIXTURE_DIR, FIXTURE_NAMES, cocircuit_faces, conforms,
                      cyclic_r3, line_points, load_arrangement, load_fixture,
                      mask, random_arrangement, uniform_arrangement)


def phis(om):
    """phi of every bounded tope, in canonical order."""
    return [phi(om, t) for t in om.bounded_topes()]


class TestPhi:
    def test_triangle_support_size(self):
        om = load_arrangement("example13-C.json").compile()
        for t in om.bounded_topes():
            assert len(phi(om, t)) == 3

    def test_rank_one_two_monomials(self):
        om = line_points(1).compile()  # two points, one segment
        (t,) = om.bounded_topes()
        v = phi(om, t)
        assert sorted(abs(c) for c in v.values()) == [1, 1]

    def test_self_pairing_is_vertex_count(self):
        om = load_arrangement("example13-Cprime.json").compile()
        for t in om.bounded_topes():
            v = phi(om, t)
            assert pairing(v, v) == len(cocircuit_faces(om, t))


class TestPairing:
    def test_example13(self):
        om = load_arrangement("example13-C.json").compile()
        a, b = om.bounded_topes()
        assert pairing(phi(om, a), phi(om, b)) == 1

    def test_translated_off_diagonal(self):
        om = load_arrangement("example13-Cprime.json").compile()
        a, b = om.bounded_topes()
        assert pairing(phi(om, a), phi(om, b)) == -2

    def test_positive_definite_on_nonzero(self):
        v = {frozenset({"a"}): 3, frozenset({"b"}): -2}
        assert pairing(v, v) == 13
        assert pairing({}, {}) == 0

    def test_gram_matrix_equals_S(self):
        rng = random.Random(21)
        for _ in range(4):
            arr = random_arrangement(rng, rng.choice([1, 2, 3]), rng.randint(2, 6))
            if arr is None:
                continue
            om = arr.compile()
            s = build_S(om)
            vecs = phis(om)
            for i in range(s.n):
                for j in range(s.n):
                    assert pairing(vecs[i], vecs[j]) == poly_eval(s.matrix[i][j], 1)


class TestBoundary:
    def test_two_element_monomial(self):
        m = line_points(1).compile().matroid()
        v = {mask(m, {"H1", "H2"}): 1}
        out = boundary(v)
        assert out == {mask(m, {"H2"}): 1, mask(m, {"H1"}): -1}

    def test_zero_vector(self):
        assert boundary({}) == {}

    def test_phi_in_kernel_on_fixtures(self, vamos_om):
        for om in (load_arrangement("example13-C.json").compile(),
                   line_points(3).compile(), vamos_om):
            for t in om.bounded_topes():
                assert boundary(phi(om, t)) == {}


class TestSmith:
    def test_diagonal(self):
        assert smith_divisors([[2, 0], [0, 3]]) == [1, 6]

    def test_known_matrix(self):
        assert smith_divisors([[2, 4, 4], [-6, 6, 12], [10, 4, 16]]) == [2, 2, 156]

    def test_rank_deficient(self):
        assert smith_divisors([[1, 2], [2, 4]]) == [1]

    def test_zero_matrix(self):
        assert smith_divisors([[0, 0], [0, 0]]) == []

    def test_divisibility_chain_random(self):
        rng = random.Random(3)
        for _ in range(20):
            rows = [[rng.randint(-9, 9) for _ in range(4)] for _ in range(3)]
            ds = smith_divisors(rows)
            for a, b in zip(ds, ds[1:]):
                assert b % a == 0

    def test_unimodular_row_ops_preserve_divisors(self):
        rng = random.Random(6)
        rows = [[rng.randint(-5, 5) for _ in range(4)] for _ in range(4)]
        ds = smith_divisors([r[:] for r in rows])
        rows[1] = [a + 3 * b for a, b in zip(rows[1], rows[2])]
        assert smith_divisors(rows) == ds


def kernel_basis_holds(rep, n: int) -> bool:
    """The three kernel-basis clauses on n phi vectors, as the invariants
    command decides them."""
    return (all(rep.kernel_flags) and len(rep.phi_divisors) == rep.mu_plus_dual == n
            and all(d == 1 for d in rep.phi_divisors)
            and rep.boundary_kernel_dim == n)


class TestKernelReport:
    def test_example13(self):
        om = load_arrangement("example13-C.json").compile()
        rep = check_basis_of_kernel(om, phis(om))
        assert kernel_basis_holds(rep, 2)

    def test_line(self):
        n = 5
        om = line_points(n).compile()
        rep = check_basis_of_kernel(om, phis(om))
        assert kernel_basis_holds(rep, n)

    def test_vamos(self, vamos_om):
        rep = check_basis_of_kernel(vamos_om, phis(vamos_om))
        assert kernel_basis_holds(rep, 30)

    def test_measures_a_wrong_vector(self):
        om = load_arrangement("example13-C.json").compile()
        a, b = phis(om)
        rep = check_basis_of_kernel(om, [a, a])
        assert rep.kernel_flags == (True, True) and len(rep.phi_divisors) == 1
        assert rep.mu_plus_dual == rep.boundary_kernel_dim == 2
        (basis, coeff), *_ = b.items()
        rep = check_basis_of_kernel(om, [a, {basis: coeff}])
        assert rep.kernel_flags == (True, False)

    @pytest.mark.parametrize("change", ["dropped", "duplicated"])
    def test_wrong_count_takes_the_exact_kernel_dimension(self, change, monkeypatch):
        """With a phi vector dropped, the boundary rows off the phi pivots
        are one more than the boundary rank, so they cannot peel; with one
        duplicated, phi does not peel.  Either way the Smith form of the
        boundary matrix gives the kernel dimension."""
        om = uniform_arrangement(random.Random(2), 3, 7).compile()
        vectors = phis(om)
        n, n_bases = len(vectors), len(om.central.bases())
        vectors = vectors[1:] if change == "dropped" else vectors + vectors[:1]
        sizes = []
        monkeypatch.setattr(flagspace, "smith_divisors",
                            lambda rows: sizes.append(len(rows)) or smith_divisors(rows))
        rep = check_basis_of_kernel(om, vectors)
        assert all(rep.kernel_flags)
        assert rep.boundary_kernel_dim == n != len(vectors)
        assert sizes == ([n_bases] if change == "dropped" else [n + 1, n_bases])


class TestYMatrix:
    def test_one_dimensional_two_bases(self):
        arr = line_points(1)  # two hyperplanes in R^1
        rep = build_y_matrix(arr, seed=1)
        assert len(rep.bases) == 2
        assert rep.det_y in (1, -1)

    def test_example13_five_bases(self):
        rep = build_y_matrix(load_arrangement("example13-C.json"), seed=5)
        assert len(rep.bases) == 5
        assert rep.det_y in (1, -1)

    def test_expansion_identity(self):
        for arr, seed in ((load_arrangement("example13-C.json"), 3), (line_points(4), 9)):
            om = arr.compile()
            rep = build_y_matrix(arr, seed)
            assert expansion_matches_y(om, rep, phis(om)) == []

    def test_deterministic_for_seed(self):
        a = build_y_matrix(load_arrangement("example13-C.json"), seed=42)
        b = build_y_matrix(load_arrangement("example13-C.json"), seed=42)
        assert a.xi == b.xi and a.y == b.y

    @pytest.mark.parametrize("name", [name for name in FIXTURE_NAMES
                                      if "hyperplanes" in load_fixture(name)]
                             + ["uniform-r3-n8"])
    def test_rows_match_conformity(self, name):
        """y(t, b) is nonzero exactly where cocircuit b conforms to region t."""
        arr = (cyclic_r3(8) if name == "uniform-r3-n8"
               else load_arrangement(name))
        om = arr.compile()
        rep = build_y_matrix(arr, seed=1)
        assert rep.y == tuple(
            tuple((-1) ** separation(t, rep.region_of_basis[b])
                  if conforms(om.basis_to_cocircuit(b), t) else 0
                  for b in rep.bases)
            for t in rep.regions)

    def test_random_arrangements(self):
        rng = random.Random(18)
        for _ in range(3):
            arr = random_arrangement(rng, 2, 5)
            if arr is None:
                continue
            rep = build_y_matrix(arr, seed=7)
            assert rep.det_y in (1, -1)
            om = arr.compile()
            assert expansion_matches_y(om, rep, phis(om)) == []


# Entries drawn mostly from 0 and +-1, so that peeling often succeeds.
entries = st.sampled_from([0, 0, 0, 1, -1, 1, -1, 2, -2, 3])


@st.composite
def small_matrices(draw):
    n_rows = draw(st.integers(1, 5))
    n_cols = draw(st.integers(n_rows, 6))
    return draw(st.lists(st.lists(entries, min_size=n_cols, max_size=n_cols),
                         min_size=n_rows, max_size=n_rows))


@st.composite
def scrambled_triangular(draw):
    """P T Q with T upper triangular, +-1 on its diagonal, P and Q permutations."""
    n = draw(st.integers(1, 6))
    t = [[draw(st.sampled_from([1, -1])) if j == i else
          draw(entries) if j > i else 0 for j in range(n)] for i in range(n)]
    rows = draw(st.permutations(range(n)))
    cols = draw(st.permutations(range(n)))
    return [[t[i][j] for j in cols] for i in rows]


class TestPeel:
    @given(small_matrices())
    @settings(deadline=None, max_examples=200)
    def test_peeled_matrix_is_unimodular(self, rows):
        peeled = _peel(rows)
        if peeled is None:
            return
        assert sorted(i for i, _, _ in peeled) == list(range(len(rows)))
        assert smith_divisors(rows) == [1] * len(rows)
        if len(rows) == len(rows[0]):
            assert _peeled_det(peeled) == int_det(rows) in (1, -1)

    @given(scrambled_triangular())
    @settings(deadline=None, max_examples=200)
    def test_scrambled_triangular_peels_to_its_det(self, rows):
        peeled = _peel(rows)
        assert peeled is not None
        assert _peeled_det(peeled) == int_det(rows)

    def test_mapping_rows(self):
        rows = [{"a": 1, "b": 5}, {"b": -1}]
        assert sorted(_peel(rows)) == [(0, "a", 1), (1, "b", -1)]

    def test_no_unit_singleton_column_fails(self):
        assert _peel([[1, 1], [0, 2]]) is None
        assert _peel([[1, 1], [1, 2]]) is None

    def test_fallback_when_peeling_fails(self, monkeypatch):
        """[[1, 1], [1, 2]] is unimodular but has no unit singleton column;
        check_basis_of_kernel then reads its divisors from smith_divisors."""
        om = load_arrangement("example13-C.json").compile()
        b0, b1 = om.central.bases()[:2]
        calls = []
        monkeypatch.setattr(flagspace, "smith_divisors",
                            lambda rows: calls.append(len(rows)) or smith_divisors(rows))
        rep = check_basis_of_kernel(om, [{b0: 1, b1: 1}, {b0: 1, b1: 2}])
        assert rep.phi_divisors == (1, 1)
        assert rep.kernel_flags == (False, False)
        assert calls[0] == 2  # the phi matrix, then the boundary matrix
        assert rep.boundary_kernel_dim == 2


# Seeded inputs beyond the fixtures: uniform ones, shaped like the bench's,
# and small ones with parallel and dependent normals.
SEEDED = {**{f"uniform-r{r}-n{n}": (uniform_arrangement, r, n)
             for r, n in ((1, 6), (2, 9), (3, 8), (4, 8))},
          **{f"small-r{r}-n{n}": (random_arrangement, r, n)
             for r, n in ((2, 6), (3, 6), (3, 7), (4, 7))}}


@pytest.mark.parametrize("name", FIXTURE_NAMES + sorted(SEEDED))
def test_invariants_certifies_without_elimination(name, monkeypatch, tmp_path):
    """On every fixture and seeded input the certificates hold: no Smith
    form, no Bareiss."""
    path = FIXTURE_DIR / name
    if name in SEEDED:
        draw, r, n = SEEDED[name]
        path = tmp_path / "input.json"
        path.write_text(json.dumps(draw(random.Random(name), r, n).to_json()))

    def forbidden(rows):
        raise AssertionError("exact fallback called")
    monkeypatch.setattr(flagspace, "smith_divisors", forbidden)
    monkeypatch.setattr(flagspace, "int_det", forbidden)
    assert cli.main(["invariants", "--input", str(path),
                     "--out", str(tmp_path / "report.json")]) == 0
