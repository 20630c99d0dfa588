import random

import pytest

from chamberforms.flagspace import (FlagVector, boundary, build_y_matrix,
                                    check_basis_of_kernel, expansion_matches_y,
                                    pairing, phi, smith_divisors)
from chamberforms.forms import build_S
from chamberforms.polyring import int_det, poly_det, poly_eval
from conftest import (example13_C, example13_Cprime, line_points,
                      random_arrangement)


class TestPhi:
    def test_triangle_support_size(self):
        om = example13_C().compile()
        for t in om.bounded_topes():
            assert len(phi(om, t).support()) == 3

    def test_rank_one_two_monomials(self):
        om = line_points(1).compile()  # two points, one segment
        (t,) = om.bounded_topes()
        v = phi(om, t)
        assert len(v.support()) == 2
        assert sorted(abs(c) for c in v.coords.values()) == [1, 1]

    def test_self_pairing_is_vertex_count(self):
        om = example13_Cprime().compile()
        for t in om.bounded_topes():
            v = phi(om, t)
            assert pairing(v, v) == len(om.cocircuit_faces(t))


class TestPairing:
    def test_example13(self):
        om = example13_C().compile()
        a, b = om.bounded_topes()
        assert pairing(phi(om, a), phi(om, b)) == 1

    def test_translated_off_diagonal(self):
        om = example13_Cprime().compile()
        a, b = om.bounded_topes()
        assert pairing(phi(om, a), phi(om, b)) == -2

    def test_positive_definite_on_nonzero(self):
        v = FlagVector({frozenset({"a"}): 3, frozenset({"b"}): -2})
        assert pairing(v, v) == 13
        assert pairing(FlagVector({}), FlagVector({})) == 0

    def test_gram_matrix_equals_S(self):
        rng = random.Random(21)
        for _ in range(4):
            arr = random_arrangement(rng, rng.choice([1, 2, 3]), rng.randint(2, 6))
            if arr is None:
                continue
            om = arr.compile()
            s = build_S(om)
            vecs = [phi(om, t) for t in s.topes]
            for i in range(s.n):
                for j in range(s.n):
                    assert pairing(vecs[i], vecs[j]) == poly_eval(s.matrix[i, j], 1)


class TestBoundary:
    def test_two_element_monomial(self):
        om = line_points(1).compile()
        v = FlagVector({frozenset({"H1", "H2"}): 1})
        out = boundary(om, v)
        assert out == {frozenset({"H2"}): 1, frozenset({"H1"}): -1}

    def test_zero_vector(self):
        om = line_points(1).compile()
        assert boundary(om, FlagVector({})) == {}

    def test_phi_in_kernel_on_fixtures(self, vamos_om):
        for om in (example13_C().compile(),
                   line_points(3).compile(), vamos_om):
            for t in om.bounded_topes():
                assert boundary(om, phi(om, t)) == {}


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


class TestKernelReport:
    def test_example13(self):
        rep = check_basis_of_kernel(example13_C().compile())
        assert rep.ok()
        assert rep.phi_rank == 2 and rep.mu_plus_dual == 2
        assert rep.phi_divisors == (1, 1)

    def test_line(self):
        n = 5
        rep = check_basis_of_kernel(line_points(n).compile())
        assert rep.ok() and rep.phi_rank == n

    def test_vamos(self, vamos_om):
        rep = check_basis_of_kernel(vamos_om)
        assert rep.ok()
        assert rep.phi_rank == 30 and rep.boundary_kernel_dim == 30

    def test_guard(self, vamos_om):
        with pytest.raises(ValueError, match="guarded"):
            check_basis_of_kernel(vamos_om, max_bases=10)


class TestYMatrix:
    def test_one_dimensional_two_bases(self):
        arr = line_points(1)  # two hyperplanes in R^1
        rep = build_y_matrix(arr, seed=1)
        assert len(rep.bases) == 2
        assert rep.det_y in (1, -1)

    def test_example13_five_bases(self):
        rep = build_y_matrix(example13_C(), seed=5)
        assert len(rep.bases) == 5
        assert rep.det_y in (1, -1)

    def test_q_specialization(self):
        rep = build_y_matrix(example13_Cprime(), seed=2)
        det_yq = poly_det(rep.yq)
        assert poly_eval(det_yq, 1) == rep.det_y

    def test_expansion_identity(self):
        for arr, seed in ((example13_C(), 3), (line_points(4), 9)):
            om = arr.compile()
            rep = build_y_matrix(arr, seed)
            assert expansion_matches_y(om, rep) == []

    def test_deterministic_for_seed(self):
        a = build_y_matrix(example13_C(), seed=42)
        b = build_y_matrix(example13_C(), seed=42)
        assert a.xi == b.xi and a.y == b.y

    def test_random_arrangements(self):
        rng = random.Random(18)
        for _ in range(3):
            arr = random_arrangement(rng, 2, 5)
            if arr is None:
                continue
            rep = build_y_matrix(arr, seed=7)
            assert rep.det_y in (1, -1)
            assert expansion_matches_y(arr.compile(), rep) == []
