import random

import pytest

from chamberforms import modular
from chamberforms.cli import load_instance
from chamberforms.forms import (TheoremViolation, build_S, build_Sq, h_poly,
                                rhs_classical, rhs_q, verify)
from chamberforms.matroid import uniform_matroid
from chamberforms.polyring import (IntPoly, ONE, poly_det, poly_eval, poly_pow,
                                   q_integer)
from conftest import (FIXTURE_DIR, cocircuit_faces, example13_C, example13_Cprime,
                      line_points, random_arrangement, uniform_lines)


def ints(form):
    return [[poly_eval(e, 1) for e in row] for row in form.matrix]


class TestHPoly:
    def test_triangle(self):
        assert h_poly((3, 3, 1)) == IntPoly([1, 0, 1, 0, 1])

    def test_square(self):
        assert h_poly((4, 4, 1)) == IntPoly([1, 0, 2, 0, 1])

    def test_point(self):
        assert h_poly((1,)) == ONE

    def test_h_at_one_is_f0(self):
        for f in ((3, 3, 1), (4, 4, 1), (2, 1), (8, 12, 6, 1)):
            assert poly_eval(h_poly(f), 1) == f[0]


    def test_cached_per_f_vector(self):
        assert h_poly((3, 3, 1)) is h_poly((3, 3, 1))

    def test_euler_error_raises_every_time(self):
        for _ in range(2):
            with pytest.raises(ValueError, match="Euler relation"):
                h_poly((3, 1))


class TestBuildS:
    def test_example13(self):
        assert ints(build_S(example13_C().compile())) == [[3, 1], [1, 3]]

    def test_example13_translated(self):
        assert ints(build_S(example13_Cprime().compile())) == [[3, -2], [-2, 4]]

    def test_line_tridiagonal(self):
        n = 6
        s = ints(build_S(line_points(n).compile()))
        for i in range(n):
            for j in range(n):
                expect = 2 if i == j else -1 if abs(i - j) == 1 else 0
                assert s[i][j] == expect

    def test_diagonal_is_vertex_count(self):
        om = example13_Cprime().compile()
        s = build_S(om)
        for i, t in enumerate(s.topes):
            assert poly_eval(s.matrix[i][i], 1) == len(cocircuit_faces(om, t))


class TestBuildSq:
    def test_example17(self):
        sq = build_Sq(example13_C().compile())
        h = IntPoly([1, 0, 1, 0, 1])
        q2 = IntPoly([0, 0, 1])
        assert sq.matrix == ((h, q2), (q2, h))

    def test_example17_translated(self):
        sq = build_Sq(example13_Cprime().compile())
        h1 = IntPoly([1, 0, 1, 0, 1])
        h2 = IntPoly([1, 0, 2, 0, 1])
        off = IntPoly([0, -1, 0, -1])
        assert sq.matrix == ((h1, off), (off, h2))

    def test_line_quantum_cartan(self):
        n = 5
        sq = build_Sq(line_points(n).compile())
        diag = IntPoly([1, 0, 1])
        off = IntPoly([0, -1])
        for i in range(n):
            for j in range(n):
                expect = diag if i == j else off if abs(i - j) == 1 else IntPoly()
                assert sq.matrix[i][j] == expect

    def test_symmetry_and_q1_specialization(self):
        rng = random.Random(8)
        arr = random_arrangement(rng, 2, 6)
        om = arr.compile()
        s, sq = build_S(om), build_Sq(om)
        n = s.n
        for i in range(n):
            for j in range(n):
                assert sq.matrix[i][j] == sq.matrix[j][i]
                assert poly_eval(sq.matrix[i][j], 1) == poly_eval(s.matrix[i][j], 1)

    def test_lowest_term_and_diagonal_degree(self):
        om = example13_Cprime().compile()
        sq = build_Sq(om)
        from chamberforms.oriented_matroid import separation
        for i in range(sq.n):
            assert sq.matrix[i][i].degree == 2 * om.central.rank
            for j in range(sq.n):
                e = sq.matrix[i][j]
                if e.is_zero():
                    continue
                d = separation(sq.topes[i], sq.topes[j])
                low = next(k for k, c in enumerate(e.coeffs) if c)
                assert low == d and e.coeffs[d] == (-1) ** d

    @pytest.mark.parametrize("path", sorted(FIXTURE_DIR.glob("*.json")),
                             ids=lambda p: p.name)
    def test_det_fast_path_applies(self, path):
        """S_q is graded, and band order does not widen its band."""
        rows = build_Sq(load_instance(str(path)).om).matrix
        n = len(rows)
        entries = [(i, j, e.coeffs) for i, row in enumerate(rows)
                   for j, e in enumerate(row) if e.coeffs]
        assert modular._grading(n, entries) is not None
        order = modular._band_order(n, [(i, j) for i, j, _ in entries])
        pos = {v: k for k, v in enumerate(order)}
        banded = max(abs(pos[i] - pos[j]) for i, j, _ in entries)
        assert banded <= max(abs(i - j) for i, j, _ in entries)


class TestRhs:
    def test_example13(self):
        m = example13_C().matroid()
        value, factors = rhs_classical(m)
        assert value == 8
        assert [(f.base, f.exponent) for f in factors] == [(4, 1), (2, 1)]

    def test_u1n(self):
        for n in (1, 3, 7):
            m = uniform_matroid(1, n + 1)
            value, factors = rhs_classical(m)
            assert value == n + 1

    def test_u23(self):
        value, _ = rhs_classical(uniform_matroid(2, 3))
        assert value == 3

    def test_u28_q(self):
        value, factors = rhs_q(uniform_matroid(2, 8))
        assert value == poly_pow(q_integer(8), 6)
        assert [(f.base, f.exponent) for f in factors] == [(8, 6)]

    def test_vamos_q(self, vamos_om):
        value, factors = rhs_q(vamos_om.matroid())
        assert value == poly_pow(q_integer(8), 15) * poly_pow(q_integer(4), 5)
        assert [(f.base, f.exponent) for f in factors] == \
            [(8, 15), (4, 1), (4, 1), (4, 1), (4, 1), (4, 1)]

    def test_zero_exponent_factors_retained(self):
        # disconnected normal matroid: beta(M) = 0, so the empty flat keeps
        # an exponent-0 factor and the empty matrix has determinant 1
        from chamberforms.arrangement import Arrangement, Hyperplane
        arr = Arrangement(2, [Hyperplane.make("H1", ["0", "1"], "0"),
                              Hyperplane.make("H2", ["0", "1"], "1"),
                              Hyperplane.make("H3", ["0", "1"], "2"),
                              Hyperplane.make("H4", ["1", "0"], "0")])
        om = arr.compile()
        assert om.bounded_topes() == []
        value, factors = rhs_classical(arr.matroid())
        assert value == 1
        assert factors[0].flat == () and factors[0].exponent == 0
        vs, vq = verify(om)
        assert vs.match and vq.match and vq.lhs == ONE


class TestVerify:
    def test_example13_both_match(self):
        vs, vq = verify(example13_C().compile())
        assert vs.match and vq.match
        assert vq.lhs == q_integer(4) * q_integer(2)

    def test_eight_lines(self):
        arr = uniform_lines(random.Random(5), 8)
        vs, vq = verify(arr.compile())
        assert vs.match and vq.match
        assert vq.lhs == poly_pow(q_integer(8), 6)

    def test_vamos(self, vamos_om):
        vs, vq = verify(vamos_om)
        assert vs.match and vq.match
        assert vq.lhs == poly_pow(q_integer(8), 15) * poly_pow(q_integer(4), 5)

    def test_det_positive(self):
        rng = random.Random(14)
        for _ in range(5):
            arr = random_arrangement(rng, 2, 5)
            if arr is None:
                continue
            vs, _ = verify(arr.compile())
            assert poly_eval(vs.lhs, 1) > 0

    def test_matrix_size_is_mu_plus_dual(self):
        for om in (example13_C().compile(), line_points(4).compile()):
            s = build_S(om)
            assert s.n == om.matroid().tutte(0, 1)

    def test_theorem_mismatch_raises(self, monkeypatch):
        import chamberforms.forms as forms_mod
        monkeypatch.setattr(forms_mod, "rhs_classical",
                            lambda m: (999, []))
        with pytest.raises(TheoremViolation):
            forms_mod.verify(example13_C().compile())

    def test_conjecture_mismatch_is_reported_not_raised(self, monkeypatch):
        import chamberforms.forms as forms_mod
        real = forms_mod.rhs_q

        def wrong(m):
            value, factors = real(m)
            return value * q_integer(2), factors
        monkeypatch.setattr(forms_mod, "rhs_q", wrong)
        vs, vq = forms_mod.verify(example13_C().compile())
        assert vs.match and not vq.match
