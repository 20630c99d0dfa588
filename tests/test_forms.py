import random
from math import prod

import pytest

from chamberforms import modular, polyring
from chamberforms.cli import load_instance
from chamberforms.forms import (TheoremViolation, build_S, build_Sq, h_poly,
                                rhs_classical, rhs_q)
from chamberforms.polyring import (IntPoly, ONE, poly_det, poly_eval, poly_pow,
                                   q_integer)
from conftest import (FIXTURE_DIR, cocircuit_faces, forms_by_all_pairs,
                      line_points, load_arrangement, random_arrangement,
                      uniform_lines, uniform_matroid, verify_built)


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
        assert ints(build_S(load_arrangement("example13-C.json").compile())) == [[3, 1], [1, 3]]

    def test_example13_translated(self):
        assert ints(build_S(load_arrangement("example13-Cprime.json").compile())) == [[3, -2], [-2, 4]]

    def test_line_tridiagonal(self):
        n = 6
        s = ints(build_S(line_points(n).compile()))
        for i in range(n):
            for j in range(n):
                expect = 2 if i == j else -1 if abs(i - j) == 1 else 0
                assert s[i][j] == expect

    def test_diagonal_is_vertex_count(self):
        om = load_arrangement("example13-Cprime.json").compile()
        s = build_S(om)
        for i, t in enumerate(s.topes):
            assert poly_eval(s.matrix[i][i], 1) == len(cocircuit_faces(om, t))


class TestBuildSq:
    def test_example17(self):
        sq = build_Sq(load_arrangement("example13-C.json").compile())
        h = IntPoly([1, 0, 1, 0, 1])
        q2 = IntPoly([0, 0, 1])
        assert sq.matrix == ((h, q2), (q2, h))

    def test_example17_translated(self):
        sq = build_Sq(load_arrangement("example13-Cprime.json").compile())
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
                assert s.matrix[i][j] == s.matrix[j][i]
                assert sq.matrix[i][j] == sq.matrix[j][i]
                assert poly_eval(sq.matrix[i][j], 1) == poly_eval(s.matrix[i][j], 1)

    def test_lowest_term_and_diagonal_degree(self):
        om = load_arrangement("example13-Cprime.json").compile()
        sq = build_Sq(om)
        from chamberforms.oriented_matroid import separation
        for i in range(sq.n):
            assert sq.matrix[i][i].degree == 2 * om.central.rank
            for j in range(sq.n):
                e = sq.matrix[i][j]
                if not e:
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
        order = polyring.band_order(n, [(i, j) for i, j, _ in entries])
        pos = {v: k for k, v in enumerate(order)}
        banded = max(abs(pos[i] - pos[j]) for i, j, _ in entries)
        assert banded <= max(abs(i - j) for i, j, _ in entries)


class TestRhs:
    def test_example13(self):
        m = load_arrangement("example13-C.json").compile().matroid()
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
        value, factors = rhs_classical(om.matroid())
        assert value == 1
        assert factors[0].flat == () and factors[0].exponent == 0
        vs, vq = verify_built(om)
        assert vs.match and vq.match and vq.lhs == ONE


def braid_normals(m):
    """K_m: e_i - e_j for 0 <= i < j < m in R^(m - 1), with x_0 = 0."""
    unit = [[int(i == k) for k in range(m - 1)] for i in range(m - 1)]
    return unit + [[a - b for a, b in zip(unit[i], unit[j])]
                   for i in range(m - 1) for j in range(i + 1, m - 1)]


def type_b_normals(r):
    """B_r: e_i and e_i +- e_j in R^r."""
    unit = [[int(i == k) for k in range(r)] for i in range(r)]
    return unit + [[a + s * b for a, b in zip(unit[i], unit[j])]
                   for i in range(r) for j in range(i + 1, r) for s in (1, -1)]


def generic_translate(normals, rng):
    """The central arrangement of normals, moved by random offsets until
    no r + 1 hyperplanes share a point."""
    from fractions import Fraction
    from chamberforms.arrangement import Arrangement, Hyperplane
    while True:
        arr = Arrangement(len(normals[0]), [
            Hyperplane.make(f"H{k}", a, Fraction(rng.randint(-10 ** 6, 10 ** 6),
                                                  rng.randint(1, 97)))
            for k, a in enumerate(normals, 1)])
        if arr.validate_generic() is None:
            return arr


class TestVerify:
    @pytest.mark.parametrize("normals, topes, by_base", [
        (braid_normals(5), 51, {4: 30, 7: 10, 10: 6}),
        (type_b_normals(3), 40, {5: 9, 6: 4, 9: 8}),
    ], ids=["K5", "B3"])
    def test_reflection_arrangements(self, normals, topes, by_base):
        """Generic translates of K5 and B3: flat lattices with factors of
        three bases, where uniform inputs give one."""
        om = generic_translate(normals, random.Random(0)).compile()
        vs, vq = verify_built(om)
        assert len(om.bounded_topes()) == topes
        summed = dict.fromkeys(by_base, 0)
        for f in vq.factors:
            summed[f.base] += f.exponent
        assert summed == by_base and vs.factors == vq.factors
        assert vs.match and vq.match
        assert vs.lhs == prod(b ** e for b, e in by_base.items())
        assert vq.lhs == prod((poly_pow(q_integer(b), e) for b, e in by_base.items()),
                              start=ONE)

    def test_example13_both_match(self):
        vs, vq = verify_built(load_arrangement("example13-C.json").compile())
        assert vs.match and vq.match
        assert vq.lhs == q_integer(4) * q_integer(2)

    def test_eight_lines(self):
        arr = uniform_lines(random.Random(5), 8)
        vs, vq = verify_built(arr.compile())
        assert vs.match and vq.match
        assert vq.lhs == poly_pow(q_integer(8), 6)

    def test_vamos(self, vamos_om):
        vs, vq = verify_built(vamos_om)
        assert vs.match and vq.match
        assert vq.lhs == poly_pow(q_integer(8), 15) * poly_pow(q_integer(4), 5)

    def test_det_positive(self):
        rng = random.Random(14)
        for _ in range(5):
            arr = random_arrangement(rng, 2, 5)
            if arr is None:
                continue
            vs, _ = verify_built(arr.compile())
            assert poly_eval(vs.lhs, 1) > 0

    def test_matrix_size_is_mu_plus_dual(self):
        for om in (load_arrangement("example13-C.json").compile(), line_points(4).compile()):
            s = build_S(om)
            assert s.n == om.matroid().tutte(0, 1)

    def test_theorem_mismatch_raises(self, monkeypatch):
        import chamberforms.forms as forms_mod
        monkeypatch.setattr(forms_mod, "rhs_classical",
                            lambda m: (999, []))
        with pytest.raises(TheoremViolation):
            verify_built(load_arrangement("example13-C.json").compile())

    def test_conjecture_mismatch_is_reported_not_raised(self, monkeypatch):
        import chamberforms.forms as forms_mod
        real = forms_mod.rhs_q

        def wrong(m):
            value, factors = real(m)
            return value * q_integer(2), factors
        monkeypatch.setattr(forms_mod, "rhs_q", wrong)
        vs, vq = verify_built(load_arrangement("example13-C.json").compile())
        assert vs.match and not vq.match


class TestAllPairsRoute:
    """build_S and build_Sq meet only the pairs that share a vertex; the
    second route meets every pair."""

    @staticmethod
    def assert_matches_all_pairs(om):
        s, sq = forms_by_all_pairs(om)
        assert build_S(om) == s
        assert build_Sq(om) == sq

    @pytest.mark.parametrize("path", sorted(FIXTURE_DIR.glob("*.json")),
                             ids=lambda p: p.name)
    def test_fixtures(self, path):
        self.assert_matches_all_pairs(load_instance(str(path)).om)

    @pytest.mark.parametrize("normals", [braid_normals(5), type_b_normals(3)],
                             ids=["K5", "B3"])
    def test_reflection_arrangements(self, normals):
        self.assert_matches_all_pairs(
            generic_translate(normals, random.Random(0)).compile())

    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    def test_random_arrangements(self, r):
        rng = random.Random(30 + r)
        checked = 0
        while checked < 3:
            arr = random_arrangement(rng, r, rng.randint(r + 1, r + 4))
            if arr is not None:
                self.assert_matches_all_pairs(arr.compile())
                checked += 1
