import random
from fractions import Fraction
from math import comb
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from chamberforms import polyring
from chamberforms.polyring import (CertificateError, IntPoly, ONE, ZERO,
                                   PolyMatrix, const, int_det, poly_det,
                                   poly_eval, poly_pow, q_integer)
from conftest import det_by_expansion, row_reduce

coeff_lists = st.lists(st.integers(-50, 50), max_size=8)


def schoolbook_mul(a, b):
    if not a.coeffs or not b.coeffs:
        return ZERO
    out = [0] * (len(a.coeffs) + len(b.coeffs) - 1)
    for i, x in enumerate(a.coeffs):
        for j, y in enumerate(b.coeffs):
            out[i + j] += x * y
    return IntPoly(out)


class TestIntPoly:
    def test_normalization_strips_trailing_zeros(self):
        assert IntPoly([1, 2, 0, 0]).coeffs == (1, 2)
        assert IntPoly([0, 0]).coeffs == ()

    def test_zero_degree_sentinel(self):
        assert ZERO.degree is None
        assert IntPoly([5]).degree == 0

    def test_arithmetic(self):
        p = IntPoly([1, 1])
        assert p + p == IntPoly([2, 2])
        assert p - p == ZERO
        assert -p == IntPoly([-1, -1])
        assert p * p == IntPoly([1, 2, 1])

    def test_shift_and_scale(self):
        assert IntPoly([1, 2]).shifted(2) == IntPoly([0, 0, 1, 2])
        assert IntPoly([1, 2]).scaled(-3) == IntPoly([-3, -6])

    def test_equality_with_int(self):
        assert const(7) == 7
        assert ZERO == 0

    @given(coeff_lists, coeff_lists)
    @settings(deadline=None)
    def test_mul_matches_schoolbook(self, a, b):
        pa, pb = IntPoly(a), IntPoly(b)
        assert pa * pb == schoolbook_mul(pa, pb)

    @given(coeff_lists, coeff_lists)
    @settings(deadline=None)
    def test_mul_with_large_coefficients(self, a, b):
        pa = IntPoly([c * 10 ** 30 + 7 for c in a])
        pb = IntPoly([c * 10 ** 21 - 3 for c in b])
        assert pa * pb == schoolbook_mul(pa, pb)


class TestQInteger:
    def test_one(self):
        assert q_integer(1) == ONE

    def test_two(self):
        assert q_integer(2) == IntPoly([1, 0, 1])

    def test_four(self):
        assert q_integer(4) == IntPoly([1, 0, 1, 0, 1, 0, 1])

    def test_degree_and_coefficients(self):
        for n in range(1, 12):
            p = q_integer(n)
            assert p.degree == 2 * n - 2
            assert set(p.coeffs) <= {0, 1}

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            q_integer(0)

    def test_evaluates_to_n_at_one(self):
        for n in range(1, 40):
            assert poly_eval(q_integer(n), 1) == n


class TestEval:
    def test_examples(self):
        assert poly_eval(IntPoly([1, 0, 1]), 1) == 2
        assert poly_eval(q_integer(4), 1) == 4
        assert poly_eval(IntPoly([1, 0, 2, 0, 1]), 2) == 25

    @given(coeff_lists, st.integers(-9, 9))
    @settings(deadline=None)
    def test_horner_matches_powers(self, a, x):
        p = IntPoly(a)
        assert poly_eval(p, x) == sum(c * x ** k for k, c in enumerate(p.coeffs))


class TestIntDet:
    def test_examples(self):
        assert int_det([[3, 1], [1, 3]]) == 8
        assert int_det([[3, -2], [-2, 4]]) == 8
        assert int_det([[3]]) == 3
        assert int_det([]) == 1

    def test_singular(self):
        assert int_det([[1, 2], [2, 4]]) == 0

    def test_needs_pivoting(self):
        assert int_det([[0, 1], [1, 0]]) == -1

    @given(st.lists(st.lists(st.integers(-6, 6), min_size=4, max_size=4),
                    min_size=4, max_size=4))
    @settings(deadline=None)
    def test_matches_permutation_sum(self, rows):
        expected = det_by_expansion([[const(x) for x in row] for row in rows])
        assert const(int_det(rows)) == expected


class TestPolyDet:
    def test_constant_examples(self):
        assert poly_det([[const(2), const(-1)], [const(-1), const(2)]]) == 3
        eye = [[ONE if i == j else ZERO for j in range(3)] for i in range(3)]
        assert poly_det(eye) == 1

    def test_example17_matrix(self):
        h1 = IntPoly([1, 0, 1, 0, 1])        # diagonal of the triangle chamber
        off = IntPoly([0, -1, 0, -1])        # -q(1+q^2)
        h2 = IntPoly([1, 0, 2, 0, 1])
        det = poly_det([[h1, off], [off, h2]])
        assert det == q_integer(4) * q_integer(2)

    def test_empty_matrix(self):
        assert poly_det([]) == ONE

    def test_zero_column_short_circuit(self):
        m = [[ZERO, ONE], [ZERO, ONE]]
        assert poly_det(m) == ZERO

    def test_constant_embedding_agrees_with_int_det(self):
        rows = [[5, -3, 2], [1, 0, -4], [2, 2, 2]]
        assert poly_det([[const(x) for x in r] for r in rows]) == int_det(rows)

    @given(st.integers(1, 4).flatmap(
        lambda n: st.lists(
            st.lists(st.lists(st.integers(-4, 4), max_size=3),
                     min_size=n, max_size=n),
            min_size=n, max_size=n)))
    @settings(deadline=None, max_examples=60)
    def test_matches_laplace_oracle(self, rows):
        mat = [[IntPoly(e) for e in row] for row in rows]
        assert poly_det(mat) == det_by_expansion(mat)

    def test_block_diagonal_multiplicativity(self):
        import random
        rng = random.Random(5)
        for _ in range(10):
            na, nb = rng.randint(1, 3), rng.randint(1, 3)
            a = [[IntPoly([rng.randint(-3, 3) for _ in range(2)])
                  for _ in range(na)] for _ in range(na)]
            b = [[IntPoly([rng.randint(-3, 3) for _ in range(2)])
                  for _ in range(nb)] for _ in range(nb)]
            block = [[a[i][j] if i < na and j < na else
                      b[i - na][j - na] if i >= na and j >= na else ZERO
                      for j in range(na + nb)] for i in range(na + nb)]
            assert poly_det(block) == poly_det(a) * poly_det(b)


def graded(rows):
    n = len(rows)
    return polyring._grading(n, [(i, j, e.coeffs) for i, row in enumerate(rows)
                                 for j, e in enumerate(row) if e.coeffs]) is not None


def graded_matrices(max_n=5):
    """Entries q^(s_i + s_j) p_ij(q^2) for a random 0/1 vector s."""
    def build(n):
        entry = st.one_of(st.just([]), st.lists(st.integers(-2 ** 40, 2 ** 40),
                                                 min_size=1, max_size=3))
        return st.tuples(st.lists(st.integers(0, 1), min_size=n, max_size=n),
                         st.lists(st.lists(entry, min_size=n, max_size=n),
                                  min_size=n, max_size=n))

    def to_rows(drawn):
        s, ps = drawn
        return [[IntPoly([c for x in p for c in (x, 0)]).shifted(s[i] + s[j])
                 for j, p in enumerate(row)] for i, row in enumerate(ps)]
    return st.integers(1, max_n).flatmap(build).map(to_rows)


def wrong_g(rows, shift, c):
    """det N / t**shift plus one: what a faulty engine might return."""
    return IntPoly(det_by_expansion(rows).coeffs[shift:]) + ONE


class TestModularEngine:
    """The CRT engine behind poly_det, against the permutation-sum oracle."""

    @given(st.integers(1, 4).flatmap(
        lambda n: st.lists(
            st.lists(st.lists(st.integers(-2 ** 40, 2 ** 40), max_size=3),
                     min_size=n, max_size=n),
            min_size=n, max_size=n)))
    @settings(deadline=None, max_examples=60)
    def test_large_coefficients_need_several_primes(self, rows):
        mat = [[IntPoly(e) for e in row] for row in rows]
        assert poly_det(mat) == det_by_expansion(mat)

    def test_symmetric_lift_of_both_signs(self):
        big = 3 ** 45  # det coefficients near 3**90 need five 31-bit primes
        mat = [[IntPoly([big, -1]), IntPoly([1, big])],
               [IntPoly([-big, 0, 2]), IntPoly([7, -big])]]
        det = poly_det(mat)
        assert det == det_by_expansion(mat)
        assert max(det.coeffs) > 2 ** 31 and min(det.coeffs) < -2 ** 31

    def test_pivot_vanishing_at_evaluation_points(self):
        q = IntPoly([0, 1])
        mat = [[q, ONE, ZERO],
               [ONE, q - ONE, ONE],
               [ZERO, ONE, q - const(2)]]
        assert poly_det(mat) == det_by_expansion(mat)
        swap = [[q, ONE], [ONE, q]]  # the pivot q is zero at q = 0
        assert poly_det(swap) == IntPoly([-1, 0, 1])

    def test_degree_bound_not_attained(self):
        q = IntPoly([0, 1])
        assert poly_det([[q, ONE], [q * q, q]]) == ZERO
        assert poly_det([[ZERO, ZERO], [q, ONE]]) == ZERO
        assert poly_det([[q, q + ONE], [q, q]]) == -q

    def test_certificate_failure_raises(self, monkeypatch):
        monkeypatch.setattr(polyring, "_modular_det", wrong_g)
        q = IntPoly([0, 1])
        with pytest.raises(CertificateError):
            poly_det([[q, ONE], [ONE, q]])

    def test_certificate_failure_raises_on_graded_path(self, monkeypatch):
        monkeypatch.setattr(polyring, "_modular_det", wrong_g)
        q, q2 = IntPoly([0, 1]), IntPoly([0, 0, 1])
        for mat in ([[ONE, q], [q, ONE]],      # s = (0, 1)
                    [[ONE, q2], [q2, ONE]]):  # s = (0, 0)
            assert graded(mat)
            with pytest.raises(CertificateError):
                poly_det(mat)

    @given(graded_matrices())
    @settings(deadline=None, max_examples=60)
    def test_graded_matches_expansion(self, rows):
        assert graded(rows)
        assert poly_det(rows) == det_by_expansion(rows)

    def test_mixed_parity_entry_falls_back(self):
        q = IntPoly([0, 1])
        mat = [[ONE, q, ZERO],
               [q, IntPoly([3, 0, 1]), q + ONE],  # q + 1 mixes parities
               [ZERO, q, ONE]]
        assert not graded(mat)
        assert poly_det(mat) == det_by_expansion(mat)

    def test_odd_cycle_has_no_grading(self):
        q = IntPoly([0, 1])
        two = const(2)
        mat = [[two, q, q], [q, two, q], [q, q, two]]  # s_i + s_j odd on a triangle
        assert not graded(mat)
        assert poly_det(mat) == det_by_expansion(mat)

    def test_disconnected_and_unsymmetric_patterns(self):
        q, q2 = IntPoly([0, 1]), IntPoly([0, 0, 1])
        blocks = [[ONE, q, ZERO, ZERO],
                  [q, q2, ZERO, ZERO],
                  [ZERO, ZERO, q2 + ONE, q],
                  [ZERO, ZERO, q, const(5)]]
        assert graded(blocks)
        assert poly_det(blocks) == det_by_expansion(blocks)
        lopsided = [[ONE, ZERO, q * q2],
                    [q, const(2), ZERO],
                    [ZERO, ZERO, q2 - ONE]]
        assert graded(lopsided)
        assert poly_det(lopsided) == det_by_expansion(lopsided)
        order = polyring._band_order(3, [(0, 0), (0, 2), (1, 0), (1, 1), (2, 2)])
        assert sorted(order) == [0, 1, 2]

    @given(st.integers(1, 5).flatmap(lambda n: st.tuples(
        st.lists(st.lists(coeff_lists, min_size=n, max_size=n),
                 min_size=n, max_size=n),
        st.permutations(range(n)))))
    @settings(deadline=None, max_examples=60)
    def test_symmetric_permutation_keeps_det(self, drawn):
        rows, perm = drawn
        mat = [[IntPoly(e) for e in row] for row in rows]
        permuted = [[mat[i][j] for j in perm] for i in perm]
        assert poly_det(permuted) == poly_det(mat) == det_by_expansion(mat)


def palindromic_matrices(max_n=4):
    """Entries q^lo p(q), p a palindrome, with lo + hi = a_i + b_j.

    Row weights a and column weights b are drawn apart and may be negative;
    an entry whose weight a_i + b_j is negative stays zero.
    """
    def build(n):
        weights = st.lists(st.integers(-3, 5), min_size=n, max_size=n)
        half = st.lists(st.integers(-9, 9), min_size=1, max_size=3)
        cells = st.lists(st.lists(st.tuples(st.booleans(), half),
                                  min_size=n, max_size=n), min_size=n, max_size=n)
        return st.tuples(weights, weights, cells)

    def entry(w, present, half):
        if not present or w < 0:
            return ZERO
        half = [half[0] or 1] + half[1:]
        if w % 2:  # an even-length body
            h = min(len(half), (w + 1) // 2)
            body = half[:h] + half[:h][::-1]
        else:
            h = min(len(half) - 1, w // 2)
            body = half[:h + 1] + half[:h][::-1]
        return IntPoly([0] * ((w + 1 - len(body)) // 2) + body)

    def to_rows(drawn):
        a, b, cells = drawn
        return [[entry(a[i] + b[j], *cell) for j, cell in enumerate(row)]
                for i, row in enumerate(cells)]
    return st.integers(1, max_n).flatmap(build).map(to_rows)


def traced_det(rows):
    """poly_det(rows), the c of each engine call, and the point counts.

    c is the palindrome degree poly_det passes to _modular_det (None without
    weights); the point counts are those of the batched eliminations.
    """
    cs, points = [], set()
    engine, batch = polyring._modular_det, polyring._batch_det_mod

    def spy_engine(rows, shift, c):
        cs.append(c)
        return engine(rows, shift, c)

    def spy_batch(a, p, symmetric):
        points.add(a.shape[0])
        return batch(a, p, symmetric)
    with mock.patch.object(polyring, "_modular_det", spy_engine), \
            mock.patch.object(polyring, "_batch_det_mod", spy_batch):
        return poly_det(rows), cs, points


EVEN_C = [[IntPoly([0, 2, 2]), ZERO],               # a = (0, -1), b = (3, 2)
          [IntPoly([1, 0, 1]), IntPoly([5, 5])]]
ODD_C = [[IntPoly([0, 1, 3, 1]), IntPoly([2, 0, 0, 0, 2])],  # a = (2, -1), b = (2, 2)
         [IntPoly([-1, -1]), IntPoly([4, 4])]]


class TestMirroredNodes:
    """Palindromic matrices evaluate at t = 1 .. K and read g at 1/t."""

    @given(palindromic_matrices())
    @example(EVEN_C)
    @example(ODD_C)
    @settings(deadline=None, max_examples=80)
    def test_matches_expansion(self, rows):
        det, cs, _ = traced_det(rows)
        assert None not in cs
        assert det == det_by_expansion(rows)

    def test_examples_cover_both_parities_of_c(self):
        assert traced_det(EVEN_C)[1:] == ([4], {3})
        assert traced_det(ODD_C)[1:] == ([5], {4})

    def test_one_non_palindromic_entry_takes_consecutive_nodes(self):
        q = IntPoly([0, 1])
        rows = [[IntPoly([1, 2, 1]), q, ZERO],
                [q, IntPoly([1, 0, 3, 1]), q],   # 1 + 3q^2 + q^3 breaks the palindrome
                [ZERO, q, IntPoly([2, 2])]]
        det, cs, points = traced_det(rows)
        assert det == det_by_expansion(rows)
        assert cs == [None] and points == {2 + 3 + 1 + 1}  # nodes 1 .. D + 1

    def test_uniform_sq_takes_half_the_points(self):
        """A dense-shaped S_q: every S_q(A, B) is a palindrome of weight 2r
        in q, so c = r * topes in t = q^2 and K = ceil((c + 2) / 2)."""
        from chamberforms.forms import build_Sq
        from conftest import random_arrangement
        rng = random.Random(3)
        r, n = 3, 7
        while True:
            arr = random_arrangement(rng, r, n)
            if arr is not None and len(arr.matroid().bases) == comb(n, r):
                break
        sq = build_Sq(arr.compile())
        assert sq.n == comb(n - 1, r)
        det, cs, points = traced_det(sq.matrix)
        c = r * sq.n
        assert cs == [c] and points == {(c + 3) // 2}
        assert det.degree == 2 * c

    def test_node_precondition(self, monkeypatch):
        """The nodes 2**e repeat modulo 8191 = 2**13 - 1, where 2 has order
        13; a g with more than 13 coefficients must skip that prime."""
        mirrored = [[IntPoly([1] + [0] * 18 + [1])]]        # c = 19: 20 coefficients
        consecutive = [[IntPoly([1, 1] + [0] * 20 + [2])]]  # 23 coefficients
        used = []
        batch = polyring._batch_det_mod

        def spy_batch(a, p, symmetric):
            used.append(p)
            return batch(a, p, symmetric)
        monkeypatch.setattr(polyring, "_batch_det_mod", spy_batch)
        monkeypatch.setattr(polyring, "_primes_below",
                            lambda top: iter([8191, 1000003]))
        for rows in (mirrored, consecutive):
            used.clear()
            assert poly_det(rows) == rows[0][0]
            assert used == [1000003]


class Stop(Exception):
    pass


def first_prime(monkeypatch, n, width):
    """The first prime _modular_det takes for an n x n matrix of width width."""
    tops = []

    def capture(top):
        tops.append(top)
        raise Stop
    rows = [[IntPoly([1] * width) if i == j else ZERO for j in range(n)]
            for i in range(n)]
    with monkeypatch.context() as m:
        m.setattr(polyring, "_primes_below", capture)
        with pytest.raises(Stop):
            polyring._modular_det(rows, 0, None)
    return next(polyring._primes_below(tops[0]))


def points_last(a):
    """a with the same shape, laid out in memory as _Evaluator lays it out."""
    return np.ascontiguousarray(a.transpose(1, 2, 0)).transpose(2, 0, 1)


def assert_kernel_matches(a, p):
    expected = [polyring._det_mod([[int(x) for x in row] for row in m], p) for m in a]
    assert polyring._batch_det_mod(a.copy(), p).tolist() == expected
    assert polyring._batch_det_mod(points_last(a), p).tolist() == expected


def edge_batch(rng, n_pts, n, p):
    """Residues in [p - 2**20, p): every product is close to (p - 1)**2.

    Point 1 has a zero column and point 2 a repeated row, so each has a
    column without a pivot, the second only after some elimination steps.
    """
    a = rng.integers(p - 2 ** 20, p, size=(n_pts, n, n), dtype=np.int64)
    if n_pts > 1:
        a[1, :, rng.integers(n)] = 0
    if n_pts > 2 and n > 1:
        i, j = rng.choice(n, 2, replace=False)
        a[2, j] = a[2, i]
    return a


class TestWordKernel:
    """The int64 kernels near their overflow edge, against Python ints."""

    @given(st.integers(1, 40), st.integers(1, 4), st.integers(0, 2 ** 32))
    @settings(deadline=None, max_examples=40)
    def test_lazy_elimination_at_the_edge(self, n, n_pts, seed):
        with pytest.MonkeyPatch.context() as monkeypatch:
            p = first_prime(monkeypatch, n, 1)
        assert_kernel_matches(edge_batch(np.random.default_rng(seed), n_pts, n, p), p)

    def test_lazy_elimination_at_n_200(self, monkeypatch):
        p = first_prime(monkeypatch, 200, 1)
        assert_kernel_matches(edge_batch(np.random.default_rng(200), 2, 200, p), p)

    def test_word_bound_of_the_first_prime(self, monkeypatch):
        for n in (1, 2, 9, 84, 300):
            for width in (1, 2, 6, 64, 500):
                p = first_prime(monkeypatch, n, width)
                assert (max(n, width) + 1) * (p - 1) ** 2 < 2 ** 63
                assert p > 2 ** 26

    @given(st.lists(st.one_of(st.just(0), st.integers(1, 2 ** 31 - 2)), max_size=20))
    def test_batch_inverse_with_zeros(self, values):
        p = 2 ** 31 - 1
        inv = polyring._batch_inverse(np.array(values, dtype=np.int64), p).tolist()
        assert [x * y % p for x, y in zip(values, inv)] == [int(x != 0) for x in values]
        assert [y for x, y in zip(values, inv) if not x] == [0] * values.count(0)

    def test_evaluator_keeps_wide_coefficients(self, monkeypatch):
        rng = random.Random(5)
        n, n_pts = 4, 6
        rows = [[IntPoly([rng.randrange(-2 ** 80, 2 ** 80)
                          for _ in range(rng.randrange(4))]) for _ in range(n)]
                for _ in range(n)]
        rows[0][0] = IntPoly([2 ** 64 + 1, -(2 ** 70), 3])
        p = first_prime(monkeypatch, n, 3)
        batch = polyring._Evaluator(rows, n_pts)(p)
        for e in range(n_pts):
            t = pow(2, e, p)
            assert batch[e].tolist() == [[polyring._eval_mod(x, t, p) for x in row]
                                         for row in rows]


def symmetric_edge_batch(rng, n_pts, n, p):
    """Symmetric residues in [p - 2**20, p).

    Point 1 repeats row and column 0 as the last ones, so only its last
    diagonal pivot vanishes: det 0, and no reason to give up.
    """
    a = rng.integers(p - 2 ** 20, p, size=(n_pts, n, n), dtype=np.int64)
    a = np.triu(a) + np.triu(a, 1).transpose(0, 2, 1)
    if n_pts > 1 and n > 1:
        a[1, -1] = a[1, 0]
        a[1, :, -1] = a[1, :, 0]
    return a


def assert_symmetric_kernel_matches(a, p):
    expected = [polyring._det_mod([[int(x) for x in row] for row in m], p) for m in a]
    upper = np.triu(a)  # the symmetric kernel reads nothing below the diagonal
    assert polyring._batch_det_mod(upper.copy(), p, True).tolist() == expected
    assert polyring._batch_det_mod(points_last(upper), p, True).tolist() == expected


def spied_det(rows):
    """poly_det(rows), and per batched elimination its mode and whether it
    gave up on a vanishing diagonal pivot."""
    calls = []
    batch = polyring._batch_det_mod

    def spy_batch(a, p, symmetric):
        out = batch(a, p, symmetric)
        calls.append((symmetric, out is None))
        return out
    with mock.patch.object(polyring, "_batch_det_mod", spy_batch):
        return poly_det(rows), calls


def uniform_arrangement(rng, r, n):
    """A generic arrangement whose normal matroid is U(r, n), like `dense`'s."""
    from conftest import random_arrangement
    while True:
        arr = random_arrangement(rng, r, n)
        if arr is not None and len(arr.matroid().bases) == comb(n, r):
            return arr


def symmetric_matrices(entry, max_n):
    """Square matrices of entries drawn from entry, symmetric by construction."""
    return st.integers(1, max_n).flatmap(lambda n: st.lists(
        entry, min_size=n * n, max_size=n * n).map(
            lambda v: [[v[min(i, j) * n + max(i, j)] for j in range(n)]
                       for i in range(n)]))


class TestSymmetricElimination:
    """Diagonal pivots on the upper triangle, and the fallback to pivoting."""

    @given(st.integers(1, 40), st.integers(1, 4), st.integers(0, 2 ** 32))
    @settings(deadline=None, max_examples=40)
    def test_lazy_elimination_at_the_edge(self, n, n_pts, seed):
        with pytest.MonkeyPatch.context() as monkeypatch:
            p = first_prime(monkeypatch, n, 1)
        rng = np.random.default_rng(seed)
        assert_symmetric_kernel_matches(symmetric_edge_batch(rng, n_pts, n, p), p)

    def test_lazy_elimination_at_n_200(self, monkeypatch):
        p = first_prime(monkeypatch, 200, 1)
        rng = np.random.default_rng(200)
        assert_symmetric_kernel_matches(symmetric_edge_batch(rng, 2, 200, p), p)

    def test_vanishing_pivot_at_one_point_gives_up(self):
        p = 1000003
        a = np.array([[[2, 1], [1, 3]], [[0, 1], [1, 3]], [[5, 2], [2, 1]]],
                     dtype=np.int64)
        assert polyring._batch_det_mod(points_last(a), p, True) is None
        assert polyring._batch_det_mod(points_last(a), p).tolist() == [5, p - 1, 1]
        swap = np.array([[[0, 1], [1, 0]]], dtype=np.int64)
        assert polyring._batch_det_mod(swap.copy(), p, True) is None

    @given(symmetric_matrices(
        st.lists(st.integers(-4, 4), max_size=3).map(IntPoly), 4))
    @settings(deadline=None, max_examples=60)
    def test_symmetric_matches_expansion(self, rows):
        assert poly_det(rows) == det_by_expansion(rows)

    def test_pivot_vanishing_at_one_point_falls_back(self):
        q4 = IntPoly([-4, 1])  # 0 at t = 4, the last of the points 1, 2, 4
        rows = [[q4, ONE], [ONE, q4]]
        det, calls = spied_det(rows)
        assert det == det_by_expansion(rows)
        assert calls[0] == (True, True) and len(calls) > 1
        assert set(calls[1:]) == {(False, False)}

    def test_zero_diagonal_falls_back(self):
        q = IntPoly([0, 1])
        det, calls = spied_det([[ZERO, q], [q, ZERO]])
        assert det == IntPoly([0, 0, -1])
        assert calls[0] == (True, True) and len(calls) > 1
        assert set(calls[1:]) == {(False, False)}

    def test_points_in_chunks(self, monkeypatch):
        q4 = IntPoly([-4, 1])
        rows = [[q4, ONE, ZERO], [ONE, q4, q4], [ZERO, q4, const(3)]]
        whole, whole_calls = spied_det(rows)
        monkeypatch.setattr(polyring, "_BATCH_BYTES", 1)  # a point per batch
        det, calls = spied_det(rows)
        assert det == whole == det_by_expansion(rows)
        assert len(calls) > len(whole_calls)
        gave_up = calls.index((True, True))
        assert set(calls[:gave_up]) == {(True, False)}
        assert set(calls[gave_up + 1:]) == {(False, False)}

    @given(symmetric_matrices(st.integers(-6, 6), 5))
    @settings(deadline=None)
    def test_int_det_matches_permutation_sum(self, rows):
        expected = det_by_expansion([[const(x) for x in row] for row in rows])
        assert const(int_det(rows)) == expected

    def test_int_det_zero_diagonal_falls_back(self):
        assert polyring._symmetric_bareiss([[0, 2], [2, 0]]) is None
        assert int_det([[0, 2], [2, 0]]) == -4
        rows = [[1, 1, 0], [1, 1, 1], [0, 1, 1]]  # the second pivot is 0
        assert polyring._symmetric_bareiss(rows) is None
        assert int_det(rows) == -1

    def test_int_det_against_row_pivoting(self):
        rng = random.Random(7)
        for n in (6, 12, 20):
            upper = [[rng.randint(-10 ** 6, 10 ** 6) for _ in range(n)]
                     for _ in range(n)]
            rows = [[upper[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
            assert polyring._symmetric_bareiss(rows) is not None
            swapped = [rows[1], rows[0]] + rows[2:]  # not symmetric: pivoting
            assert int_det(rows) == -int_det(swapped) != 0

    def test_commands_take_the_symmetric_path(self):
        """On the fixtures and a `dense`-shaped arrangement, no diagonal pivot
        of S or S_q vanishes: the pivoting kernel is never called."""
        from chamberforms.cli import load_instance
        from chamberforms.forms import build_S, build_Sq
        from chamberforms.make_fixtures import FIXTURES
        from conftest import FIXTURE_DIR
        oms = [load_instance(str(FIXTURE_DIR / name)).om for name in FIXTURES]
        oms.append(uniform_arrangement(random.Random(1), 3, 9).compile())
        assert len(oms) == 7 and len(oms[-1].bounded_topes()) == comb(8, 3)
        for om in oms:
            _, calls = spied_det(build_Sq(om).matrix)
            assert calls and set(calls) == {(True, False)}
            s = [[e[0] for e in row] for row in build_S(om).matrix.entries]
            assert polyring._symmetric_bareiss(s) is not None


class TestPolyMatrix:
    def test_shape_and_label_validation(self):
        with pytest.raises(ValueError):
            PolyMatrix(("a", "a"), [[ONE, ZERO], [ZERO, ONE]])
        with pytest.raises(ValueError):
            PolyMatrix(("a", "b"), [[ONE]])

    def test_serialization_form(self):
        assert IntPoly([1, 0, -2]).coeff_strings() == ["1", "0", "-2"]
        assert ZERO.coeff_strings() == ["0"]


def test_poly_pow():
    assert poly_pow(q_integer(2), 3) == q_integer(2) * q_integer(2) * q_integer(2)
    assert poly_pow(q_integer(5), 0) == ONE


small_int_matrices = st.integers(1, 6).flatmap(lambda cols: st.lists(
    st.lists(st.integers(-9, 9), min_size=cols, max_size=cols), max_size=7))


class TestRankMod:
    @given(small_int_matrices)
    @settings(deadline=None, max_examples=150)
    def test_equals_rational_rank_below_the_modulus(self, rows):
        # every minor is far below 2**61 - 1, so none vanishes only mod p
        expected = row_reduce([[Fraction(x) for x in row] for row in rows])
        assert polyring._rank_mod(rows, polyring._CERT_PRIME) == expected

    def test_never_above_the_rational_rank(self):
        rows = [[1, 1], [1, -1]]  # det -2
        assert polyring._rank_mod(rows, 2) == 1
        assert polyring._rank_mod(rows, 3) == 2
        assert rows == [[1, 1], [1, -1]]  # the input is left as it was
