import ast
import json
import os
import random
import subprocess
import sys
from collections import Counter, defaultdict
from fractions import Fraction
from itertools import islice
from math import comb, isqrt, prod
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from chamberforms import modular, polyring
from chamberforms.polyring import (CertificateError, IntPoly, ONE, ZERO,
                                   const, int_det, poly_det, poly_eval,
                                   poly_pow, q_integer)
from conftest import det_by_expansion, fraction_det, uniform_arrangement

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
        assert p + -p == ZERO
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
    return modular._grading(n, [(i, j, e.coeffs) for i, row in enumerate(rows)
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


def wrong_interpolation(monkeypatch):
    """Make every prime's g one too large in its constant term, as a faulty
    engine might: the lift then repeats, but it is wrong.  Returns the list
    that collects the prime of each interpolation."""
    primes = []
    interpolate = modular._interpolate_mod

    def wrong(e0, y, p):
        primes.append(p)
        coeffs = interpolate(e0, y, p)
        return [(coeffs[0] + 1) % p] + coeffs[1:]
    monkeypatch.setattr(modular, "_interpolate_mod", wrong)
    return primes


def assert_raises_at_the_bound(monkeypatch, mat):
    """A wrong lift fails the certificate after every prime the bound allows,
    also where the true lift stops early."""
    early = poly_det(mat).method
    with monkeypatch.context() as m:
        primes = wrong_interpolation(m)
        with pytest.raises(CertificateError, match=f"all {early.bound} primes"):
            poly_det(mat)
    assert len(primes) == early.bound
    return early


class TestModularEngine:
    """The CRT engine behind poly_det, against the permutation-sum oracle."""

    def test_empty_grid(self):
        # poly_det answers a 0 x 0 grid itself; the engine must agree
        assert modular.det([]) == ONE == int_det([])

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
               [ONE, q + -ONE, ONE],
               [ZERO, ONE, q + const(-2)]]
        assert poly_det(mat) == det_by_expansion(mat)
        swap = [[q, ONE], [ONE, q]]  # the pivot q is zero at q = 0
        assert poly_det(swap) == IntPoly([-1, 0, 1])

    def test_degree_bound_not_attained(self):
        q = IntPoly([0, 1])
        assert poly_det([[q, ONE], [q * q, q]]) == ZERO
        assert poly_det([[ZERO, ZERO], [q, ONE]]) == ZERO
        assert poly_det([[q, q + ONE], [q, q]]) == -q

    def test_certificate_failure_raises(self, monkeypatch):
        q = IntPoly([0, 1])
        big = 2 ** 60  # det = big (1 + q) + q: 61 bits against a 121-bit bound
        assert_raises_at_the_bound(monkeypatch, [[q, ONE], [ONE, q]])
        early = assert_raises_at_the_bound(
            monkeypatch, [[const(big) + q, const(big)], [const(big), const(big + 1)]])
        assert early.error_bits is not None and early.primes < early.bound

    def test_certificate_failure_raises_on_graded_path(self, monkeypatch):
        q, q2 = IntPoly([0, 1]), IntPoly([0, 0, 1])
        big = const(2 ** 60)
        for mat in ([[ONE, q], [q, ONE]],      # s = (0, 1)
                    [[ONE, q2], [q2, ONE]],   # s = (0, 0)
                    [[big + q2, big], [big, big + ONE]]):
            assert graded(mat)
            assert_raises_at_the_bound(monkeypatch, mat)

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
                    [ZERO, ZERO, q2 + -ONE]]
        assert graded(lopsided)
        assert poly_det(lopsided) == det_by_expansion(lopsided)
        order = polyring.band_order(3, [(0, 0), (0, 2), (1, 0), (1, 1), (2, 2)])
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

    c is the palindrome degree modular.det passes to _modular_det (None
    without weights); an engine call on a constant matrix comes from
    int_det's fallback, where c is 0 with one point, and is not listed.  The point counts are those of
    each prime: the points whose det a batched elimination gave, plus those
    the engine eliminated plain (the certificate's eliminations, modulo a
    61-bit prime, are not counted).
    """
    cs, points = [], Counter()
    engine, batch = modular._modular_det, modular._batch_det_mod
    eliminate = modular._eliminate_mod

    def spy_engine(rows, shift, c, certificate):
        if any(len(e.coeffs) > 1 for row in rows for e in row):
            cs.append(c)
        return engine(rows, shift, c, certificate)

    def spy_batch(a, p):
        det, marked = batch(a, p)
        points[p] += int((~marked).sum())
        return det, marked

    def spy_plain(rows, m):
        if m < 2 ** 60:
            points[m] += 1
        return eliminate(rows, m)
    with mock.patch.object(modular, "_modular_det", spy_engine), \
            mock.patch.object(modular, "_batch_det_mod", spy_batch), \
            mock.patch.object(modular, "_eliminate_mod", spy_plain):
        return poly_det(rows), cs, set(points.values())


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
            if arr is not None and len(arr.compile().matroid().bases) == comb(n, r):
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
        batch = modular._batch_det_mod

        def spy_batch(a, p):
            used.append(p)
            return batch(a, p)
        monkeypatch.setattr(modular, "_batch_det_mod", spy_batch)
        monkeypatch.setattr(modular, "_primes_below",
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
        m.setattr(modular, "_primes_below", capture)
        with pytest.raises(Stop):
            modular._modular_det(rows, 0, None, None)
    return next(modular._primes_below(tops[0]))


def points_last(a):
    """a with the same shape, laid out in memory as _Evaluator lays it out."""
    return np.ascontiguousarray(a.transpose(1, 2, 0)).transpose(2, 0, 1)


class TestWordKernel:
    """The word-size primes, batch inversion and evaluation, against Python
    ints."""

    def test_word_bound_of_the_first_prime(self, monkeypatch):
        for n in (1, 2, 9, 84, 300):
            for width in (1, 2, 6, 64, 500):
                p = first_prime(monkeypatch, n, width)
                assert (max(n, width) + 1) * (p - 1) ** 2 < 2 ** 63
                assert p > 2 ** 26

    def test_primes_are_searched_once(self, monkeypatch):
        top = 10 ** 6 + 1
        expected = [p for p in range(top - 2, 2, -2)
                    if all(p % d for d in range(3, isqrt(p) + 1, 2))][:30]
        tested = Counter()
        is_prime = modular._is_prime

        def spy(p):
            tested[p] += 1
            return is_prime(p)
        monkeypatch.setattr(modular, "_PRIMES", {})
        monkeypatch.setattr(modular, "_is_prime", spy)
        assert list(islice(modular._primes_below(top), 10)) == expected[:10]
        assert min(tested) == expected[9]  # the search stops at the last prime taken
        first, second = modular._primes_below(top), modular._primes_below(top)
        assert [next(g) for _ in range(30) for g in (first, second)] == [
            p for p in expected for _ in range(2)]
        assert list(islice(modular._primes_below(top), 30)) == expected
        assert set(tested.values()) == {1} and min(tested) == expected[-1]
        assert list(modular._primes_below(12)) == [11, 7, 5, 3]
        assert list(modular._primes_below(11)) == [7, 5, 3]
        assert list(modular._primes_below(12)) == [11, 7, 5, 3]

    def test_is_prime_beyond_the_word_primes(self):
        # 3215031751 = 151 * 751 * 28351 is a strong pseudoprime to the
        # bases 2, 3, 5 and 7, which alone decide only p < 3.2e9
        assert 3215031751 == 151 * 751 * 28351
        assert not modular._is_prime(3215031751)
        assert modular._is_prime(2 ** 61 - 1)
        assert not modular._is_prime((2 ** 61 - 1) * (2 ** 31 - 1))
        top = 10 ** 5
        sieve = bytearray([1]) * top
        sieve[:2] = b"\0\0"
        for i in range(2, isqrt(top) + 1):
            if sieve[i]:
                sieve[i * i::i] = bytes(len(range(i * i, top, i)))
        assert [p for p in range(top) if modular._is_prime(p)] == [
            p for p in range(top) if sieve[p]]

    def test_oversized_prime_raises(self, monkeypatch):
        """The kernel needs n (p - 1)**2 and the evaluator width (p - 1)**2
        to fit in an int64; the first prime past either limit raises."""
        for n in (3, 84):
            limit = isqrt((2 ** 63 - 1) // n) + 1  # the least p - 1 past it
            p = next(x for x in range(limit + 1, limit + 200) if modular._is_prime(x))
            ok = first_prime(monkeypatch, n, 1)
            a = np.zeros((1, n, n), dtype=np.int64)
            assert modular._batch_det_mod(a.copy(), ok)[0].tolist() == [0]
            with pytest.raises(ValueError, match="overflows"):
                modular._batch_det_mod(a.copy(), p)
            rows = [[IntPoly([1] * n) if i == j else ZERO for j in range(2)]
                    for i in range(2)]  # width n
            evaluate = modular._Evaluator(rows, 2)
            assert evaluate(ok).shape == (2, 2, 2)
            with pytest.raises(ValueError, match="overflows"):
                evaluate(p)

    @given(st.lists(st.one_of(st.just(0), st.integers(1, 2 ** 31 - 2)), max_size=20))
    def test_batch_inverse_with_zeros(self, values):
        p = 2 ** 31 - 1
        inv = modular._batch_inverse(np.array(values, dtype=np.int64), p).tolist()
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
        batch = modular._Evaluator(rows, n_pts)(p)
        for e in range(n_pts):
            t = pow(2, e, p)
            assert batch[e].tolist() == [  # the upper triangle, 0 below it
                [modular._eval_mod(x.coeffs, t, p) if j >= i else 0 for j, x in enumerate(row)]
                for i, row in enumerate(rows)]


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
    expected = [modular._eliminate_mod([[int(x) for x in row] for row in m], p)
                for m in a]
    upper = np.triu(a)  # the symmetric kernel reads nothing below the diagonal
    for batch in (upper.copy(), points_last(upper)):
        det, marked = modular._batch_det_mod(batch, p)
        assert det.tolist() == expected and not marked.any()


def spied_det(rows):
    """poly_det(rows), and per batched elimination its prime and the points
    it marked.

    It asserts that plain elimination ran at exactly the marked points:
    each prime's plain matrices are those of its batches at their marks.
    The certificate's eliminations, modulo a 61-bit prime, are left out.
    """
    calls, plain, marked_matrices = [], defaultdict(list), defaultdict(list)
    batch, eliminate = modular._batch_det_mod, modular._eliminate_mod

    def spy_batch(a, p):
        whole = a + np.triu(a, 1).transpose(0, 2, 1)  # a holds the upper triangle
        det, marked = batch(a, p)
        calls.append((p, marked.tolist()))
        if marked.any():
            marked_matrices[p] += whole[marked].tolist()
        return det, marked

    def spy_plain(rows, m):
        if m < 2 ** 60:
            plain[m].append([list(row) for row in rows])
        return eliminate(rows, m)
    with mock.patch.object(modular, "_batch_det_mod", spy_batch), \
            mock.patch.object(modular, "_eliminate_mod", spy_plain):
        det = poly_det(rows)
    assert plain == marked_matrices
    return det, calls


def symmetric_matrices(entry, max_n):
    """Square matrices of entries drawn from entry, symmetric by construction."""
    return st.integers(1, max_n).flatmap(lambda n: st.lists(
        entry, min_size=n * n, max_size=n * n).map(
            lambda v: [[v[min(i, j) * n + max(i, j)] for j in range(n)]
                       for i in range(n)]))


class TestSymmetricElimination:
    """Diagonal pivots on the upper triangle, and plain elimination at the
    points where one vanishes."""

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
        det, marked = modular._batch_det_mod(points_last(a), p)
        assert marked.tolist() == [False, True, False]
        assert det[[0, 2]].tolist() == [5, 1]
        swap = np.array([[[0, 1], [1, 0]]], dtype=np.int64)
        assert modular._batch_det_mod(swap.copy(), p)[1].tolist() == [True]

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
        assert calls and all(marked == [False, False, True] for _, marked in calls)

    def test_zero_diagonal_falls_back(self):
        q = IntPoly([0, 1])
        det, calls = spied_det([[ZERO, q], [q, ZERO]])
        assert det == IntPoly([0, 0, -1])
        assert calls and all(all(marked) for _, marked in calls)

    def test_points_in_chunks(self, monkeypatch):
        q4 = IntPoly([-4, 1])
        rows = [[q4, ONE, ZERO], [ONE, q4, q4], [ZERO, q4, const(3)]]
        whole, whole_calls = spied_det(rows)
        monkeypatch.setattr(modular, "_BATCH_BYTES", 1)  # a point per batch
        det, calls = spied_det(rows)
        assert det == whole == det_by_expansion(rows)
        assert len(calls) > len(whole_calls)
        assert {len(marked) for _, marked in calls} == {1}
        for p, marked in whole_calls:  # t = 4 is the third point
            assert marked[2] and sum(marked) == 1
            assert [m for q, ms in calls if q == p for m in ms] == marked

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
            swapped = [rows[1], rows[0]] + rows[2:]  # not symmetric: modular
            assert int_det(rows) == -int_det(swapped) != 0

    def test_commands_take_the_symmetric_path(self):
        """On the fixtures and a `dense`-shaped arrangement, no diagonal pivot
        of S or S_q vanishes: no point is marked or eliminated plain."""
        from chamberforms.cli import load_instance
        from chamberforms.forms import build_S, build_Sq
        from conftest import FIXTURE_DIR, FIXTURE_NAMES
        oms = [load_instance(str(FIXTURE_DIR / name)).om for name in FIXTURE_NAMES]
        oms.append(uniform_arrangement(random.Random(1), 3, 9).compile())
        assert len(oms) == 7 and len(oms[-1].bounded_topes()) == comb(8, 3)
        for om in oms:
            _, calls = spied_det(build_Sq(om).matrix)
            assert calls and not any(any(marked) for _, marked in calls)
            s = [[e[0] for e in row] for row in build_S(om).matrix]
            assert polyring._symmetric_bareiss(s) is not None


def sparse_symmetric(rng, n, density):
    """A seeded sparse symmetric integer matrix whose diagonal strictly
    dominates each row, so that no diagonal pivot vanishes in any order."""
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < density:
                rows[i][j] = rows[j][i] = rng.randint(-9, 9)
    for i, row in enumerate(rows):
        row[i] = rng.choice((-1, 1)) * (1 + sum(map(abs, row)) + rng.randint(0, 5))
    return rows


def block_diagonal(*blocks):
    n = sum(map(len, blocks))
    rows, at = [[0] * n for _ in range(n)], 0
    for block in blocks:
        for i, row in enumerate(block):
            rows[at + i][at:at + len(row)] = row
        at += len(block)
    return rows


class TestBandBareiss:
    """int_det's Bareiss in band order, rows catching up lazily, against
    elimination over Q."""

    @pytest.mark.parametrize("seed", range(4))
    def test_sparse_matches_fractions(self, seed):
        rng = random.Random(seed)
        for n in (1, 2, 3, 7, 16, 29, 40):
            rows = sparse_symmetric(rng, n, rng.choice((0.03, 0.1, 0.3, 0.8)))
            assert polyring._symmetric_bareiss(rows) == fraction_det(rows)
            assert int_det(rows) == fraction_det(rows)

    def test_components_sit_out_each_others_steps(self):
        """Band order keeps each connected component together, so the rows
        of the later blocks stay untouched through every step of the
        earlier ones and catch up by the product of their pivots."""
        rng = random.Random(21)
        blocks = [sparse_symmetric(rng, n, 0.5) for n in (9, 1, 14, 6)]
        rows = block_diagonal(*blocks)
        expected = fraction_det(rows)
        assert expected == prod(fraction_det(b) for b in blocks)
        assert polyring._symmetric_bareiss(rows) == expected

    def test_scrambled_order_catches_up_over_gaps(self, monkeypatch):
        """In a random order most rows sit out several steps between two
        that touch them; the result is the same."""
        rng = random.Random(5)
        for n in (12, 25, 40):
            rows = sparse_symmetric(rng, n, 0.12)
            expected = fraction_det(rows)
            monkeypatch.setattr(polyring, "band_order",
                                lambda n, pattern: rng.sample(range(n), n))
            assert polyring._symmetric_bareiss(rows) == expected
            monkeypatch.undo()


CERT_PRIME = 2 ** 61 - 1


def symmetric_residues(max_n):
    """(grid, order): a symmetric grid of residues mod CERT_PRIME, with many
    zeros and small values, and a permutation of its indices."""
    entry = st.one_of(st.just(0), st.integers(0, 3),
                      st.integers(0, CERT_PRIME - 1))
    return symmetric_matrices(entry, max_n).flatmap(lambda rows: st.tuples(
        st.just(rows), st.permutations(range(len(rows)))))


class TestCertificateElimination:
    """The certificate's diagonal-pivot elimination in band order, and its
    fallback to plain elimination."""

    @given(symmetric_residues(8))
    @example(([[0, 1], [1, 0]], [0, 1]))
    @example(([[1, 1, 0], [1, 1, 1], [0, 1, 1]], [0, 1, 2]))
    @settings(deadline=None, max_examples=150)
    def test_matches_plain_elimination(self, drawn):
        rows, order = drawn
        before = [list(row) for row in rows]
        det = modular._symmetric_eliminate_mod(rows, order, CERT_PRIME)
        permuted = [[rows[i][j] for j in order] for i in order]
        if det is None:  # only where a leading principal minor vanishes
            assert any(modular._eliminate_mod([row[:k] for row in permuted[:k]],
                                              CERT_PRIME) == 0
                       for k in range(1, len(rows) + 1))
        else:
            assert det == modular._eliminate_mod(rows, CERT_PRIME)
        assert rows == before

    def test_root_of_a_pivot_falls_back_to_the_true_det(self, monkeypatch):
        """With x a root of the first diagonal entry, the symmetric pass
        gives up and plain elimination of the same values gives the true
        det -3 at x = 4, not 0."""
        q4 = IntPoly([-4, 1])
        rows = [[q4, ONE, ZERO], [ONE, q4, ONE], [ZERO, ONE, const(3)]]
        g = list(det_by_expansion(rows).coeffs)
        plain = []
        eliminate = modular._eliminate_mod

        def spy(values, m):
            plain.append(values)
            return eliminate(values, m)
        monkeypatch.setattr(modular, "_eliminate_mod", spy)
        monkeypatch.setattr(modular.secrets, "randbelow", lambda m: 4)
        certificate = modular._Certificate(rows, 1, [0, 1, 2])
        assert certificate.passes(g)
        assert plain == [[[0, 1, 0], [1, 0, 1], [0, 1, 3]]]
        assert poly_eval(det_by_expansion(rows), 4) == -3
        assert not certificate.passes([g[0] + 1] + g[1:])

    def test_check_never_eliminates_plain(self, tmp_path, monkeypatch):
        """`check` on the six fixtures and a `dense`-shaped arrangement:
        no engine point and no certificate takes plain elimination."""
        from chamberforms import cli
        from conftest import FIXTURE_DIR, FIXTURE_NAMES
        dense = tmp_path / "dense-r3-n9.json"
        dense.write_text(json.dumps(
            uniform_arrangement(random.Random(1), 3, 9).to_json()))
        paths = [FIXTURE_DIR / name for name in FIXTURE_NAMES] + [dense]
        assert len(paths) == 7
        calls = []
        eliminate = modular._eliminate_mod

        def spy(rows, m):
            calls.append(m)
            return eliminate(rows, m)
        monkeypatch.setattr(modular, "_eliminate_mod", spy)
        for path in paths:
            assert cli.main(["check", "--input", str(path),
                             "--out", str(tmp_path / "report.json")]) == 0
        assert calls == []


def per_entry_grading(n, entries):
    edges = []
    for i, j, c in entries:
        odd = any(c[1::2])
        if odd and any(c[::2]):
            return None
        edges.append((i, j, int(odd)))
    return modular._potentials(n, edges, lambda w, x: w ^ x)


def per_entry_palindrome_weights(n, entries):
    edges = []
    for i, j, c in entries:
        body = c[next(k for k, x in enumerate(c) if x):]
        if body != body[::-1]:
            return None
        edges.append((i, n + j, 2 * len(c) - len(body) - 1))
    return modular._potentials(2 * n, edges, lambda w, x: w - x)


def per_entry_bound_sq(rows):
    out = 1
    for row in rows:
        out *= sum(sum(abs(c) for c in e.coeffs) ** 2 for e in row)
    return out


def repeated(rows, k):
    """rows with each entry blown up into a k x k block of copies."""
    return [[rows[i // k][j // k] for j in range(k * len(rows))]
            for i in range(k * len(rows))]


def nonzero_entries(rows):
    return [(i, j, e.coeffs) for i, row in enumerate(rows)
            for j, e in enumerate(row) if e.coeffs]


class TestDistinctEntries:
    """Reading each distinct entry once gives what reading every entry gave."""

    def assert_reads_match(self, rows):
        n, entries = len(rows), nonzero_entries(rows)
        assert modular._grading(n, entries) == per_entry_grading(n, entries)
        assert (modular._palindrome_weights(n, entries)
                == per_entry_palindrome_weights(n, entries))
        assert modular._coefficient_bound_sq(rows) == per_entry_bound_sq(rows)

    @given(st.one_of(graded_matrices(3), palindromic_matrices(3)))
    @settings(deadline=None, max_examples=80)
    def test_bound_grading_and_weights(self, rows):
        self.assert_reads_match(repeated(rows, 2))

    def test_on_the_fixtures_s_q(self):
        from chamberforms.cli import load_instance
        from chamberforms.forms import build_Sq
        from conftest import FIXTURE_DIR, FIXTURE_NAMES
        for name in FIXTURE_NAMES:
            rows = build_Sq(load_instance(str(FIXTURE_DIR / name)).om).matrix
            entries = nonzero_entries(rows)
            assert len({c for _, _, c in entries}) < len(entries)
            assert modular._grading(len(rows), entries) is not None
            assert modular._palindrome_weights(len(rows), entries) is not None
            self.assert_reads_match(rows)

    def test_evaluator_with_repeated_entries(self, monkeypatch):
        rng = random.Random(8)
        pool = [ZERO] + [IntPoly([rng.randrange(-2 ** 70, 2 ** 70)
                                  for _ in range(rng.randrange(1, 5))])
                         for _ in range(4)]
        small = [[rng.choice(pool) for _ in range(3)] for _ in range(3)]
        small = [[small[min(i, j)][max(i, j)] for j in range(3)] for i in range(3)]
        rows = repeated(small, 3)
        n, n_pts = len(rows), 5
        p = first_prime(monkeypatch, n, 5)
        evaluate = modular._Evaluator(rows, n_pts)
        assert len(evaluate.coeffs[0]) < len(evaluate.rows)
        batch = evaluate(p)
        for e in range(n_pts):
            t = pow(2, e, p)
            assert batch[e].tolist() == [
                [modular._eval_mod(x.coeffs, t, p) if j >= i else 0
                 for j, x in enumerate(row)] for i, row in enumerate(rows)]


def test_modular_is_entered_only_through_det():
    """No module of chamberforms imports a name from modular but det; only
    the cli imports the module itself, to load it at dispatch."""
    src = Path(modular.__file__).parent
    imported = defaultdict(set)
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.ImportFrom):
                continue
            names = {a.name for a in node.names}
            if node.module in ("modular", "chamberforms.modular"):
                imported[path.name] |= names
            elif node.module in (None, "chamberforms") and "modular" in names:
                imported[path.name].add("<module>")
    assert imported == {"polyring.py": {"det"}, "cli.py": {"<module>"}}


def test_private_names_cross_two_module_boundaries():
    """The only underscore names a module of chamberforms imports from
    another: the vertex-star fillings that build_y_matrix walks, and the
    symmetry test that the engine shares with int_det."""
    src = Path(modular.__file__).parent
    crossings = set()
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.ImportFrom) or not node.module:
                continue
            module = node.module.removeprefix("chamberforms.")
            if node.level or module != node.module:
                crossings |= {(path.stem, module, a.name) for a in node.names
                              if a.name.startswith("_")}
    assert crossings == {("flagspace", "oriented_matroid", "_fillings"),
                         ("modular", "polyring", "_is_symmetric")}


class TestShapeAndSerialization:
    def test_non_square_rejected(self):
        q = IntPoly([0, 1])
        for rows in ([[ONE, ZERO]], [[ONE, q], [q]], [[q], [ONE]]):
            with pytest.raises(ValueError, match="square"):
                poly_det(rows)

    def test_serialization_form(self):
        assert IntPoly([1, 0, -2]).coeff_strings() == ["1", "0", "-2"]
        assert ZERO.coeff_strings() == ["0"]


def test_poly_pow():
    assert poly_pow(q_integer(2), 3) == q_integer(2) * q_integer(2) * q_integer(2)
    assert poly_pow(q_integer(5), 0) == ONE
    for p in (q_integer(4), IntPoly((3, -1, 0, 2)), ZERO):
        product = ONE  # the e-fold product p * ... * p
        for e in range(37):
            if e in (0, 1, 2, 7, 36):
                assert poly_pow(p, e) == product
            product = product * p


@given(st.lists(st.integers(-300, 300), max_size=6), st.integers(0, 9))
@settings(deadline=None, max_examples=150)
def test_poly_pow_is_the_repeated_product(coeffs, e):
    # a monomial's power has a coefficient of size s**e, the slot bound
    p, product = IntPoly(coeffs), ONE
    for _ in range(e):
        product = product * p
    assert poly_pow(p, e) == product


square_int_matrices = st.integers(0, 5).flatmap(lambda n: st.lists(
    st.lists(st.integers(-9, 9), min_size=n, max_size=n), min_size=n, max_size=n))


class TestDetMod:
    @given(square_int_matrices, st.sampled_from([2, 3, 7, (1 << 61) - 1]))
    @settings(deadline=None, max_examples=150)
    def test_equals_the_exact_det_mod_p(self, rows, p):
        exact = det_by_expansion([[IntPoly([x]) for x in row] for row in rows])[0]
        assert modular._eliminate_mod(rows, p) == exact % p

    def test_singular_mod_2_only(self):
        rows = [[1, 1], [1, -1]]  # det -2
        assert modular._eliminate_mod(rows, 2) == 0
        assert modular._eliminate_mod(rows, 3) == 1
        assert rows == [[1, 1], [1, -1]]  # the input is left as it was


class TestEarlyStop:
    """The engine stops once its CRT lift repeats and the certificate at a
    random point confirms it; otherwise it runs to the coefficient bound."""

    def test_stable_wrong_lift_runs_to_the_bound(self, monkeypatch):
        # [[a + q]] with a = p1 p2 + 5: modulo p1 and then p1 p2 the lift is
        # 5 + q, so it repeats at the second prime.  det - lift = p1 p2 has
        # only word-size prime factors, so no 61-bit prime divides it and the
        # certificate fails at every point.  The bound allows three primes.
        p1 = first_prime(monkeypatch, 1, 2)
        p2 = next(islice(modular._primes_below(p1 + 1), 1, None))
        a = p1 * p2 + 5
        det, cs, points = traced_det([[IntPoly([a, 1])]])
        assert det == IntPoly([a, 1])
        assert det.method == polyring.Method(None, 3, 3)
        assert cs == [None] and points == {2}

    def test_fixtures_stop_early(self):
        from chamberforms.cli import load_instance
        from chamberforms.forms import build_Sq
        from conftest import FIXTURE_DIR
        for name, primes, bound in (("vamos.json", 3, 5),
                                    ("cyclic-r3-n7.json", 2, 3)):
            om = load_instance(str(FIXTURE_DIR / name)).om
            first, second = (poly_det(build_Sq(om).matrix) for _ in range(2))
            assert first == second and first.method == second.method
            assert first.method.primes == primes and first.method.bound == bound
            assert 45 <= first.method.error_bits < 60

    def test_identity_carries_the_early_stop_method(self, monkeypatch):
        """certify_det of S_q against its determinant: the Method of the
        engine's early stop with no prime used, and no engine point.  Where
        the bound allows under three primes it returns None unprepared."""
        from chamberforms.cli import load_instance
        from chamberforms.forms import build_Sq
        from conftest import FIXTURE_DIR
        for name in ("vamos.json", "cyclic-r3-n7.json"):
            sq = build_Sq(load_instance(str(FIXTURE_DIR / name)).om).matrix
            det = poly_det(sq)
            with monkeypatch.context() as m:
                m.setattr(modular, "_batch_det_mod", None)
                certified = polyring.certify_det(sq, det)
            assert certified == det
            assert certified.method == det.method._replace(primes=0)
            assert polyring.certify_det(sq, det + ONE) is None
        sq = build_Sq(load_instance(str(FIXTURE_DIR / "line-n5.json")).om).matrix
        det = poly_det(sq)
        monkeypatch.setattr(modular, "band_order", None)
        assert polyring.certify_det(sq, det) is None

    def test_constant_grid_runs_to_the_bound(self):
        big = 2 ** 60  # det = big, against a bound of about 2 big**2
        rows = [[const(big), const(big)], [const(big), const(big + 1)]]
        det = modular.det(rows)
        assert det == const(big)
        assert det.method.error_bits is None
        assert det.method.primes == det.method.bound > 3
        assert int_det([[big, big], [big, big + 1]]) == big

    def test_results_off_the_engine_are_exact(self):
        q = IntPoly([0, 1])
        for det in (poly_det([[const(3), ONE], [ONE, const(2)]]), poly_det([]),
                    modular.det([]), poly_det([[q, ZERO], [ZERO, ZERO]])):
            assert det.method.error_bits is None
            assert det.method.primes == det.method.bound

    @given(st.integers(1, 10 ** 6), st.integers(1, 10 ** 4), st.integers(1, 2))
    def test_error_bits_bound_eps(self, n_coeffs, h_bits, power):
        """floor(-log2 eps) or one less, for eps = deg / 2**60 +
        ceil(log2(2H) / 60) / 2**54, deg = power (n_coeffs - 1)."""
        bound_sq = 1 << (2 * h_bits)  # H = 2**h_bits
        bits = modular._Certificate(None, power, None).error_bits(n_coeffs + 1, bound_sq)
        eps = (Fraction(power * n_coeffs, 2 ** 60)
               + Fraction(-(-(h_bits + 1) // 60), 2 ** 54))
        assert Fraction(1, 2 ** (bits + 2)) < eps <= Fraction(1, 2 ** bits)

    def test_certificate_prime_is_drawn_once_and_not_at_import(self):
        code = ("from chamberforms import modular; "
                "print(modular._certificate_prime.cache_info().currsize)")
        env = dict(os.environ, PYTHONPATH=str(Path(modular.__file__).parent.parent))
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "0"
        m = modular._certificate_prime()
        assert m == modular._certificate_prime()
        assert 2 ** 60 < m < 2 ** 61 and modular._is_prime(m)
