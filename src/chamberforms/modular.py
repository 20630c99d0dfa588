"""Word-size modular engine for determinants over Z[q].

This is the one module of chamberforms that imports numpy, and det is its
one entry point: no other module reads its private names.  polyring imports
det inside poly_det, int_det and certify_det, and the cli imports the
module when it dispatches a command that takes a determinant over Z[q], so
a process that takes none never loads numpy.

Determinants over Z[q] come from one modular engine (Abbott, Bronstein and
Mulders, ISSAC 1999), preceded by two exact transforms that keep the
determinant and two passes that read its symmetries:

- Band order: rows and columns are permuted alike by reverse Cuthill-McKee
  on the symmetrised nonzero pattern (polyring.band_order).  A symmetric
  permutation P M P^T has det(P)^2 det(M) = det(M), and each elimination
  step updates only the span of nonzero rows and columns, which a narrow
  band keeps small.
- Grading: when a 0/1 vector s gives every nonzero coefficient of entry
  (i, j) an exponent of parity s_i + s_j, as it does in S_q, the engine runs
  on N(t) with N(q^2) = D M D, D = diag(q^s_i).  Then det N(t) =
  t^(sum s) g(t) and det M(q) = g(q^2), at about half the evaluation points.
  Without such an s the engine runs on the band-ordered M, with t = q.
- Palindrome: when integer row and column weights a, b give every nonzero
  entry t^(a_i + b_j) N_ij(1/t) = N_ij(t), as S_q's entries (-q)^d h(q^2)
  do, then t^c g(1/t) = g(t) with c = sum a + sum b - 2 sum s.  Each value
  g(t) then also gives g(1/t) = t^-c g(t), again about half the points.
- Symmetry: both transforms act alike on rows and columns, so N is
  symmetric exactly when M is, as S and S_q are.  The engine evaluates
  only the upper triangle of N, each distinct entry once per point, and
  eliminates it with diagonal pivots, reading and updating only the upper
  triangle.  S_q(0) = I, so every leading principal minor of S_q is a
  nonzero polynomial and a diagonal pivot vanishes only at isolated
  points.  Such a point, and every point of a matrix that is not
  symmetric, takes plain elimination instead.  int_det eliminates a
  symmetric integer matrix, such as S, by Bareiss on its upper triangle
  in band order, and hands any other to the engine.

The engine interpolates g itself from det N(t) / t^(sum s) at powers of 2
with consecutive exponents.  It evaluates at t = 2^0 .. 2^(K-1).  On a
palindrome K = ceil((c + 2) / 2), and the c + 1 nodes are 2^-(K-1) ..
2^(c-K+1); otherwise K = D - sum s + 1, where the row-maximum degrees of N
sum to D, and the nodes are the evaluation points.  The primes lie below
sqrt((2^63 - 1) / (m + 1)), m the larger of n and the widest entry of N, so
that every sum of m + 1 products of residues fits in an int64: the numpy
passes reduce mod p only where a product could overflow.  Modulo each prime
the K determinants come from int64 batches of eliminations, as many points
at a time as a fixed byte budget allows, and Newton interpolation on the
geometric nodes recovers g mod p.  A prime where 2 has order below the
coefficient count would repeat a node and is skipped.
The primes are taken in a fixed order, and the coefficient bound H =
prod_i sqrt(sum_j ||M_ij||_1^2) (Hadamard on the unit circle with Cauchy's
estimate) allows as many as it takes for their product P to exceed 2H; the
symmetric CRT lift is then the exact g.  The engine stops sooner when it can
(the early termination of Abbott, Bronstein and Mulders): from the second
prime on it compares the lift with the previous prime's, and when the two
agree it runs the certificate, the determinant of the untransformed matrix
at a random point x modulo a random 61-bit prime Q, against the lift's
value at x.  The certificate evaluates each distinct entry at x once and
eliminates on Python ints: a symmetric matrix with diagonal pivots in the
band order, where each step updates only the pairs of its nonzero
columns, and any other matrix, or one whose pivot vanishes at x, by plain
elimination of the same values.  Q is drawn once per process,
at the first certificate.  If the certificate passes, the lift is returned,
labelled certified.  If it fails, the engine runs to the bound, where the
certificate runs again and a failure raises CertificateError; so only one
certificate can stop the engine early.  When g needs one point per prime,
as a constant grid does, a prime costs about what the certificate costs,
and the engine always runs to the bound.

A certified result is wrong with probability at most
eps = deg / 2**60 + ceil(log2(2H) / 60) / 2**54, deg the degree bound of
det M in q.  Let D = det M - lift.  If D != 0, some coefficient D_j is
nonzero, and |D_j| <= 2H, since the engine stopped before P > 2H.  A wrong
lift passes only when Q divides D_j, which at most ceil(log2(2H) / 60) of
the more than 2**54 primes in [2**60, 2**61) do (Rosser and Schoenfeld), or
when x is a root of D mod Q, with probability at most deg / 2**60 (Schwartz,
JACM 27, 1980).  eps depends only on the matrix, and the result's Method
carries floor(-log2 eps).

Given an expected determinant E, as forms.verify passes the right-hand side
of the q-identity, det reconstructs nothing: it puts E to the certificate
in place of a lift.  A gate comes first, before band order or grading: when
the two largest primes below the ceiling for m = n have a product above 2H,
the bound may allow fewer than three primes, the engine would run to its
bound, its result would be exact at about the cost of the certificate, and
det returns None.  Otherwise det prepares the matrix once and returns None
without a draw when E cannot be det M: its degree exceeds the engine's
degree bound, a coefficient exceeds H, or M is graded and E has an odd
exponent.  One certificate, on the same rows in the same band order with
the same Q, then decides: a pass returns E with the Method of an early
stop, with 0 primes used and the primes the bound allows, and a failure
returns None, so the caller takes the engine, which supplies the witness.
eps holds verbatim: D = det M - E has degree within the bound, and |D_j| <=
|det_j| + |E_j| <= 2H, the two facts the argument above reads.
"""

from __future__ import annotations

import secrets
from functools import cache
from itertools import islice
from math import isqrt
from typing import NamedTuple, Sequence

import numpy as np

from .polyring import (EXACT, ZERO, CertificateError, Determinant, IntPoly,
                       Method, _is_symmetric, band_order)

# The Miller-Rabin bases of _is_prime: the twelve primes up to 37.  The
# least strong pseudoprime to all of them is about 3.18e23 (Sorenson and
# Webster, Math. Comp. 86, 2017), so they decide every 61-bit prime.
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

_INT64_MAX = 2 ** 63 - 1


def _is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin for every p < 3.1e23."""
    if p < 2:
        return False
    for a in _BASES:
        if p % a == 0:
            return p == a
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _BASES:
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


# The odd primes found below each top so far, in descending order.
_PRIMES: dict[int, list[int]] = {}


def _primes_below(top: int):
    """Odd primes below top in descending order; _is_prime needs top < 3.1e23.

    Each top's primes are searched for once per process: the list found so
    far is read first, and the search resumes below its last prime only
    when a caller asks for more.
    """
    found = _PRIMES.setdefault(top, [])
    k = 0
    while True:
        if k == len(found):
            p = found[-1] - 2 if found else top - 1 - top % 2
            while p > 2 and not _is_prime(p):
                p -= 2
            if p <= 2:
                return
            found.append(p)
        yield found[k]
        k += 1


def _powers(r: int, count: int, p: int) -> np.ndarray:
    """r**0 .. r**(count - 1) mod p."""
    out = [1] * count
    for e in range(1, count):
        out[e] = out[e - 1] * r % p
    return np.array(out, dtype=np.int64)


def _batch_inverse(v: np.ndarray, p: int) -> np.ndarray:
    """Inverses mod p of the entries of v, with 0 where an entry is 0.

    Montgomery's trick: prefix products, in which a zero counts as 1, one
    inversion of the full product, and a backward pass that peels off one
    factor at a time.
    """
    values = v.tolist()
    prefix = [1] * len(values)
    acc = 1
    for i, x in enumerate(values):
        prefix[i] = acc
        if x:
            acc = acc * x % p
    inv = pow(acc, -1, p)
    out = [0] * len(values)
    for i in range(len(values) - 1, -1, -1):
        x = values[i]
        if x:
            out[i] = inv * prefix[i] % p
            inv = inv * x % p
    return np.array(out, dtype=np.int64)


# One evaluated batch of points and its entry values take at most about
# this many bytes; a matrix with more points is evaluated and eliminated in
# chunks of points, one after the other.
_BATCH_BYTES = 1 << 26


class _Evaluator:
    """Evaluates the upper triangle of a symmetric Z[t] matrix at
    t = 2**0 .. 2**(n_points - 1) modulo a prime.

    Only the nonzero entries (i, j) with j >= i are computed, and each
    distinct coefficient tuple among them once, so sparse matrices whose
    entries repeat, as S_q's do, cost little: one int64 product of the
    node-power table (points x width) with the coefficient table (width x
    distinct tuples), reduced once, then scattered to the entries through
    an index array.  Each sum has at most width products of residues, so
    the prime must keep width (p - 1)**2 in an int64.  Below the diagonal
    each matrix is 0, and _batch_det_mod reads nothing there.  The points
    are evaluated in chunks of step points, starting at lo, whose
    (points, n, n) batch and entry values fit in _BATCH_BYTES; every chunk
    refills one buffer, allocated once.
    """

    def __init__(self, rows, n_points: int):
        n = len(rows)
        upper = [(i, j, row[j].coeffs) for i, row in enumerate(rows)
                 for j in range(i, n) if row[j].coeffs]
        distinct: dict[tuple[int, ...], int] = {}
        self.rows = np.array([i for i, _, _ in upper], dtype=np.intp)
        self.cols = np.array([j for _, j, _ in upper], dtype=np.intp)
        # the m-th nonzero entry holds the which[m]-th distinct tuple
        self.which = np.array([distinct.setdefault(c, len(distinct))
                               for _, _, c in upper], dtype=np.intp)
        self.width = max(map(len, distinct))
        # coeffs[k][d] is the coefficient of t**k in the d-th distinct tuple
        self.coeffs = [[c[k] if k < len(c) else 0 for c in distinct]
                       for k in range(self.width)]
        self.n_points = n_points
        per_point = 8 * (n * n + len(upper))
        self.step = max(1, min(n_points, _BATCH_BYTES // per_point))
        # (points, n, n), laid out points-last for _batch_det_mod
        self.batch = np.zeros((n, n, self.step), dtype=np.int64).transpose(2, 0, 1)

    def __call__(self, p: int, lo: int = 0) -> np.ndarray:
        """The batch of the points lo .. lo + step - 1, or up to the last.

        Raises ValueError when width (p - 1)**2 does not fit in an int64.
        """
        if self.width * (p - 1) ** 2 > _INT64_MAX:
            raise ValueError(f"prime {p} overflows an int64 sum of "
                             f"{self.width} products")
        count = min(self.step, self.n_points - lo)
        nodes = _powers(2, count, p) * pow(2, lo, p) % p
        table = np.empty((count, self.width), dtype=np.int64)
        table[:, 0] = 1
        for k in range(1, self.width):
            table[:, k] = table[:, k - 1] * nodes % p
        coeffs = np.array([[c % p for c in layer] for layer in self.coeffs],
                          dtype=np.int64)
        values = table @ coeffs
        batch = self.batch[:count]
        batch.fill(0)
        np.remainder(values, p, out=values)
        batch[:, self.rows, self.cols] = values[:, self.which]
        return batch


# The block update forms factor x pivot row in row chunks of at most this
# many elements, which bounds the temporary it allocates.
_CHUNK = 1 << 18


def _runs(idx: list[int]) -> list[list[int]]:
    """The maximal runs of consecutive integers in sorted idx, as [lo, hi)."""
    runs: list[list[int]] = []
    for i in idx:
        if runs and runs[-1][1] == i:
            runs[-1][1] = i + 1
        else:
            runs.append([i, i + 1])
    return runs


def _batch_det_mod(a: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """det mod p of each symmetric matrix in a (points, n, n) batch, and
    the mask of the points whose det it could not give; a is overwritten.

    Gaussian elimination over GF(p) with diagonal pivots, reading only the
    upper triangle.  The work runs on the (n, n, points) view of a, which
    is contiguous when a is laid out points-last, as _Evaluator lays it
    out.  Step k reduces row k from the diagonal and takes the diagonal
    entry as pivot.  The columns nz right of it that are nonzero at any
    point are, by symmetry, also the rows to update; nz splits into runs
    [lo, hi) of consecutive indices, and each run updates a[lo:hi, lo:end]
    with the factors a[k, lo:hi] / pivot, end the last of nz plus one.  The
    trailing matrix stays symmetric, so its upper triangle is all the next
    step needs; the entries of a run's block below the diagonal are updated
    but never read.  On banded matrices such as the line's S_q the runs
    are short.

    The pivots of all points are inverted together (_batch_inverse), which
    gives a zero pivot the factor 0: that point's matrix is left as it is
    and its det comes out 0.  The mask marks the points where a diagonal
    pivot before the last vanished; their true det needs pivoting, and the
    other points stay exact.

    Reduction is lazy.  Entries start in [0, p); step k reduces only the
    pivot row, and the block update subtracts products below p**2 with no
    remainder.  An entry is updated at most n - 1 times before it is
    reduced, so entries stay above -(n - 1) p**2: the prime must keep
    n (p - 1)**2 in an int64, and a ValueError says when it does not.
    """
    n_pts, n = a.shape[0], a.shape[1]
    if n * (p - 1) ** 2 > _INT64_MAX:
        raise ValueError(f"prime {p} overflows the int64 elimination of "
                         f"{n} x {n} matrices")
    a = a.transpose(1, 2, 0)
    det = np.ones(n_pts, dtype=np.int64)
    marked = np.zeros(n_pts, dtype=bool)
    for k in range(n):
        row = a[k, k:]
        np.remainder(row, p, out=row)
        pivot = row[0]
        det = det * pivot % p
        if k == n - 1:
            break
        marked |= pivot == 0
        cols = np.flatnonzero(row[1:].any(axis=1)) + k + 1
        if not cols.size:
            continue
        runs = _runs(cols.tolist())
        first, end = runs[0][0], cols[-1] + 1
        factor = a[k, first:runs[-1][1]] * _batch_inverse(pivot, p) % p
        for top, bottom in runs:
            pivot_row = a[k, top:end]
            step = max(1, _CHUNK // pivot_row.size)
            for lo in range(top, bottom, step):
                hi = min(lo + step, bottom)
                block = a[lo:hi, top:end]  # a view: the update happens in place
                block -= factor[lo - first:hi - first, None] * pivot_row
    return det, marked


def _eval_mod(coeffs: Sequence[int], x: int, m: int) -> int:
    """The polynomial with these coefficients, constant first, at x mod m."""
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % m
    return acc


def _eliminate_mod(rows: Sequence[Sequence[int]], m: int) -> int:
    """det mod a prime m of a square grid, by Gaussian elimination with row
    pivoting on Python ints; rows is left as it was."""
    a = [[x % m for x in row] for row in rows]
    n, det = len(a), 1
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k]), None)
        if piv is None:
            return 0
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            det = -det
        row_k = a[k]
        det = det * row_k[k] % m
        inv = pow(row_k[k], -1, m)
        for i in range(k + 1, n):
            f = a[i][k] * inv % m
            if f:
                a[i] = [(x - f * y) % m for x, y in zip(a[i], row_k)]
    return det % m


def _symmetric_eliminate_mod(rows: Sequence[Sequence[int]], order: Sequence[int],
                             m: int) -> int | None:
    """det mod a prime m of a symmetric grid of residues, or None.

    Gaussian elimination with diagonal pivots on the upper triangle, rows
    and columns taken alike in the given order, which keeps the
    determinant.  Step k updates only the pairs i <= j of the columns
    right of the pivot where row k is nonzero, which by symmetry are also
    the rows to update, so a band order keeps each step small.  None when
    a pivot vanishes; rows is left as it was.
    """
    a = [[rows[i][j] for j in order] for i in order]
    n, det = len(a), 1
    for k, row_k in enumerate(a):
        pivot = row_k[k]
        if not pivot:
            return None
        det = det * pivot % m
        cols = [j for j in range(k + 1, n) if row_k[j]]
        vals = [row_k[j] for j in cols]
        inv = pow(pivot, -1, m)
        for s, i in enumerate(cols):
            row_i, f = a[i], vals[s] * inv % m
            for j, y in zip(cols[s:], vals[s:]):
                row_i[j] = (row_i[j] - f * y) % m
    return det


def _interpolate_mod(e0: int, y: np.ndarray, p: int) -> list[int]:
    """Coefficients mod p of the polynomial of degree < len(y) through
    (2**(e0 + i), y_i).

    Newton divided differences, then expansion of the Newton form by Horner
    steps.  The nodes x_i = 2**(e0 + i) are geometric, so x_{i+j} - x_i =
    x_i (2**j - 1): level j of the table divides by the node inverses and by
    one scalar 2**j - 1.  The scalars are applied once at the end, as their
    running products, so each level takes a single remainder.  The nodes
    must be distinct mod p: 2 must have order at least len(y).
    """
    n = len(y)
    x0 = pow(2, e0, p)
    twos = _powers(2, n, p)
    nodes = twos * x0 % p
    inv_nodes = _powers((p + 1) // 2, n, p) * pow(x0, -1, p) % p
    # scale[j] = prod_{l=1..j} (2**l - 1)**-1
    running = [1] * n
    for j in range(1, n):
        running[j] = running[j - 1] * (int(twos[j]) - 1) % p
    scale = _batch_inverse(np.array(running, dtype=np.int64), p)
    c = np.array(y, dtype=np.int64)
    for j in range(1, n):
        c[j:] = (c[j:] - c[j - 1:-1]) * inv_nodes[:n - j] % p
    c = c * scale % p
    poly = np.zeros(n, dtype=np.int64)
    for j in range(n - 1, -1, -1):  # poly <- poly * (t - x_j) + c[j]
        x = int(nodes[j])
        head = (c[j] - x * poly[0]) % p
        poly[1:n - j] = (poly[:n - j - 1] - x * poly[1:n - j]) % p
        poly[0] = head
    return poly.tolist()


def _coefficient_bound_sq(rows) -> int:
    """Square of H = prod_i sqrt(sum_j ||M_ij||_1^2).

    On |q| = 1 every entry is bounded by its coefficient 1-norm, so Hadamard
    bounds |det M(q)| by H there, and Cauchy's estimate bounds each
    coefficient of det M by its maximum on the unit circle.
    """
    norm_sq = {c: sum(map(abs, c)) ** 2
               for c in {e.coeffs for row in rows for e in row}}
    out = 1
    for row in rows:
        out *= sum(norm_sq[e.coeffs] for e in row)
    return out


@cache  # once per process: a draw takes about 0.3 ms, too much per small det
def _certificate_prime() -> int:
    """A random prime in [2**60, 2**61), by rejection sampling of odd
    61-bit integers drawn with secrets."""
    while True:
        q = 1 << 60 | secrets.randbits(59) << 1 | 1
        if _is_prime(q):
            return q


class _Certificate:
    """Checks a lift g against rows, the grid as det was given it.

    g is a polynomial in t = q**power.  Each check draws a fresh random
    point x below the certificate prime Q and compares the determinant of
    rows at x with g(x**power) mod Q.  rows is evaluated at x once per
    distinct entry.  When det found rows symmetric it passes its band
    order, and the values are eliminated with diagonal pivots in that
    order (_symmetric_eliminate_mod); with order None, or where a pivot
    vanishes, the same values take plain elimination.
    """

    def __init__(self, rows, power: int, order: Sequence[int] | None):
        self.rows, self.power, self.order = rows, power, order

    def passes(self, g: list[int]) -> bool:
        m = _certificate_prime()
        x = secrets.randbelow(m)
        at = {c: _eval_mod(c, x, m)
              for c in {e.coeffs for row in self.rows for e in row}}
        values = [[at[e.coeffs] for e in row] for row in self.rows]
        at_x = (None if self.order is None
                else _symmetric_eliminate_mod(values, self.order, m))
        if at_x is None:
            at_x = _eliminate_mod(values, m)
        return at_x == _eval_mod(g, pow(x, self.power, m), m)

    def error_bits(self, n_coeffs: int, bound_sq: int) -> int:
        """floor(-log2 eps) for a g of n_coeffs coefficients and H**2 = bound_sq.

        eps = (deg + 64 k) / 2**60 with deg = power (n_coeffs - 1), the
        degree bound of det rows in q, and k = ceil(log2(2H) / 60) bounding
        the 61-bit primes that divide a nonzero coefficient of size at most
        2H.
        """
        log_2h = 1 + (bound_sq.bit_length() + 1) // 2  # >= log2(2H)
        cases = self.power * (n_coeffs - 1) + 64 * -(-log_2h // 60)
        return 60 - (cases - 1).bit_length()


class _Plan(NamedTuple):
    """What the engine fixes before its first prime: the coefficient count
    of g, the points per prime, H**2, and the primes the bound allows."""

    n_coeffs: int
    n_evals: int
    bound_sq: int
    primes: list[int]


def _prime_ceiling(m: int) -> int:
    """The top of the primes for sums of m + 1 products of residues."""
    return isqrt(_INT64_MAX // (m + 1))


def _plan(rows, shift: int, c: int | None, bound_sq: int) -> _Plan | None:
    """The engine's plan for g(t) = det N(t) / t**shift, N given by rows
    and H**2 = bound_sq, or None when g is 0 by its shape: N has a zero
    row, or the degree bound of g is negative.  See _modular_det."""
    degrees = [max((len(e.coeffs) - 1 for e in row), default=-1) for row in rows]
    if min(degrees) < 0:
        return None
    n_coeffs = sum(degrees) - shift + 1 if c is None else c + 1
    if n_coeffs <= 0:
        return None
    primes: list[int] = []
    modulus = 1
    for p in _primes_below(_prime_ceiling(max(len(rows), max(degrees) + 1))):
        if modulus * modulus > 4 * bound_sq:
            break
        if 1 in _powers(2, n_coeffs, p)[1:]:
            continue  # 2 has order below n_coeffs: the nodes repeat
        primes.append(p)
        modulus *= p
    return _Plan(n_coeffs, n_coeffs if c is None else (c + 3) // 2, bound_sq,
                 primes)


def _modular_det(rows, shift: int, c: int | None,
                 certificate: _Certificate) -> Determinant:
    """g(t) = det N(t) / t**shift over Z[t], N given by rows, and its Method.

    The nodes are powers of 2 at consecutive exponents.  When c is not
    None, t**c g(1/t) = g(t): g has degree at most c, and each value g(t)
    also gives g(1/t) = t**-c g(t).  Then K = ceil((c + 2) / 2) evaluations
    at t = 2**0 .. 2**(K - 1) yield the c + 1 nodes 2**-(K - 1) .. 2**(c -
    K + 1) that g needs.  Otherwise g has degree at most D - shift, D the
    sum of the row-maximum degrees, and the nodes are 2**0 .. 2**(K - 1)
    with K = D - shift + 1.  The primes lie below
    sqrt((2**63 - 1) / (m + 1)), m the larger of n and the widest entry of
    N, so that every sum of m + 1 products of residues fits in an int64; a
    prime where 2 has order below the coefficient count would repeat a node
    and is skipped.  Each prime takes batched eliminations at the K points,
    one Newton interpolation, and one CRT step.  When N is symmetric the
    batches are its upper triangles, eliminated with diagonal pivots; a
    point they mark, and every point of an N that is not symmetric, takes
    plain elimination of N evaluated there.

    The coefficient bound allows the primes up to the first whose product
    exceeds 2H.  Before the last of them, a lift equal to the previous
    prime's is put to the certificate, and returned as certified if it
    passes; after a failed certificate the engine runs to the bound.  The
    lift at the bound is exact, and a certificate that fails there raises
    CertificateError.  With K = 1 the engine always runs to the bound.
    """
    plan = _plan(rows, shift, c, _coefficient_bound_sq(rows))
    if plan is None:
        return Determinant((), EXACT)
    n_coeffs, n_evals, bound_sq, primes = plan
    # With one point per prime, a prime costs about what the certificate
    # costs, and stopping early cannot pay.
    early = n_evals > 1
    evaluate = _Evaluator(rows, n_evals) if _is_symmetric(rows) else None
    residues: list[int] = [0] * n_coeffs
    lift: list[int] = []
    modulus = 1
    for used, p in enumerate(primes, 1):
        inv2 = (p + 1) // 2
        det = np.zeros(n_evals, dtype=np.int64)
        plain = np.ones(n_evals, dtype=bool)
        if evaluate is not None:
            for lo in range(0, n_evals, evaluate.step):
                hi = min(lo + evaluate.step, n_evals)
                det[lo:hi], plain[lo:hi] = _batch_det_mod(evaluate(p, lo), p)
        for e in np.flatnonzero(plain).tolist():
            t = pow(2, e, p)
            det[e] = _eliminate_mod([[_eval_mod(x.coeffs, t, p) for x in row]
                                     for row in rows], p)
        g = det * _powers(pow(inv2, shift, p), n_evals, p) % p  # at t = 2**e
        if c is None:
            e0, y = 0, g
        else:  # g(2**-e) = 2**-ec g(2**e), e = K - 1 .. 1, ahead of g(2**e)
            mirror = g * _powers(pow(inv2, c, p), n_evals, p) % p
            e0, y = 1 - n_evals, np.concatenate([mirror[:0:-1], g])[:n_coeffs]
        coeffs = _interpolate_mod(e0, y, p)
        inv = pow(modulus % p, -1, p)
        for k, r in enumerate(coeffs):
            z = residues[k]
            residues[k] = z + modulus * ((r - z) * inv % p)
        modulus *= p
        half = modulus // 2
        previous, lift = lift, [z - modulus if z > half else z for z in residues]
        if early and lift == previous and used < len(primes):
            if certificate.passes(lift):
                method = Method(certificate.error_bits(n_coeffs, bound_sq),
                                used, len(primes))
                return Determinant(lift, method)
            early = False  # eps bounds the one certificate that may stop early
    if not certificate.passes(lift):
        raise CertificateError(f"determinant certificate failed after all "
                               f"{len(primes)} primes of the coefficient bound")
    return Determinant(lift, Method(None, len(primes), len(primes)))


def _potentials(n: int, edges, across):
    """Values x with x_v = across(w, x_u) on every edge (u, v, w), or None.

    across(w, .) must be an involution, so an edge can be walked both ways.
    One search over each connected component fixes its root at 0.
    """
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for u, v, w in edges:
        adj[u].append((v, w))
        adj[v].append((u, w))
    x: list = [None] * n
    for root in range(n):
        if x[root] is not None:
            continue
        x[root] = 0
        stack = [root]
        while stack:
            v = stack.pop()
            for u, w in adj[v]:
                want = across(w, x[v])
                if x[u] is None:
                    x[u] = want
                    stack.append(u)
                elif x[u] != want:
                    return None
    return x


def _grading(n: int, entries: Sequence[tuple[int, int, tuple[int, ...]]]):
    """A 0/1 vector s with every exponent of entry (i, j) = s_i + s_j mod 2.

    entries lists the nonzero entries as (i, j, coeffs).  The result is None
    when an entry mixes parities or the parities admit no such s.
    """
    parity = {}
    for c in {c for _, _, c in entries}:
        odd = any(c[1::2])
        if odd and any(c[::2]):
            return None
        parity[c] = int(odd)
    return _potentials(n, [(i, j, parity[c]) for i, j, c in entries],
                       lambda w, x: w ^ x)


def _palindrome_weights(n: int, entries: Sequence[tuple[int, int, tuple[int, ...]]]):
    """Row weights a and column weights b, as a + b, or None.

    They satisfy t**(a_i + b_j) e(1/t) = e(t) for every nonzero entry e at
    (i, j).  That holds exactly when the coefficients of e from its lowest
    exponent lo to its highest hi read the same both ways and a_i + b_j =
    lo + hi.  Rows are the vertices 0 .. n - 1 and columns n .. 2n - 1 of
    one bipartite search.
    """
    weight = {}
    for c in {c for _, _, c in entries}:
        body = c[next(k for k, x in enumerate(c) if x):]
        if body != body[::-1]:
            return None
        weight[c] = 2 * len(c) - len(body) - 1
    return _potentials(2 * n, [(i, n + j, weight[c]) for i, j, c in entries],
                       lambda w, x: w - x)


def _few_primes(n: int, bound_sq: int) -> bool:
    """Whether the coefficient bound H**2 = bound_sq of an n x n grid may
    allow the engine fewer than three primes.

    The engine's primes lie below the ceiling of m >= n, so the two largest
    primes below the ceiling of n are at least its first two.  When their
    product is at most 2H, the engine takes at least three primes.
    """
    p1, p2 = islice(_primes_below(_prime_ceiling(n)), 2)
    return (p1 * p2) ** 2 > 4 * bound_sq


def _identity(expect: IntPoly, graded: bool, plan: _Plan | None,
              certificate: _Certificate) -> Determinant | None:
    """expect as the determinant of the certificate's rows, certified by one
    certificate at a random point, or None.

    None without a draw when the engine never stops early (plan None, or one
    point per prime) or when expect cannot be the determinant: a graded grid
    with an odd exponent in expect, a degree above the engine's bound, or a
    coefficient above H.  Otherwise D = det - expect has degree within the
    engine's bound and |D_j| <= 2H, as the difference with a lift has, so
    the engine's eps and error_bits hold verbatim.
    """
    if plan is None or plan.n_evals == 1:
        return None
    g = expect.coeffs
    if graded:
        if any(g[1::2]):
            return None
        g = g[::2]
    if len(g) > plan.n_coeffs or any(x * x > plan.bound_sq for x in g):
        return None
    if not certificate.passes(g):
        return None
    bits = certificate.error_bits(plan.n_coeffs, plan.bound_sq)
    return Determinant(expect.coeffs, Method(bits, 0, len(plan.primes)))


def det(rows: Sequence[Sequence[IntPoly]],
        expect: IntPoly | None = None) -> Determinant | None:
    """Determinant over Z[q] of a square grid of IntPoly, exact or certified.

    The one entry point of the engine.  Rows and columns are band-ordered;
    a graded matrix runs in t = q**2; palindrome weights, when they exist,
    give _modular_det its degree c.  The certificate evaluates rows as
    given, and eliminates a symmetric one in the same band order.  int_det
    passes a constant grid, which takes c = 0 and one point per prime, so
    its result is always exact.

    Given expect, det reconstructs nothing: it returns expect, certified by
    one certificate at a random point, or None when that does not succeed,
    and the caller takes the engine.  The module docstring gives the gate
    (_few_primes), the screen and the draw (_identity), and why eps holds.
    """
    n = len(rows)
    if expect is not None:
        bound_sq = _coefficient_bound_sq(rows)
        if _few_primes(n, bound_sq):
            return None
    if not n:
        return Determinant((1,), EXACT)  # the empty product, as int_det([]) is 1
    entries = [(i, j, e.coeffs) for i, row in enumerate(rows)
               for j, e in enumerate(row) if e.coeffs]
    order = band_order(n, [(i, j) for i, j, _ in entries])
    at = [0] * n
    for k, i in enumerate(order):
        at[i] = k
    s = _grading(n, entries)
    graded = [(at[i], at[j], e if s is None else ((0,) * (s[i] + s[j]) + e)[::2])
              for i, j, e in entries]
    polys = {e: IntPoly(e) for e in {e for _, _, e in graded}}
    banded = [[ZERO] * n for _ in range(n)]
    for i, j, e in graded:
        banded[i][j] = polys[e]
    shift = 0 if s is None else sum(s)
    weights = _palindrome_weights(n, graded)
    c = None if weights is None else sum(weights) - 2 * shift
    certificate = _Certificate(rows, 1 if s is None else 2,
                               order if _is_symmetric(rows) else None)
    if expect is not None:
        return _identity(expect, s is not None,
                         _plan(banded, shift, c, bound_sq), certificate)
    g = _modular_det(banded, shift, c, certificate)
    # g is interpolated from det N(t) / t**shift, so it has no coefficient
    # below t**0 to check; the certificate catches any wrong value.
    if s is None:
        return g
    return Determinant((y for x in g.coeffs for y in (x, 0)), g.method)
