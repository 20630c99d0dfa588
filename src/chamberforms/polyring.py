"""Exact arithmetic over Z and Z[q]: q-integers and determinants.

Polynomials are dense integer-coefficient vectors in the single variable q.
All arithmetic is exact.  Products are schoolbook convolutions: they build
only h-polynomials and the q-integer powers of the right-hand sides, since
the determinant engine below multiplies no polynomials.

Determinants over Z[q] come from one modular engine (Abbott, Bronstein and
Mulders, ISSAC 1999), preceded by two exact transforms that keep the
determinant and two passes that read its symmetries:

- Band order: rows and columns are permuted alike by reverse Cuthill-McKee
  on the symmetrised nonzero pattern.  A symmetric permutation P M P^T has
  det(P)^2 det(M) = det(M), and each elimination step updates only the span
  of nonzero rows and columns, which a narrow band keeps small.
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
  symmetric exactly when M is, as S_q is.  The engine then evaluates only
  the upper triangle of N and eliminates it with diagonal pivots, reading
  and updating only the upper triangle, at about half the work.  If a
  diagonal pivot vanishes at some point, that prime and every later one
  run on the whole of N with row pivoting instead.  int_det eliminates a
  symmetric integer matrix, such as S, on its upper triangle in the same
  way.

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
Primes are combined by CRT until their product exceeds twice the
coefficient bound H = prod_i sqrt(sum_j ||M_ij||_1^2) (Hadamard on the unit
circle with Cauchy's estimate), and the symmetric lift is the exact g.  The
prime count is fixed by H before any prime is used, so the result is exact,
not Monte Carlo.  Each result is then certified by a second, independent
route: the determinant of the untransformed matrix at a random point modulo
2**61 - 1, by plain elimination on Python ints.
"""

from __future__ import annotations

import secrets
from math import isqrt
from typing import Iterable, Sequence

import numpy as np


class ExactDivisionError(ArithmeticError):
    """A division in the integer Bareiss elimination of int_det was inexact.

    This always indicates an internal arithmetic bug, never bad user input.
    """


class CertificateError(ArithmeticError):
    """An independent check contradicted a computed determinant.

    This always indicates an internal arithmetic bug, never bad user input.
    """


def _trim(coeffs: Iterable[int]) -> tuple[int, ...]:
    out = list(coeffs)
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


class IntPoly:
    """Immutable polynomial over Z, coeffs[k] = coefficient of q**k."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        object.__setattr__(self, "coeffs", _trim(coeffs))

    def __setattr__(self, *_):
        raise AttributeError("IntPoly is immutable")

    # -- basic structure ---------------------------------------------------

    @property
    def degree(self):
        """Degree, or None for the zero polynomial (never a valid index)."""
        return len(self.coeffs) - 1 if self.coeffs else None

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, IntPoly):
            return self.coeffs == other.coeffs
        if isinstance(other, int):
            return self.coeffs == _trim((other,))
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __getitem__(self, k: int) -> int:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "IntPoly") -> "IntPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPoly(out)

    def __neg__(self) -> "IntPoly":
        return IntPoly(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "IntPoly") -> "IntPoly":
        a, b = self.coeffs, other.coeffs
        out = list(a) + [0] * max(0, len(b) - len(a))
        for i, c in enumerate(b):
            out[i] -= c
        return IntPoly(out)

    def __mul__(self, other: "IntPoly") -> "IntPoly":
        a, b = self.coeffs, other.coeffs
        out = [0] * (len(a) + len(b) - 1)
        if len(a) > len(b):
            a, b = b, a
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] += x * y
        return IntPoly(out)

    def scaled(self, c: int) -> "IntPoly":
        return IntPoly(tuple(c * x for x in self.coeffs))

    def shifted(self, k: int) -> "IntPoly":
        """Multiply by q**k."""
        if not self.coeffs:
            return self
        return IntPoly((0,) * k + self.coeffs)

    def __call__(self, x: int) -> int:
        return poly_eval(self, x)

    # -- presentation --------------------------------------------------------

    def coeff_strings(self) -> list[str]:
        """Report form: decimal coefficient strings, constant term first."""
        return [str(c) for c in self.coeffs] if self.coeffs else ["0"]

    def __repr__(self):
        return f"IntPoly({list(self.coeffs)})"

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if k == 0:
                parts.append(str(c))
            else:
                mag = "" if abs(c) == 1 else f"{abs(c)}*"
                term = f"{mag}q" if k == 1 else f"{mag}q^{k}"
                parts.append(term if c > 0 else "-" + term)
        s = " + ".join(parts).replace("+ -", "- ")
        return s


ZERO = IntPoly()
ONE = IntPoly((1,))


def const(c: int) -> IntPoly:
    return IntPoly((c,))


# -- spec operations ---------------------------------------------------------

def q_integer(n: int) -> IntPoly:
    """[n] in the q**2 variable: 1 + q^2 + ... + q^(2n-2)."""
    if n < 1:
        raise ValueError(f"q_integer requires n >= 1, got {n}")
    coeffs = [0] * (2 * n - 1)
    coeffs[::2] = [1] * n
    return IntPoly(coeffs)


def poly_eval(p: IntPoly, x: int) -> int:
    acc = 0
    for c in reversed(p.coeffs):
        acc = acc * x + c
    return acc


def poly_pow(p: IntPoly, e: int) -> IntPoly:
    if e < 0:
        raise ValueError("negative exponent")
    out = ONE
    for _ in range(e):
        out = out * p
    return out


class PolyMatrix:
    """Square matrix over Z[q] with distinct, ordered row/column labels."""

    __slots__ = ("labels", "entries")

    def __init__(self, labels: Sequence, entries: Sequence[Sequence[IntPoly]]):
        labels = tuple(labels)
        entries = tuple(tuple(row) for row in entries)
        if len(set(labels)) != len(labels):
            raise ValueError("labels must be distinct")
        if len(entries) != len(labels) or any(len(r) != len(labels) for r in entries):
            raise ValueError("matrix must be square with one row per label")
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "entries", entries)

    def __setattr__(self, *_):
        raise AttributeError("PolyMatrix is immutable")

    @property
    def n(self) -> int:
        return len(self.labels)

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]


def _is_symmetric(rows: Sequence[Sequence]) -> bool:
    n = len(rows)
    return all(rows[i][j] == rows[j][i] for i in range(n) for j in range(i + 1, n))


def _symmetric_bareiss(rows: Sequence[Sequence[int]]) -> int | None:
    """det of a symmetric matrix by Bareiss on its upper triangle, or None.

    Step k sets m_ij <- (m_kk m_ij - m_ki m_kj) / m_(k-1)(k-1) for
    k < i <= j, reading m_ik as m_ki: the trailing matrix of each step is
    symmetric again, so the lower triangle is never read or written.  The
    pivots are the diagonal entries; None when one vanishes before the last.
    """
    n = len(rows)
    m = [list(r) for r in rows]
    prev = 1
    for k in range(n - 1):
        row_k = m[k]
        pivot = row_k[k]
        if not pivot:
            return None
        for i in range(k + 1, n):
            row_i, mki = m[i], row_k[i]
            for j in range(i, n):
                q, r = divmod(pivot * row_i[j] - mki * row_k[j], prev)
                if r:
                    raise ExactDivisionError("Bareiss integer division was inexact")
                row_i[j] = q
        prev = pivot
    return m[n - 1][n - 1]


def int_det(rows: Sequence[Sequence[int]]) -> int:
    """Exact integer determinant by Bareiss fraction-free elimination.

    A symmetric matrix, such as S, is eliminated on its upper triangle with
    diagonal pivots (_symmetric_bareiss), at about half the cost.  Any other
    matrix, and a symmetric one whose diagonal pivot vanishes, takes the
    elimination with row pivoting, from the matrix as passed.
    """
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("int_det requires a square grid")
    if n == 0:
        return 1
    if _is_symmetric(rows):
        det = _symmetric_bareiss(rows)
        if det is not None:
            return det
    m = [list(r) for r in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        piv = next((i for i in range(k, n) if m[i][k]), None)
        if piv is None:
            return 0
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        pivot, row_k = m[k][k], m[k]
        for i in range(k + 1, n):
            row_i = m[i]
            mik = row_i[k]
            for j in range(k + 1, n):
                q, r = divmod(pivot * row_i[j] - mik * row_k[j], prev)
                if r:
                    raise ExactDivisionError("Bareiss integer division was inexact")
                row_i[j] = q
        prev = pivot
    return sign * m[n - 1][n - 1]


# -- modular determinant engine over Z[q] ---------------------------------------

# Certificate modulus: the Mersenne prime 2**61 - 1.
_CERT_PRIME = (1 << 61) - 1


def _is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin; the bases 2, 3, 5, 7 decide every p < 3.2e9."""
    if p < 2:
        return False
    for a in (2, 3, 5, 7):
        if p % a == 0:
            return p == a
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7):
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


def _primes_below(top: int):
    """Primes below top in descending order; _is_prime needs top < 3.2e9."""
    p = top - 1 if top % 2 == 0 else top - 2
    while p > 2:
        if _is_prime(p):
            yield p
        p -= 2


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
    """Evaluates a Z[t] matrix at t = 2**0 .. 2**(n_points - 1) modulo a prime.

    Only the nonzero entries are computed, so sparse matrices cost little:
    one int64 product of the node-power table (points x width) with the
    coefficient table (width x entries), reduced once.  Each sum has at most
    width products of residues, so the prime must keep width (p - 1)**2 in
    an int64.  With upper set, only the entries (i, j) with j >= i are
    computed and the rest of each matrix is 0: that is all the symmetric
    elimination of _batch_det_mod reads.  The points are evaluated in
    chunks of step points, starting at lo, whose (points, n, n) batch and
    entry values fit in _BATCH_BYTES; every chunk refills one buffer,
    allocated once.
    """

    def __init__(self, rows, n_points: int, upper: bool = False):
        n = len(rows)
        entries = [(i, j, e.coeffs) for i, row in enumerate(rows)
                   for j, e in enumerate(row) if e.coeffs and (j >= i or not upper)]
        self.rows = np.array([i for i, _, _ in entries], dtype=np.intp)
        self.cols = np.array([j for _, j, _ in entries], dtype=np.intp)
        self.width = max(len(c) for _, _, c in entries)
        # coeffs[k][m] is the coefficient of t**k in the m-th nonzero entry
        self.coeffs = [[c[k] if k < len(c) else 0 for _, _, c in entries]
                       for k in range(self.width)]
        self.n_points = n_points
        per_point = 8 * (n * n + len(entries))
        self.step = max(1, min(n_points, _BATCH_BYTES // per_point))
        # (points, n, n), laid out points-last for _batch_det_mod
        self.batch = np.zeros((n, n, self.step), dtype=np.int64).transpose(2, 0, 1)

    def __call__(self, p: int, lo: int = 0) -> np.ndarray:
        """The batch of the points lo .. lo + step - 1, or up to the last."""
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
        batch[:, self.rows, self.cols] = np.remainder(values, p, out=values)
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


def _batch_det_mod(a: np.ndarray, p: int, symmetric: bool = False):
    """det mod p of each matrix in a (points, n, n) batch; a is overwritten.

    Gaussian elimination over GF(p).  The work runs on the (n, n, points)
    view of a, which is contiguous when a is laid out points-last, as
    _Evaluator lays it out.  Each step updates only the rows and columns
    with a nonzero entry, at any point, below and right of the pivot; on
    banded matrices such as the line's S_q those are few.

    With symmetric set, every matrix must be symmetric and only its upper
    triangle is read.  Step k reduces row k from the diagonal and takes the
    diagonal entry as pivot.  The columns nz right of it that are nonzero
    at any point are, by symmetry, also the rows to update; nz splits into
    runs [lo, hi) of consecutive indices, and each run updates
    a[lo:hi, lo:end] with the factors a[k, lo:hi] / pivot, end the last of
    nz plus one.  The trailing matrix stays symmetric, so its upper
    triangle is all the next step needs; the entries of a run's block
    below the diagonal are updated but never read.  When a diagonal pivot
    before the last is 0 at some point, the batch is given up and the
    result is None.

    Otherwise, a pivot row is chosen per matrix, so a pivot that vanishes
    at some evaluation points costs nothing extra.  Step k updates the
    rectangle spanned by the rows with a nonzero entry below the pivot and
    the columns with a nonzero entry right of it.

    Reduction is lazy.  Entries start in [0, p); step k reduces only the
    pivot row and, with row pivoting, column k (rows >= k), and the block
    update subtracts products below p**2 with no remainder.  An entry is
    updated at most n - 1 times before it is reduced, so entries stay above
    -(n - 1) p**2: the prime must keep n (p - 1)**2 in an int64.  The
    pivots of all points are inverted together (_batch_inverse); a point
    without a pivot has det 0 already, and its factors are 0.
    """
    n_pts, n = a.shape[0], a.shape[1]
    a = a.transpose(1, 2, 0)
    det = np.ones(n_pts, dtype=np.int64)
    pts = np.arange(n_pts)
    for k in range(n):
        if symmetric:
            row = a[k, k:]
            np.remainder(row, p, out=row)
            if k < n - 1 and not row[0].all():
                return None  # a diagonal pivot vanished before the last
        else:
            column = a[k:, k]
            np.remainder(column, p, out=column)
            piv = (column != 0).argmax(axis=0) + k
            swap = piv != k
            if swap.any():
                row_piv = a[piv, :, pts].copy()
                a[piv, :, pts] = a[k].T.copy()
                a[k] = row_piv.T
                det = np.where(swap, p - det, det)
        pivot = a[k, k]  # zero exactly where the column has no pivot
        det = det * pivot % p
        if k == n - 1:
            break
        row = a[k, k + 1:]
        if not symmetric:
            np.remainder(row, p, out=row)
        cols = np.flatnonzero(row.any(axis=1)) + k + 1
        if symmetric:
            source, rows = a[k], cols  # row k is column k
        else:
            source = a[:, k]
            rows = np.flatnonzero(a[k + 1:, k].any(axis=1)) + k + 1
        if not rows.size or not cols.size:
            continue
        blocks = ([(lo, hi, lo) for lo, hi in _runs(rows.tolist())] if symmetric
                  else [(rows[0], rows[-1] + 1, cols[0])])
        first, end = blocks[0][0], cols[-1] + 1
        factor = source[first:blocks[-1][1]] * _batch_inverse(pivot, p) % p
        for top, bottom, left in blocks:
            pivot_row = a[k, left:end]
            step = max(1, _CHUNK // pivot_row.size)
            for lo in range(top, bottom, step):
                hi = min(lo + step, bottom)
                block = a[lo:hi, left:end]  # a view: the update happens in place
                block -= factor[lo - first:hi - first, None] * pivot_row
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
    out = 1
    for row in rows:
        out *= sum(sum(abs(c) for c in e.coeffs) ** 2 for e in row)
    return out


def _modular_det(rows, shift: int, c: int | None) -> IntPoly:
    """g(t) = det N(t) / t**shift over Z[t], N given by rows.

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
    eliminations use diagonal pivots on the upper triangle; after one of
    them meets a vanishing pivot, the prime starts again, and it and the
    later primes evaluate all of N and pivot by rows.
    """
    degrees = [max((len(e.coeffs) - 1 for e in row), default=-1) for row in rows]
    if min(degrees) < 0:
        return ZERO  # a zero row
    n_coeffs = sum(degrees) - shift + 1 if c is None else c + 1
    if n_coeffs <= 0:
        return ZERO  # the degree bound of g is negative
    n_evals = n_coeffs if c is None else (c + 3) // 2
    bound_sq = _coefficient_bound_sq(rows)
    m = max(len(rows), max(degrees) + 1)
    primes: list[int] = []
    modulus = 1
    for p in _primes_below(isqrt((2 ** 63 - 1) // (m + 1))):
        if modulus * modulus > 4 * bound_sq:
            break
        if 1 in _powers(2, n_coeffs, p)[1:]:
            continue  # 2 has order below n_coeffs: the nodes repeat
        primes.append(p)
        modulus *= p
    symmetric = _is_symmetric(rows)
    evaluate = _Evaluator(rows, n_evals, symmetric)
    residues: list[int] = [0] * n_coeffs
    modulus = 1
    for p in primes:
        inv2 = (p + 1) // 2
        parts, lo = [], 0
        while lo < n_evals:
            part = _batch_det_mod(evaluate(p, lo), p, symmetric)
            if part is None:  # a diagonal pivot vanished: pivot from here on
                symmetric, parts, lo = False, [], 0
                evaluate = _Evaluator(rows, n_evals, symmetric)
                continue
            parts.append(part)
            lo += evaluate.step
        det = np.concatenate(parts)
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
    return IntPoly(z - modulus if z > half else z for z in residues)


def _eval_mod(p: IntPoly, x: int, m: int) -> int:
    acc = 0
    for c in reversed(p.coeffs):
        acc = (acc * x + c) % m
    return acc


def _det_mod(rows: list[list[int]], m: int) -> int:
    """det mod a prime m by plain Gaussian elimination on Python ints."""
    n = len(rows)
    det = 1
    for k in range(n):
        piv = next((i for i in range(k, n) if rows[i][k]), None)
        if piv is None:
            return 0
        if piv != k:
            rows[k], rows[piv] = rows[piv], rows[k]
            det = -det
        row_k = rows[k]
        det = det * row_k[k] % m
        inv = pow(row_k[k], -1, m)
        for i in range(k + 1, n):
            row_i = rows[i]
            f = row_i[k] * inv % m
            if f:
                rows[i] = [(x - f * y) % m for x, y in zip(row_i, row_k)]
    return det % m


def _rank_mod(rows: Sequence[Sequence[int]], m: int) -> int:
    """Rank mod a prime m by Gaussian elimination on Python ints.

    It is never above the rank over Q: a minor nonzero mod m is nonzero.
    """
    a = [[x % m for x in row] for row in rows]
    rank = 0
    for k in range(len(a[0]) if a else 0):
        piv = next((i for i in range(rank, len(a)) if a[i][k]), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        row_k = a[rank]
        inv = pow(row_k[k], -1, m)
        for i in range(rank + 1, len(a)):
            f = a[i][k] * inv % m
            if f:
                a[i] = [(x - f * y) % m for x, y in zip(a[i], row_k)]
        rank += 1
    return rank


def _band_order(n: int, pattern: Sequence[tuple[int, int]]) -> list[int]:
    """Reverse Cuthill-McKee order of the symmetrised nonzero pattern.

    Each connected component is searched breadth first from its vertex of
    least degree, neighbours in order of increasing degree, and the whole
    order is reversed.  Bucketing the vertices by degree keeps the pass
    linear in the number of nonzero entries.
    """
    adj: list[set[int]] = [set() for _ in range(n)]
    for i, j in pattern:
        if i != j:
            adj[i].add(j)
            adj[j].add(i)
    buckets: list[list[int]] = [[] for _ in range(n)]
    for v in range(n):
        buckets[len(adj[v])].append(v)
    by_degree = [v for bucket in buckets for v in bucket]
    neighbours: list[list[int]] = [[] for _ in range(n)]
    for v in by_degree:
        for u in adj[v]:
            neighbours[u].append(v)
    seen = [False] * n
    order: list[int] = []
    for start in by_degree:
        if seen[start]:
            continue
        seen[start] = True
        head = len(order)
        order.append(start)
        while head < len(order):
            for u in neighbours[order[head]]:
                if not seen[u]:
                    seen[u] = True
                    order.append(u)
            head += 1
    order.reverse()
    return order


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
    edges = []
    for i, j, c in entries:
        odd = any(c[1::2])
        if odd and any(c[::2]):
            return None
        edges.append((i, j, int(odd)))
    return _potentials(n, edges, lambda w, x: w ^ x)


def _palindrome_weights(n: int, entries: Sequence[tuple[int, int, tuple[int, ...]]]):
    """Row weights a and column weights b, as a + b, or None.

    They satisfy t**(a_i + b_j) e(1/t) = e(t) for every nonzero entry e at
    (i, j).  That holds exactly when the coefficients of e from its lowest
    exponent lo to its highest hi read the same both ways and a_i + b_j =
    lo + hi.  Rows are the vertices 0 .. n - 1 and columns n .. 2n - 1 of
    one bipartite search.
    """
    edges = []
    for i, j, c in entries:
        body = c[next(k for k, x in enumerate(c) if x):]
        if body != body[::-1]:
            return None
        edges.append((i, n + j, 2 * len(c) - len(body) - 1))
    return _potentials(2 * n, edges, lambda w, x: w - x)


def poly_det(m) -> IntPoly:
    """Exact determinant over Z[q], certified at a random point.

    m is a PolyMatrix or a square grid of IntPoly.  Constant matrices go to
    int_det, all others to the modular engine of the module docstring.  The
    result is exact: the engine's prime count is fixed by a coefficient
    bound before any prime is used.  As a certificate, the matrix exactly
    as passed in is evaluated at a random point modulo 2**61 - 1, and its
    determinant there, by plain elimination, must equal the result's value;
    a wrong result passes with probability at most deg / (2**61 - 1).

    Raises ValueError on a matrix that is not square, and CertificateError
    (or ExactDivisionError from int_det) on an internal arithmetic bug.
    """
    rows = m.entries if isinstance(m, PolyMatrix) else tuple(tuple(r) for r in m)
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("poly_det requires a square matrix")
    if all(len(e.coeffs) <= 1 for row in rows for e in row):
        return const(int_det([[e[0] for e in row] for row in rows]))
    entries = [(i, j, e.coeffs) for i, row in enumerate(rows)
               for j, e in enumerate(row) if e.coeffs]
    at = [0] * n
    for k, i in enumerate(_band_order(n, [(i, j) for i, j, _ in entries])):
        at[i] = k
    s = _grading(n, entries)
    graded = [(at[i], at[j], e if s is None else ((0,) * (s[i] + s[j]) + e)[::2])
              for i, j, e in entries]
    banded = [[ZERO] * n for _ in range(n)]
    for i, j, e in graded:
        banded[i][j] = IntPoly(e)
    shift = 0 if s is None else sum(s)
    weights = _palindrome_weights(n, graded)
    g = _modular_det(banded, shift,
                     None if weights is None else sum(weights) - 2 * shift)
    # g is interpolated from det N(t) / t**shift, so it has no coefficient
    # below t**0 to check; the certificate below catches any wrong value.
    det = g if s is None else IntPoly(c for x in g.coeffs for c in (x, 0))
    point = secrets.randbelow(_CERT_PRIME)
    at_point = _det_mod([[_eval_mod(e, point, _CERT_PRIME) for e in row]
                         for row in rows], _CERT_PRIME)
    if at_point != _eval_mod(det, point, _CERT_PRIME):
        raise CertificateError(
            f"determinant certificate failed at q={point} mod 2**61-1: "
            f"{at_point} != {_eval_mod(det, point, _CERT_PRIME)}")
    return det

