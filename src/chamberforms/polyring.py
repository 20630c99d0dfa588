"""Exact arithmetic over Z and Z[q]: q-integers and determinants.

Polynomials are dense integer-coefficient vectors in the single variable q.
All arithmetic is exact.  Products are schoolbook convolutions: they build
only h-polynomials and the q-integer powers of the right-hand sides, since
the determinant engine below multiplies no polynomials.

Determinants over Z[q] come from one modular engine (Abbott, Bronstein and
Mulders, ISSAC 1999), preceded by two exact transforms that keep the
determinant and one pass that reads its symmetry:

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

The engine interpolates g itself from det N(t) / t^(sum s) at nonzero nodes.
On a palindrome it evaluates at t = 1 .. K, K = ceil((c + 2) / 2), and
takes the first c + 1 of the nodes 1, 2, 1/2, .., K, 1/K; otherwise the
nodes are t = 1 .. K with K = D - sum s + 1, where the row-maximum degrees
of N sum to D.  Modulo
each 31-bit prime the K determinants come from one numpy int64 batch of
eliminations, and Newton interpolation on the nodes recovers g mod p.
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
from itertools import permutations
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


def int_det(rows: Sequence[Sequence[int]]) -> int:
    """Exact integer determinant by Bareiss fraction-free elimination."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("int_det requires a square grid")
    if n == 0:
        return 1
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


def _primes_31():
    """Primes below 2**31 in descending order.

    Below 2**31 every product of two residues fits in a signed 64-bit word,
    so numpy int64 arithmetic reduces modulo p without overflow.
    """
    p = (1 << 31) - 1
    while True:
        if _is_prime(p):
            yield p
        p -= 2


def _pow_mod(x: np.ndarray, e: int, p: int) -> np.ndarray:
    out = np.ones_like(x)
    base = x % p
    while e:
        if e & 1:
            out = out * base % p
        base = base * base % p
        e >>= 1
    return out


class _Evaluator:
    """Evaluates a Z[t] matrix at t = 1 .. n_points modulo a prime.

    Only the nonzero entries are computed, so sparse matrices cost little.
    """

    def __init__(self, rows, n_points: int):
        self.shape = (n_points, len(rows), len(rows))
        entries = [(i, j, e.coeffs) for i, row in enumerate(rows)
                   for j, e in enumerate(row) if e.coeffs]
        self.rows = np.array([i for i, _, _ in entries], dtype=np.intp)
        self.cols = np.array([j for _, j, _ in entries], dtype=np.intp)
        width = max(len(c) for _, _, c in entries)
        # coeffs[k][m] is the coefficient of t**k in the m-th nonzero entry
        self.coeffs = [[c[k] if k < len(c) else 0 for _, _, c in entries]
                       for k in range(width)]

    def __call__(self, p: int) -> np.ndarray:
        t = np.arange(1, self.shape[0] + 1, dtype=np.int64)[:, None]
        values = np.zeros((self.shape[0], len(self.rows)), dtype=np.int64)
        for layer in reversed(self.coeffs):  # Horner in t
            values = (values * t + np.array([c % p for c in layer], dtype=np.int64)) % p
        out = np.zeros(self.shape, dtype=np.int64)
        out[:, self.rows, self.cols] = values
        return out


def _batch_det_mod(a: np.ndarray, p: int) -> np.ndarray:
    """det mod p of each matrix in a (points, n, n) batch; a is overwritten.

    Gaussian elimination over GF(p) with a pivot row chosen per matrix, so a
    pivot that vanishes at some evaluation points costs nothing extra.  Each
    step updates only the block spanned by the rows with a nonzero entry
    below the pivot and the columns with a nonzero entry right of it, at any
    point; on banded matrices such as the line's S_q that block is tiny.
    """
    n_pts, n = a.shape[0], a.shape[1]
    det = np.ones(n_pts, dtype=np.int64)
    pts = np.arange(n_pts)
    for k in range(n):
        nonzero = a[:, k:, k] != 0
        piv = nonzero.argmax(axis=1) + k
        swap = piv != k
        if swap.any():
            row_piv = a[pts, piv].copy()
            a[pts, piv] = a[:, k].copy()
            a[:, k] = row_piv
            det = np.where(swap, (p - det) % p, det)
        pivot = a[:, k, k]  # zero exactly where the column has no pivot
        det = det * pivot % p
        if k == n - 1:
            break
        rows = np.flatnonzero(a[:, k + 1:, k].any(axis=0)) + k + 1
        cols = np.flatnonzero(a[:, k, k + 1:].any(axis=0)) + k + 1
        if not rows.size or not cols.size:
            continue
        r = slice(rows[0], rows[-1] + 1)
        c = slice(cols[0], cols[-1] + 1)
        factor = a[:, r, k] * _pow_mod(pivot, p - 2, p)[:, None] % p
        block = a[:, r, c]  # a view: the update below happens in place
        block -= factor[:, :, None] * a[:, None, k, c]
        np.remainder(block, p, out=block)
    return det


def _interpolate_mod(x: list[int], y: list[int], p: int) -> list[int]:
    """Coefficients mod p of the polynomial of degree < len(x) through (x_i, y_i).

    Newton divided differences on nodes distinct mod p, then expansion of the
    Newton form by Horner steps.  Every difference x_{i+j} - x_i the divided
    differences need is inverted in one vectorised pass.
    """
    n = len(x)
    nodes = np.array(x, dtype=np.int64)
    inv = _pow_mod(np.concatenate([nodes[:0]] + [nodes[j:] - nodes[:-j]
                                                 for j in range(1, n)]), p - 2, p)
    c = np.array(y, dtype=np.int64)
    start = 0
    for j in range(1, n):
        c[j:] = (c[j:] - c[j - 1:-1]) * inv[start:start + n - j] % p
        start += n - j
    poly = np.zeros(n, dtype=np.int64)
    for j in range(n - 1, -1, -1):  # poly <- poly * (t - x_j) + c[j]
        shifted = np.zeros(n, dtype=np.int64)
        shifted[1:] = poly[:-1]
        shifted[0] = c[j]
        poly = (shifted - x[j] * poly) % p
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

    When c is not None, t**c g(1/t) = g(t): g has degree at most c, and each
    value g(t) also gives g(1/t) = t**-c g(t).  Then K = ceil((c + 2) / 2)
    evaluations at t = 1 .. K yield the c + 1 nodes 1, 2, 1/2, .., K, 1/K
    (the last dropped when c is odd) that g needs.  Otherwise g has degree
    at most D - shift, D the sum of the row-maximum degrees, and the nodes
    are 1 .. K with K = D - shift + 1.  Each prime takes one batched
    elimination at the K points, one Newton interpolation, and one CRT step.
    """
    degrees = [max((len(e.coeffs) - 1 for e in row), default=-1) for row in rows]
    if min(degrees) < 0:
        return ZERO  # a zero row
    n_coeffs = sum(degrees) - shift + 1 if c is None else c + 1
    if n_coeffs <= 0:
        return ZERO  # the degree bound of g is negative
    n_evals = n_coeffs if c is None else (c + 3) // 2
    bound_sq = _coefficient_bound_sq(rows)
    primes: list[int] = []
    modulus = 1
    for p in _primes_31():
        if modulus * modulus > 4 * bound_sq:
            break
        primes.append(p)
        modulus *= p
    # Nodes 1 .. K are distinct and nonzero mod p while K < p; their
    # inverses stay apart from them and from each other while K**2 < p.
    reach = n_evals if c is None else n_evals * n_evals
    if reach >= primes[-1]:
        raise ValueError(f"{n_evals} evaluation points need primes above {reach}, "
                         f"but the engine uses {primes[-1]}")
    evaluate = _Evaluator(rows, n_evals)
    residues: list[int] = [0] * n_coeffs
    modulus = 1
    for p in primes:
        x: list[int] = []
        y: list[int] = []
        for t, v in enumerate(_batch_det_mod(evaluate(p), p).tolist(), 1):
            t_inv = pow(t, -1, p)
            g_t = v * pow(t_inv, shift, p) % p
            x.append(t)
            y.append(g_t)
            if c is not None and t > 1:
                x.append(t_inv)
                y.append(g_t * pow(t_inv, c, p) % p)
        coeffs = _interpolate_mod(x[:n_coeffs], y[:n_coeffs], p)
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

    Accepts a PolyMatrix or a plain square grid of IntPoly.  Constant
    matrices go to int_det.  Otherwise two exact transforms and one
    structure pass precede the modular engine:

    - Band order.  Rows and columns are permuted alike, by reverse
      Cuthill-McKee on the symmetrised nonzero pattern.  det(P M P^T) =
      det(P)^2 det(M) = det(M), sign included, and the narrower band shrinks
      the block each elimination step updates.
    - Grading.  If some 0/1 vector s gives every nonzero coefficient of
      entry (i, j) an exponent of parity s_i + s_j, as (-q)^d h(q^2) does in
      S_q, the engine runs on N_ij(t) = sum_k c_k t^((k + s_i + s_j) / 2).
      Then N(q^2) = D M D with D = diag(q^s_i), so det N(t) = t^(sum s) g(t)
      with det M(q) = g(q^2), at about half the evaluation points.  Without
      such an s the engine runs on N = P M P^T itself (s = 0, t = q).
    - Palindrome.  If integer row and column weights a, b give every
      nonzero entry t^(a_i + b_j) N_ij(1/t) = N_ij(t), as S_q's entries
      (-q)^d h(q^2) satisfy with a_i + b_j = 2r in q, then expanding det N
      over permutations gives t^(sum a + sum b) det N(1/t) = det N(t), so
      t^c g(1/t) = g(t) with c = sum a + sum b - 2 sum s.  The engine then
      evaluates at t = 1 .. K with K = ceil((c + 2) / 2) and reads g(1/t) =
      t^-c g(t) at the mirrored nodes, again about half the points.

    The engine interpolates g itself from det N(t) / t^(sum s), at t = 1 ..
    D - sum s + 1 without weights, D the sum of the row-maximum degrees of
    N.  Each 31-bit prime takes one batched elimination at the points and
    one Newton interpolation on the nodes, and CRT combines the primes until
    their product exceeds 2H, with H = prod_i sqrt(sum_j ||M_ij||_1^2) the
    Hadamard bound on the unit circle, which by Cauchy's estimate bounds
    every coefficient; the symmetric lift is then g.  The transforms move
    coefficients but change none, so H is the same for N.  The prime count
    stays deterministic although H often overshoots (291 bits against 88 on
    one 84-tope S_q): stopping once the result settles would make it Monte
    Carlo.  The nodes must stay distinct mod the smallest prime used: K < p
    for 1 .. K, K^2 < p with the mirrored nodes; beyond that ValueError.

    As a certificate, the matrix exactly as passed in, without either
    transform, is taken at a random point modulo 2**61 - 1 and its
    determinant, found by plain elimination, must equal the result there;
    a wrong result passes with probability at most deg / (2**61 - 1).  A
    failed certificate raises CertificateError.
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


def det_by_expansion(rows: Sequence[Sequence[IntPoly]]) -> IntPoly:
    """Signed permutation-sum determinant; independent oracle for small n."""
    n = len(rows)
    total = ZERO
    for perm in permutations(range(n)):
        inv = sum(1 for i in range(n) for j in range(i + 1, n)
                  if perm[i] > perm[j])
        term = ONE
        for i in range(n):
            term = term * rows[i][perm[i]]
        total = total + (term if inv % 2 == 0 else -term)
    return total
