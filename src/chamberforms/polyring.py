"""Exact arithmetic over Z and Z[q]: q-integers and determinants.

Polynomials are dense integer-coefficient vectors in the single variable q.
All arithmetic is exact: nothing here works modulo a prime, and every
residue, the engine's and its certificate's, is computed in
chamberforms.modular.  Products are schoolbook convolutions, and powers
one integer power by Kronecker substitution: they build only h-polynomials
and the right-hand sides, since the determinant engine multiplies no
polynomials.

int_det eliminates a symmetric integer matrix, such as S, by Bareiss on its
upper triangle with diagonal pivots, on Python ints (Bareiss, Math. Comp.
22, 1968).  It runs in the reverse Cuthill-McKee order of band_order
(George and Liu, Computer Solution of Large Sparse Positive Definite
Systems, 1981), which the engine and its certificate also use: each step
updates only the rows it touches, and every other row catches up by an
exact pivot ratio when it is next read.  Every other determinant comes
from the word-size modular engine in chamberforms.modular, the one module
that imports numpy, entered only through modular.det: poly_det hands it
each matrix over Z[q], int_det any other integer matrix, and certify_det a
matrix over Z[q] with the polynomial its determinant should be.  Each
imports det only when it calls it, so a process that takes no such
determinant never loads numpy.

poly_det and int_det are exact.  certify_det returns a Determinant, the
polynomial together with its Method: the expected polynomial, certified
with an error bound by one certificate at a random point, or the exact
determinant; see chamberforms.modular.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Optional, Sequence


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


class Method(NamedTuple):
    """How a determinant was established.

    error_bits is None for an exact result.  A certified result is wrong
    with probability at most 2**-error_bits, a bound that depends only on
    the matrix.  primes counts the primes the modular engine used, and
    bound the primes its coefficient bound allows.  The engine uses every
    prime the bound allows or none: an exact result from it has primes ==
    bound, a result off the engine has both 0, and a certified result,
    an expected polynomial confirmed by certify_det, has primes 0 and the
    bound the engine would have been allowed.
    """

    error_bits: Optional[int]
    primes: int = 0
    bound: int = 0


EXACT = Method(None)


class Determinant(IntPoly):
    """A determinant over Z[q] and the Method that established it."""

    __slots__ = ("method",)

    def __init__(self, coeffs: Iterable[int], method: Method):
        super().__init__(coeffs)
        object.__setattr__(self, "method", method)


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
    """p**e by Kronecker substitution: one integer power of p at q = 2**w.

    Every coefficient of p**e is at most s**e in size, s the sum of the
    sizes of p's, and w, a whole number of bytes, has s**e < 2**(w - 1).
    Adding 2**(w - 1) to each w-bit slot makes every slot a nonnegative
    w-bit number, so signed coefficients pack and unpack bytewise with no
    carry between slots.
    """
    if e < 0:
        raise ValueError("negative exponent")
    if e == 0:
        return ONE
    if not p:
        return ZERO
    size = e * sum(map(abs, p.coeffs)).bit_length() // 8 + 1  # bytes per slot
    half = 1 << 8 * size - 1
    slot_bias = bytes(size - 1) + b"\x80"  # half, little-endian

    def biased(n_slots: int) -> int:
        return int.from_bytes(slot_bias * n_slots, "little")

    packed = int.from_bytes(b"".join((c + half).to_bytes(size, "little")
                                     for c in p.coeffs), "little")
    slots = e * (len(p.coeffs) - 1) + 1
    value = (packed - biased(len(p.coeffs))) ** e + biased(slots)
    data = value.to_bytes(size * slots, "little")
    return IntPoly(int.from_bytes(data[k:k + size], "little") - half
                   for k in range(0, size * slots, size))


def _is_symmetric(rows: Sequence[Sequence]) -> bool:
    """Whether a square grid equals its transpose.

    Whole rows are compared with the columns as tuples, so an entry shared
    by (i, j) and (j, i), as forms._sparse_form shares it, is matched by
    identity without a call to its __eq__.
    """
    return all(tuple(row) == col for row, col in zip(rows, zip(*rows)))


def band_order(n: int, pattern: Iterable[tuple[int, int]]) -> list[int]:
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


def _symmetric_bareiss(rows: Sequence[Sequence[int]]) -> int | None:
    """det of a symmetric matrix by Bareiss on its upper triangle in band
    order, or None.

    Rows and columns are permuted alike by band_order, which keeps the
    determinant.  Step k sets m_ij <- (m_kk m_ij - m_ki m_kj) / p for
    k < i <= j, p the pivot m_(k-1)(k-1) of the step before (1 at the
    first), reading m_ik as m_ki: the trailing matrix of each step is
    symmetric again, so the lower triangle is never read or written.  A
    row i with m_ki = 0 would only be scaled by m_kk / p, so step k leaves
    it alone: each row records the number s of steps it has taken, and a
    later step k that reads it first catches it up by the exact factor
    p_k / p_s, where p_t is the pivot of step t - 1 and p_0 = 1.  A row is
    read and written only up to its envelope end, one past the last column
    that it, or a pivot row that updated it, has held nonzero; fill-in
    stays inside it.  Every division checks its remainder.  The pivots are
    the diagonal entries; None when one vanishes before the last.
    """
    n = len(rows)
    order = band_order(n, [(i, j) for i, row in enumerate(rows)
                           for j in range(i + 1, n) if row[j]])
    m = [[rows[i][j] for j in order] for i in order]
    end = [max((j for j in range(i, n) if row[j]), default=i) + 1
           for i, row in enumerate(m)]
    pivots = [1]  # p_t
    stamp = [0] * n  # the steps each row has taken

    def catch_up(i: int, k: int) -> None:
        row, num, den = m[i], pivots[k], pivots[stamp[i]]
        for j in range(i, end[i]):
            q, r = divmod(row[j] * num, den)
            if r:
                raise ExactDivisionError("Bareiss integer division was inexact")
            row[j] = q

    for k in range(n - 1):
        if stamp[k] < k:
            catch_up(k, k)
        row_k = m[k]
        pivot, prev, end_k = row_k[k], pivots[k], end[k]
        if not pivot:
            return None
        for i in range(k + 1, end_k):
            mki = row_k[i]
            if not mki:
                continue
            if stamp[i] < k:
                catch_up(i, k)
            if end[i] < end_k:
                end[i] = end_k
            row_i = m[i]
            for j in range(i, end[i]):
                q, r = divmod(pivot * row_i[j] - mki * row_k[j], prev)
                if r:
                    raise ExactDivisionError("Bareiss integer division was inexact")
                row_i[j] = q
            stamp[i] = k + 1
        pivots.append(pivot)
    if stamp[n - 1] < n - 1:
        catch_up(n - 1, n - 1)
    return m[n - 1][n - 1]


def int_det(rows: Sequence[Sequence[int]]) -> int:
    """Exact integer determinant.

    A symmetric matrix, such as S, is eliminated by Bareiss on its upper
    triangle with diagonal pivots, in band order (_symmetric_bareiss).  Any other matrix,
    and a symmetric one whose diagonal pivot vanishes, goes to the modular
    engine as a constant matrix: one point per prime, plain elimination,
    and CRT up to the Hadamard bound, so the result is exact.
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
    from .modular import det
    return det([[const(x) for x in row] for row in rows])[0]


def poly_det(rows: Sequence[Sequence[IntPoly]]) -> Determinant:
    """Exact determinant over Z[q], with its Method.

    rows is a square grid of IntPoly.  A constant grid goes to int_det.
    Any other goes to modular.det, the engine's one entry point, which
    takes every prime the coefficient bound allows; a certificate still
    checks the lift: the grid exactly as passed in, evaluated at a random
    point modulo a random 61-bit prime, must have the lift's value there.

    Raises ValueError on a matrix that is not square, and CertificateError
    (or ExactDivisionError from int_det) on an internal arithmetic bug.
    """
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("poly_det requires a square matrix")
    if all(len(e.coeffs) <= 1 for row in rows for e in row):
        # the coefficients of a constant sum to its value
        return Determinant((int_det([[sum(e.coeffs) for e in row] for row in rows]),),
                           EXACT)
    from .modular import det
    return det(rows)


def certify_det(rows: Sequence[Sequence[IntPoly]],
                expect: IntPoly) -> Determinant:
    """Determinant over Z[q] of rows, with expect as the engine's
    candidate.

    modular.det puts expect to one certificate at a random point before
    its first prime.  A pass returns expect, certified, with Method
    (error_bits, 0, bound); a failure, or an expect that cannot be the
    determinant by degree, size or parity, leaves the engine to run to the
    bound, and its exact result, Method (None, bound, bound), is the
    mismatch witness.  When the bound may allow fewer than three primes,
    the engine's exact result costs about what a certificate costs, and
    certify_det takes it from poly_det.
    """
    from .modular import det
    certified = det(rows, expect)
    return poly_det(rows) if certified is None else certified
