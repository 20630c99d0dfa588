"""Checkers for the program's reports.

Each checker returns the list of problems it found; an empty list means the
report is correct.  Reference values come from workloads.py (computed apart
from the program) or from properties every correct answer has.  Polynomials
are coefficient lists in q, lowest degree first, as the reports give them.
"""

from __future__ import annotations

from math import comb

from workloads import VAMOS_TOPES, Instance, expected_uniform_topes, uniform_det_S


def poly_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def poly_pow(a: list[int], e: int) -> list[int]:
    out = [1]
    base = a
    while e:
        if e & 1:
            out = poly_mul(out, base)
        e >>= 1
        if e:
            base = poly_mul(base, base)
    return out


def q_integer(n: int) -> list[int]:
    """[n] in q^2: 1 + q^2 + ... + q^(2n-2)."""
    out = [0] * (2 * n - 1)
    out[::2] = [1] * n
    return out


def trim(p: list[int]) -> list[int]:
    p = list(p)
    while len(p) > 1 and p[-1] == 0:
        p.pop()
    return p


def _ints(values, what: str, problems: list[str]) -> list[int]:
    try:
        return [int(v) for v in values]
    except (TypeError, ValueError):
        problems.append(f"{what} is not a list of integers: {values!r}")
        return []


def check_report(report: dict, inst: Instance, uniform_ref: dict) -> list[str]:
    """A `check` report: tope count, both determinants and both right-hand sides.

    uniform_ref caches (r, n) -> the exact det S_q of a uniform arrangement,
    [n]^C(n-2, r-1), which is costly to expand.
    """
    problems: list[str] = []
    v = report.get("verdict") or {}
    n_topes = v.get("n_topes")
    if n_topes != inst.topes:
        problems.append(f"n_topes {n_topes} != Zaslavsky count {inst.topes}")
    if report.get("instance", {}).get("n_bounded_topes") != n_topes:
        problems.append("instance.n_bounded_topes disagrees with verdict.n_topes")

    try:
        det_s = int(v.get("det_S"))
        rhs_s = int(v.get("rhs_S"))
    except (TypeError, ValueError):
        return problems + ["det_S or rhs_S is not an integer"]
    det_sq = _ints(v.get("det_Sq"), "det_Sq", problems)
    rhs_sq = _ints(v.get("rhs_Sq"), "rhs_Sq", problems)
    if not det_sq or not rhs_sq:
        return problems or ["det_Sq or rhs_Sq is empty"]

    if det_sq[0] != 1:
        problems.append(f"det S_q(0) = {det_sq[0]}, expected 1")
    if sum(det_sq) != det_s:
        problems.append(f"det S_q(1) = {sum(det_sq)} != det S = {det_s}")
    odd = [k for k in range(1, len(det_sq), 2) if det_sq[k]]
    if odd:
        problems.append(f"det S_q has nonzero odd coefficients at degrees {odd[:5]}")

    value, value_q = 1, [1]
    for f in v.get("factors", []):
        base, exponent = int(f["base"]), int(f["exponent"])
        value *= base ** exponent
        value_q = poly_mul(value_q, poly_pow(q_integer(base), exponent))
    if value != rhs_s:
        problems.append(f"rhs_S {rhs_s} != product of the factors {value}")
    if trim(value_q) != trim(rhs_sq):
        problems.append("rhs_Sq != product of the q-integer factors")

    if det_s != rhs_s or not v.get("theorem_match"):
        problems.append(f"theorem: det S {det_s} vs rhs {rhs_s}, "
                        f"match flag {v.get('theorem_match')}")
    if trim(det_sq) != trim(rhs_sq) or not v.get("conjecture_match"):
        problems.append(f"q-identity fails or is misreported "
                        f"(match flag {v.get('conjecture_match')})")

    if inst.uniform is not None:
        r, n = inst.uniform
        if n_topes != expected_uniform_topes(r, n):
            problems.append(f"uniform: n_topes {n_topes} != C({n - 1}, {r})")
        if det_s != uniform_det_S(r, n):
            problems.append(f"uniform: det S != {n}^C({n - 2}, {r - 1})")
        if (r, n) not in uniform_ref:
            uniform_ref[(r, n)] = poly_pow(q_integer(n), comb(n - 2, r - 1))
        if trim(det_sq) != uniform_ref[(r, n)]:
            problems.append(f"uniform: det S_q != [{n}]^C({n - 2}, {r - 1})")
    return problems


def check_invariants(report: dict, inst: Instance) -> list[str]:
    """An `invariants` report: every invariant passes, tope count is Zaslavsky's."""
    problems = []
    entries = report.get("invariants") or []
    if not entries:
        problems.append("no invariants reported")
    failed = [e.get("name") for e in entries if e.get("pass") is not True]
    if failed:
        problems.append(f"invariants failed: {failed}")
    if report.get("all_pass") is not True:
        problems.append(f"all_pass is {report.get('all_pass')!r}")
    count = report.get("instance", {}).get("n_bounded_topes")
    if count != inst.topes:
        problems.append(f"n_bounded_topes {count} != Zaslavsky count {inst.topes}")
    return problems


def check_vamos_topes(report: dict) -> list[str]:
    """A `matrix` report on the Vamos fixture lists the published tope set."""
    topes = (report.get("matrices") or {}).get("topes") or []
    got = set(topes)
    problems = []
    if len(topes) != len(got):
        problems.append("tope list has repeats")
    if got != VAMOS_TOPES:
        problems.append(f"Vamos topes differ from the published list: "
                        f"{len(got - VAMOS_TOPES)} extra, "
                        f"{len(VAMOS_TOPES - got)} missing")
    return problems
