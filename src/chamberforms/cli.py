"""Command-line surface: ingestion, verification, invariants, random sweeps.

Commands: check, matrix, det, rhs, invariants, random.  Reports are JSON
documents with canonical key order; identical input and seed produce
byte-identical output (timings are only included on request).  main loads
the input of every single-input command, runs it, and emits its report,
which _report wraps in one envelope; random writes one line per instance.
The check, det and random reports say in method how each determinant was
established: exact, or certified with an error bound that depends only on
the matrix, never on the random point or prime of the certificate.
check and random certify det S_q against the right-hand side where they
can, and reconstruct it only when that does not succeed; det always
reconstructs it.  So in check --timings, det_Sq_primes 0 with a nonzero
det_Sq_prime_bound means det S_q was certified equal to the right-hand
side, not reconstructed.

check, det and random take determinants over Z[q], whose word-size engine
(chamberforms.modular) is the one module that imports numpy; matrix, rhs
and invariants never load it.  main imports the engine when it dispatches
one of those three commands, before ingest, so that the first determinant
and the verify_s of --timings measure the work and not numpy's import:
loaded inside the first determinant, the import made verify_s of one
`check --timings` on fixtures/cyclic-r3-n7.json read 0.21 s, not 0.02 s
(2-core VM, Python 3.11, numpy 2.4).

Exit codes: 0 all identities matched (for invariants: every check passed);
2 q-identity mismatch, a finding reported with a full witness; 1 anything
else: a usage error, invalid input, vertex stars past their cap, a failed
invariant, or an internal inconsistency.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import sys
import time
from fractions import Fraction
from functools import cache
from pathlib import Path
from typing import NamedTuple, Optional

from . import __version__
from .arrangement import Arrangement, Hyperplane
from .flagspace import (build_y_matrix, check_basis_of_kernel,
                        expansion_matches_y, pairing, phi)
from .forms import (IntersectionForm, TheoremViolation, build_S, build_Sq,
                    rhs_classical, rhs_q, verify)
from .oriented_matroid import (AffineOrientedMatroid, ClosureCapExceeded,
                               separation)
from .polyring import (CertificateError, ExactDivisionError, IntPoly, poly_det,
                       poly_eval)

MATRIX_REPORT_LIMIT = 40
NUDGE_ATTEMPTS = 64  # offset draws per --nudge before giving up
RANDOM_ATTEMPTS = 400  # draws per random instance before it is skipped


class Instance(NamedTuple):
    kind: str
    om: AffineOrientedMatroid
    arrangement: Optional[Arrangement]
    digest: str


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def load_instance(path: str, nudge: Optional[int] = None) -> Instance:
    raw = Path(path).read_bytes()
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not valid JSON (line {exc.lineno}: {exc.msg})")
    except RecursionError:
        raise ValueError(f"{path}: not valid JSON (nested too deeply)") from None
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: top-level JSON must be an object")
    if "hyperplanes" in doc:
        arr = Arrangement.from_json(doc)
        violation = arr.validate_generic()
        if violation is not None and nudge is not None:
            arr = _nudge_offsets(arr, nudge)
            violation = arr.validate_generic()
        if violation is not None:
            raise ValueError(f"{path}: {violation.describe()}")
        return Instance("arrangement", arr.compile(), arr, _digest(raw))
    if "chirotope" in doc:
        return Instance("oriented_matroid", AffineOrientedMatroid.from_json(doc),
                        None, _digest(raw))
    raise ValueError(f"{path}: expected an arrangement ('hyperplanes') or an "
                     f"oriented matroid ('chirotope') document")


def _nudge_offsets(arr: Arrangement, seed: int) -> Arrangement:
    rng = random.Random(seed)
    for _ in range(NUDGE_ATTEMPTS):
        offsets = [h.offset + Fraction(rng.randint(-9, 9), rng.randint(101, 499))
                   for h in arr.hyperplanes]
        cand = arr.with_offsets(offsets)
        if cand.validate_generic() is None:
            return cand
    raise ValueError(f"nudging offsets failed after {NUDGE_ATTEMPTS} attempts; "
                     f"try a different --nudge seed")


# -- report assembly ----------------------------------------------------------

def _factors_json(factors) -> list[dict]:
    return [{"flat": list(f.flat), "base": f.base, "exponent": f.exponent}
            for f in factors]


def _method_json(det_s, det_sq) -> dict:
    """How each determinant was established: exact, or certified with an
    error bound that depends only on the matrix."""
    def how(det) -> dict:
        bits = det.method.error_bits
        if bits is None:
            return {"kind": "exact"}
        return {"kind": "certified", "error_bound": f"2^-{bits}"}
    return {"det_S": how(det_s), "det_Sq": how(det_sq)}


def _verdict_json(s_form, vs, vq) -> dict:
    return {
        "n_topes": s_form.n,
        "det_S": str(poly_eval(vs.lhs, 1)),
        "rhs_S": str(poly_eval(vs.rhs, 1)),
        "det_Sq": vq.lhs.coeff_strings(),
        "rhs_Sq": vq.rhs.coeff_strings(),
        "factors": _factors_json(vq.factors),
        "theorem_match": vs.match,
        "conjecture_match": vq.match,
        "method": _method_json(vs.lhs, vq.lhs),
    }


def _matrices_json(s: IntersectionForm, sq: IntersectionForm) -> dict:
    return {
        "topes": [t.text() for t in s.topes],
        "S": [[str(poly_eval(e, 1)) for e in row] for row in s.matrix],
        "S_q": [[e.coeff_strings() for e in row] for row in sq.matrix],
    }


def _report(inst: Instance, fields: dict) -> dict:
    """The envelope of a single-input report: instance first, then fields,
    then version and input digest, the key order its bytes are pinned in."""
    om = inst.om
    instance = {"type": inst.kind, "n": len(om.ground), "r": om.central.rank,
                "elements": list(om.ground),
                "n_bounded_topes": len(om.bounded_topes())}
    return {"instance": instance, **fields,
            "version": __version__, "input_digest": inst.digest}


def _write(text: str, out: Optional[str]) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def run_check(inst: Instance, args: argparse.Namespace, matrices: str = "auto",
              ) -> tuple[dict, int]:
    """matrices: 'auto' (size-gated) or 'on-mismatch' (witness)."""
    t0 = time.perf_counter()
    om = inst.om
    s = build_S(om)
    sq = build_Sq(om)
    t_forms = time.perf_counter()
    vs, vq = verify(om, forms=(s, sq))
    t_verify = time.perf_counter()
    if args.include_matrices:
        include = True
    elif matrices == "auto":
        include = s.n <= MATRIX_REPORT_LIMIT
    else:
        include = not vq.match
    return _report(inst, {
        "verdict": _verdict_json(s, vs, vq),
        "matrices": _matrices_json(s, sq) if include else None,
        "timings": {"forms_s": round(t_forms - t0, 6),
                    "verify_s": round(t_verify - t_forms, 6),
                    "det_Sq_primes": vq.lhs.method.primes,
                    "det_Sq_prime_bound": vq.lhs.method.bound,
                    } if args.timings else None,
    }), 0 if vq.match else 2


def run_matrix(inst: Instance, args: argparse.Namespace) -> tuple[dict, int]:
    return _report(inst, {"matrices": _matrices_json(build_S(inst.om),
                                                     build_Sq(inst.om))}), 0


def run_det(inst: Instance, args: argparse.Namespace) -> tuple[dict, int]:
    det_s = poly_det(build_S(inst.om).matrix)
    det_sq = poly_det(build_Sq(inst.om).matrix)
    return _report(inst, {"det_S": str(poly_eval(det_s, 1)),
                          "det_Sq": det_sq.coeff_strings(),
                          "method": _method_json(det_s, det_sq)}), 0


def run_rhs(inst: Instance, args: argparse.Namespace) -> tuple[dict, int]:
    m = inst.om.matroid()
    value, factors = rhs_classical(m)
    value_q, _ = rhs_q(m)
    return _report(inst, {"rhs_S": str(value),
                          "rhs_Sq": value_q.coeff_strings(),
                          "factors": _factors_json(factors)}), 0


# -- invariants ------------------------------------------------------------------

def structural_invariants(inst: Instance, seed: int) -> list[dict]:
    """Symmetry, q=1 specialization, Euler/palindromicity, flagspace suite.

    Each failing entry carries the first witness of its own check.  For an
    arrangement, det y and the phi expansion use the functional drawn from
    seed.  symmetry_S and symmetry_Sq hold by construction, as forms._sparse_form
    writes each unordered pair that shares a vertex to both of its cells; it
    is pinned by
    tests/test_forms.py::TestBuildSq::test_symmetry_and_q1_specialization.
    """
    om = inst.om
    results = []

    def add(name, ok, witness=None):
        entry = {"name": name, "pass": bool(ok)}
        if witness and not ok:
            entry["witness"] = witness
        results.append(entry)

    def add_first(name, witnesses):
        add(name, not witnesses, witnesses[0] if witnesses else None)

    s = build_S(om)
    sq = build_Sq(om)
    n = s.n
    ent_s, ent_q = s.matrix, sq.matrix

    add("symmetry_S", True)
    add("symmetry_Sq", True)
    add("q1_specialization", all(
        poly_eval(ent_q[i][j], 1) == poly_eval(ent_s[i][j], 1)
        for i in range(n) for j in range(n)))
    r = om.central.rank
    add("diagonal_degree_2r", all(ent_q[i][i].degree == 2 * r for i in range(n)))

    # the meet checks read S_q: a shared vertex gives (-q)^d h(q^2), h(0) = 1
    euler, palin, lowterm = [], [], []
    for i in range(n):
        for j in range(i, n):
            e = ent_q[i][j]
            if not e:
                continue  # no shared vertex
            d = separation(s.topes[i], s.topes[j])
            h = IntPoly(e.coeffs[d:]).scaled((-1) ** d)
            if h[0] != 1:
                euler.append(f"pair ({i},{j}) h(0)={h[0]}")
            hq2 = h.coeffs[::2]
            if hq2 != hq2[::-1]:
                palin.append(f"pair ({i},{j}) h={h}")
            if any(e.coeffs[:d]) or e.coeffs[d] != (-1) ** d:
                lowterm.append(f"pair ({i},{j}) entry {e}")
    add_first("euler_relation", euler)
    add_first("h_palindromicity", palin)
    add_first("lowest_degree_term", lowterm)

    vectors = [phi(om, t) for t in s.topes]
    # pairing and S are symmetric, so the pairs i <= j decide all n**2
    add("gram_identity", all(
        pairing(vectors[i], vectors[j]) == poly_eval(ent_s[i][j], 1)
        for i in range(n) for j in range(i, n)))

    rep = check_basis_of_kernel(om, vectors)
    add_first("kernel_membership", [f"boundary of phi({t.key()}) is nonzero"
                                    for t, ok in zip(s.topes, rep.kernel_flags)
                                    if not ok])
    add("tope_count_equals_mu_plus_dual", rep.mu_plus_dual == n,
        f"mu+={rep.mu_plus_dual} topes={n}")
    add("smith_divisors_all_one",
        len(rep.phi_divisors) == n and all(d == 1 for d in rep.phi_divisors),
        f"divisors={rep.phi_divisors}")
    add("boundary_kernel_dimension", rep.boundary_kernel_dim == n,
        f"dim={rep.boundary_kernel_dim}")

    if inst.kind == "arrangement":
        recompiled = Arrangement.from_json(inst.arrangement.to_json()).compile()
        add("canonical_order_stable", recompiled.to_json() == om.to_json())
        try:
            yrep = build_y_matrix(inst.arrangement, seed)
        except ValueError as exc:
            add("det_y_unimodular", False, str(exc))
        else:
            results.append({"name": "det_y_unimodular", "pass": True,
                            "det_y": yrep.det_y, "xi": list(yrep.xi)})
            add_first("phi_expansion_matches_y",
                      expansion_matches_y(om, yrep, vectors))
    return results


def run_invariants(inst: Instance, args: argparse.Namespace) -> tuple[dict, int]:
    results = structural_invariants(inst, args.seed)
    ok = all(r["pass"] for r in results)
    return _report(inst, {"invariants": results, "all_pass": ok}), 0 if ok else 1


# -- random sweeps ------------------------------------------------------------------

def generate_random_arrangement(rng: random.Random, dim: int,
                                n: int) -> Optional[Arrangement]:
    """Random integer normals and rational offsets, retried until generic."""
    for _ in range(RANDOM_ATTEMPTS):
        hyps = []
        for i in range(1, n + 1):
            while True:
                normal = tuple(rng.randint(-4, 4) for _ in range(dim))
                if any(normal):
                    break
            offset = Fraction(rng.randint(-24, 24), rng.randint(1, 6))
            hyps.append(Hyperplane.make(f"H{i}", [str(x) for x in normal],
                                        str(offset)))
        arr = Arrangement(dim, hyps)
        try:
            if arr.validate_generic() is None:
                return arr
        except ValueError:
            continue  # inessential draw
    return None


def cmd_random(args: argparse.Namespace) -> int:
    if not (1 <= args.dim <= 4):
        raise ValueError("random sweeps support --dim between 1 and 4")
    if not (args.dim <= args.n <= 10):
        raise ValueError("random sweeps support --n between dim and 10")
    if args.count < 0:
        raise ValueError("random sweeps support --count of at least 0")
    lines = []
    matches = 0
    mismatches = 0
    skipped = 0
    for i in range(args.count):
        rng = random.Random(f"{args.seed}:{i}")
        arr = generate_random_arrangement(rng, args.dim, args.n)
        if arr is None:
            skipped += 1
            print(f"instance {i}: no generic arrangement found, skipped",
                  file=sys.stderr)
            continue
        doc = json.dumps(arr.to_json(), sort_keys=True).encode()
        inst = Instance("arrangement", arr.compile(), arr, _digest(doc))
        report, code = run_check(inst, args, matrices="on-mismatch")
        report["instance_index"] = i
        if code == 0:
            matches += 1
        else:
            mismatches += 1
        lines.append(json.dumps(report, separators=(",", ":")))
    _write("\n".join(lines) + ("\n" if lines else ""), args.out)
    print(f"instances: {args.count - skipped}  matches: {matches}  "
          f"mismatches: {mismatches}  skipped: {skipped}", file=sys.stderr)
    return 2 if mismatches else 0


# -- entry point -----------------------------------------------------------------------

@cache  # one parser per process; parse_args leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chamberforms",
        description="Intersection matrices of bounded chambers and their "
                    "determinant identities, in exact arithmetic.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, needs_input=True, seed=False, check=False):
        """A subcommand with only the options that its command reads."""
        p = sub.add_parser(name, help=help_text)
        if needs_input:
            p.add_argument("--input", required=True,
                           help="arrangement or oriented-matroid JSON file")
            p.add_argument("--nudge", type=int, default=None, metavar="SEED",
                           help="re-randomize non-generic offsets from this seed")
        p.add_argument("--out", default=None, help="write the report here")
        if seed:
            p.add_argument("--seed", type=int, default=0)
        if check:
            p.add_argument("--include-matrices", action="store_true")
            p.add_argument("--timings", action="store_true",
                           help="include wall-clock timings (breaks byte-stability)")
        return p

    add("check", "verify both determinant identities end to end", check=True)
    add("matrix", "emit the S and S_q matrices")
    add("det", "emit the two determinants")
    add("rhs", "emit the product-formula factorization")
    add("invariants", "run the structural and proof-machinery checks", seed=True)
    p = add("random", "sweep random generic arrangements", needs_input=False,
            seed=True, check=True)
    p.add_argument("--dim", type=int, required=True, help="ambient dimension r")
    p.add_argument("--n", type=int, required=True, help="number of hyperplanes")
    p.add_argument("--count", type=int, default=10)
    return parser


# The single-input commands: each maps an instance to its report and exit code.
COMMANDS = {
    "check": run_check,
    "matrix": run_matrix,
    "det": run_det,
    "rhs": run_rhs,
    "invariants": run_invariants,
}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a usage error; 2 is reserved for findings
        return 1 if exc.code == 2 else exc.code
    if args.command in ("check", "det", "random"):
        # at dispatch, so --timings and the first det do not time numpy's import
        from . import modular  # noqa: F401
    try:
        if args.command == "random":
            return cmd_random(args)
        report, code = COMMANDS[args.command](
            load_instance(args.input, args.nudge), args)
        _write(json.dumps(report, indent=2) + "\n", args.out)
        return code
    except (ValueError, OSError, ClosureCapExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (TheoremViolation, CertificateError, ExactDivisionError) as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
