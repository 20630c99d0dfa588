"""Acceptance criteria, one test per criterion.

Each test prints one PASS line (with its wall-clock time) after asserting the
criterion at its stated tolerance; all numeric comparisons are exact.
"""

import json
import random
import time
from dataclasses import dataclass, field

import pytest

from chamberforms import cli, vamos
from chamberforms.arrangement import Arrangement
from chamberforms.flagspace import (build_y_matrix, check_basis_of_kernel,
                                    pairing, phi)
from chamberforms.forms import build_S, build_Sq, rhs_classical, verify
from chamberforms.matroid import uniform_matroid
from chamberforms.oriented_matroid import SignVector
from chamberforms.polyring import (IntPoly, poly_det, poly_eval, poly_pow,
                                   q_integer)
from conftest import (FIXTURE_DIR, example13_C, example13_Cprime,
                      line_points, load_fixture, mobius_plus, random_arrangement,
                      uniform_lines)


def report(criterion, elapsed, detail=""):
    print(f"ACCEPTANCE {criterion}: PASS ({elapsed:.2f}s) {detail}")


@dataclass
class SweepRecord:
    arrangement: Arrangement
    n_topes: int
    det_s: int
    rhs_s: int
    det_sq: IntPoly
    rhs_sq: IntPoly


@dataclass
class Sweep:
    records: list = field(default_factory=list)
    elapsed: float = 0.0


@pytest.fixture(scope="session")
def random_sweep() -> Sweep:
    """>= 100 random validated arrangements with r <= 3, n <= 8."""
    rng = random.Random(0xC0FFEE)
    sweep = Sweep()
    t0 = time.perf_counter()
    while len(sweep.records) < 100:
        r = rng.choice([1, 2, 3])
        n = rng.randint(r, 8)
        arr = random_arrangement(rng, r, n)
        if arr is None:
            continue
        om = arr.compile()
        s, sq = build_S(om), build_Sq(om)
        vs, vq = verify(om, forms=(s, sq))
        sweep.records.append(SweepRecord(
            arr, s.n, poly_eval(vs.lhs, 1), poly_eval(vs.rhs, 1),
            vq.lhs, vq.rhs))
    sweep.elapsed = time.perf_counter() - t0
    return sweep


def test_criterion_1_example_reproduction():
    t0 = time.perf_counter()
    expectations = {
        "example13-C.json": [[3, 1], [1, 3]],
        "example13-Cprime.json": [[3, -2], [-2, 4]],
    }
    target_q = q_integer(4) * q_integer(2)
    for name, want_s in expectations.items():
        arr = Arrangement.from_json(load_fixture(name))
        om = arr.compile()
        s, sq = build_S(om), build_Sq(om)
        assert [[poly_eval(e, 1) for e in row] for row in s.matrix] == want_s
        assert poly_eval(poly_det(s.matrix), 1) == 8
        assert poly_det(sq.matrix) == target_q
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report(1, elapsed, "S, det S = 8, det S_q = [4][2] on both fixtures")


def test_criterion_2_points_on_a_line():
    t0 = time.perf_counter()
    for n in range(1, 51):
        om = line_points(n).compile()
        s, sq = build_S(om), build_Sq(om)
        assert s.n == n
        for i in range(n):
            for j in range(n):
                want = 2 if i == j else -1 if abs(i - j) == 1 else 0
                assert poly_eval(s.matrix[i][j], 1) == want
        assert poly_eval(poly_det(s.matrix), 1) == n + 1
        assert poly_det(sq.matrix) == q_integer(n + 1)
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    report(2, elapsed, "tridiagonal, det S = n+1, det S_q = [n+1] for n = 1..50")


def test_criterion_3_generic_eight_lines():
    t0 = time.perf_counter()
    target = poly_pow(q_integer(8), 6)
    for seed in range(5):
        arr = uniform_lines(random.Random(seed), 8)
        om = arr.compile()
        assert len(om.bounded_topes()) == 21
        assert poly_det(build_Sq(om).matrix) == target
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    report(3, elapsed, "21 bounded topes and det S_q = [8]^6 for 5 seeds")


def test_criterion_4_vamos():
    t0 = time.perf_counter()
    from chamberforms.oriented_matroid import AffineOrientedMatroid
    om = AffineOrientedMatroid.from_json(
        json.loads((FIXTURE_DIR / "vamos.json").read_text()))
    topes = om.bounded_topes()
    expected = sorted(SignVector.from_text(vamos.GROUND, t).key()
                      for t in vamos.BOUNDED_TOPES)
    assert [t.key() for t in topes] == expected
    det = poly_det(build_Sq(om).matrix)
    assert det == poly_pow(q_integer(8), 15) * poly_pow(q_integer(4), 5)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    report(4, elapsed, "30 published topes and det S_q = [8]^15 [4]^5")


def test_criterion_5_matroid_invariants():
    t0 = time.perf_counter()
    assert uniform_matroid(2, 8).beta() == 6
    assert uniform_matroid(1, 4).beta() == 1
    v = vamos.derive_chirotope().to_matroid()
    assert v.beta() == 15
    proper = [set(v.elements(f.elements)) for f in v.coloop_free_flats()
              if f.elements and f.elements != v.mask(v.ground)]
    assert proper == [{"1", "3", "5", "6"}, {"1", "3", "7", "8"},
                      {"2", "4", "5", "6"}, {"2", "4", "7", "8"},
                      {"5", "6", "7", "8"}]
    suite = [uniform_matroid(1, 2), uniform_matroid(2, 3), uniform_matroid(1, 4),
             uniform_matroid(2, 8), example13_C().matroid(), v, v.dual()]
    for m in suite:
        for f in m.flats():
            assert mobius_plus(m, f) == m.restrict(f.elements).tutte(1, 0)
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    report(5, elapsed, "beta values, Vamos coloop-free flats, "
                       "mu+ = T(1, 0) of every restriction to a flat")


def test_criterion_6_theorem_identity_sweep(random_sweep):
    for i, rec in enumerate(random_sweep.records):
        assert rec.det_s == rec.rhs_s, \
            f"instance {i}: det S = {rec.det_s} != {rec.rhs_s}"
    assert len(random_sweep.records) >= 100
    assert random_sweep.elapsed < 120.0
    report(6, random_sweep.elapsed,
           f"det S = product formula on {len(random_sweep.records)} random instances")


def test_criterion_7_proof_machinery_oracle(random_sweep):
    t0 = time.perf_counter()
    fixture_oms = [example13_C().compile(), example13_Cprime().compile(),
                   line_points(5).compile(), line_points(10).compile()]
    from chamberforms.oriented_matroid import AffineOrientedMatroid
    fixture_oms.append(AffineOrientedMatroid.from_json(
        json.loads((FIXTURE_DIR / "vamos.json").read_text())))
    rng = random.Random(7177)
    random_instances = []
    while len(random_instances) < 25:
        arr = random_arrangement(rng, rng.choice([1, 2, 3]), rng.randint(2, 7))
        if arr is not None:
            random_instances.append(arr)

    for om in fixture_oms + [a.compile() for a in random_instances]:
        s = build_S(om)
        vecs = [phi(om, t) for t in s.topes]
        for i in range(s.n):
            for j in range(s.n):
                assert pairing(vecs[i], vecs[j]) == poly_eval(s.matrix[i][j], 1)
        rep = check_basis_of_kernel(om, vecs)
        assert all(rep.kernel_flags)
        assert rep.mu_plus_dual == s.n == rep.phi_rank == rep.boundary_kernel_dim
        assert all(d == 1 for d in rep.phi_divisors)
    for k, arr in enumerate(random_instances):
        assert build_y_matrix(arr, seed=k).det_y in (1, -1)
    for arr in (example13_C(), example13_Cprime(), line_points(5),
                line_points(10)):
        assert build_y_matrix(arr, seed=1).det_y in (1, -1)
    elapsed = time.perf_counter() - t0
    report(7, elapsed, "Gram, kernel, counts, Smith divisors, det y on "
                       f"{len(fixture_oms)} fixtures + 25 random instances")


def test_criterion_8_structural_invariants():
    t0 = time.perf_counter()
    rng = random.Random(88)
    instances = [example13_C(), example13_Cprime(), line_points(6)]
    while len(instances) < 8:
        arr = random_arrangement(rng, rng.choice([2, 3]), rng.randint(3, 7))
        if arr is not None:
            instances.append(arr)

    from chamberforms.forms import h_poly
    from chamberforms.oriented_matroid import separation
    for arr in instances:
        om = arr.compile()
        s, sq = build_S(om), build_Sq(om)
        n = s.n
        for i in range(n):
            for j in range(n):
                assert sq.matrix[i][j] == sq.matrix[j][i]
                assert s.matrix[i][j] == s.matrix[j][i]
                assert poly_eval(sq.matrix[i][j], 1) == poly_eval(s.matrix[i][j], 1)
            for j in range(i, n):
                f = om.meet_faces(s.topes[i], s.topes[j])
                if f is None:
                    continue
                assert sum((-1) ** k * fk for k, fk in enumerate(f)) == 1
                h = h_poly(f).coeffs[::2]
                assert list(h) == list(reversed(h))

        det_s = poly_det(s.matrix)
        det_sq = poly_det(sq.matrix)

        # random relabeling and reordering of the hyperplane list
        perm = list(arr.hyperplanes)
        rng.shuffle(perm)
        renamed = [h._replace(label=f"K{k}") for k, h in enumerate(perm)]
        shuffled = Arrangement(arr.dim, renamed)
        om2 = shuffled.compile()
        assert poly_det(build_S(om2).matrix) == det_s
        assert poly_det(build_Sq(om2).matrix) == det_sq

        # generic offset re-randomization
        from fractions import Fraction
        for _ in range(20):
            offsets = [Fraction(rng.randint(-30, 30), rng.randint(1, 7))
                       for _ in arr.hyperplanes]
            cand = arr.with_offsets(offsets)
            if cand.validate_generic() is None:
                om3 = cand.compile()
                assert poly_det(build_S(om3).matrix) == det_s
                assert poly_det(build_Sq(om3).matrix) == det_sq
                break
    elapsed = time.perf_counter() - t0
    report(8, elapsed, f"symmetry, q=1, Euler, palindromicity, invariance on "
                       f"{len(instances)} instances")


def test_criterion_9_conjecture_sweep(random_sweep, monkeypatch, tmp_path, capsys):
    t0 = time.perf_counter()
    mismatches = [i for i, rec in enumerate(random_sweep.records)
                  if rec.det_sq != rec.rhs_sq]
    # paper-covered instances must match
    for om in (example13_C().compile(), example13_Cprime().compile(),
               line_points(10).compile()):
        _, vq = verify(om)
        assert vq.match
    import chamberforms.oriented_matroid as om_mod
    vam = om_mod.AffineOrientedMatroid.from_json(
        json.loads((FIXTURE_DIR / "vamos.json").read_text()))
    _, vq = verify(vam)
    assert vq.match

    # a genuine mismatch elsewhere must surface as exit code 2 with a witness
    # report, never as a crash; force one to prove the path works
    import chamberforms.forms as forms_mod
    real = forms_mod.rhs_q

    def wrong(m):
        value, factors = real(m)
        return value * q_integer(2), factors

    monkeypatch.setattr(forms_mod, "rhs_q", wrong)
    out = tmp_path / "forced.jsonl"
    code = cli.main(["random", "--dim", "2", "--n", "5", "--count", "1",
                     "--seed", "1", "--out", str(out)])
    monkeypatch.undo()
    capsys.readouterr()
    assert code == 2
    forced = json.loads(out.read_text().splitlines()[0])
    assert forced["verdict"]["conjecture_match"] is False
    assert forced["matrices"] is not None  # witness includes the matrices
    assert forced["verdict"]["factors"]

    elapsed = time.perf_counter() - t0
    detail = (f"{len(random_sweep.records)} instances, "
              f"{len(mismatches)} mismatches")
    if mismatches:
        # a real finding: surfaced, not a test failure
        detail += f" (instances {mismatches} reported as findings)"
    report(9, elapsed, detail)
