"""Each checker accepts the program's real output and rejects a wrong one.

Run from the root of the checkout: python3 -m pytest perfbench -q
"""

from __future__ import annotations

import copy
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
import workloads  # noqa: E402
from chamberforms import cli  # noqa: E402


def run_cli(tmp_path, command, inst):
    path, = workloads.write_inputs([inst], tmp_path)
    out = tmp_path / f"{inst.name}-{command}.json"
    assert cli.main([command, "--input", str(path), "--out", str(out)]) == 0
    return json.loads(out.read_text())


@pytest.fixture(scope="module")
def uniform(tmp_path_factory):
    """A generic arrangement of 6 lines with uniform matroid, and its report."""
    r, n = 2, 6
    normals, offsets = workloads.uniform_arrangement(random.Random(5), r, n)
    inst = workloads.make_instance("u", normals, offsets, uniform=(r, n))
    return inst, run_cli(tmp_path_factory.mktemp("u"), "check", inst)


@pytest.fixture(scope="module")
def small(tmp_path_factory):
    """A sweep instance with parallel or dependent normals, and its report."""
    inst = next(i for i in workloads.sweep(3) if i.doc["dim"] == 3
                and len(i.doc["hyperplanes"]) == 7)
    return inst, run_cli(tmp_path_factory.mktemp("s"), "check", inst)


@pytest.fixture(scope="module")
def vamos(tmp_path_factory):
    inst = workloads.vamos_instance()
    tmp = tmp_path_factory.mktemp("v")
    return inst, run_cli(tmp, "invariants", inst), run_cli(tmp, "matrix", inst)


def tampered(report, **verdict):
    out = copy.deepcopy(report)
    out["verdict"].update(verdict)
    return out


class TestZaslavsky:
    def test_points_on_a_line(self):
        # n distinct points bound n - 1 segments, whatever the normals' scale
        assert workloads.zaslavsky_bounded([[1]] * 7) == 6
        assert workloads.zaslavsky_bounded([[1], [2], [-3], [1]]) == 3

    def test_example_13(self):
        # two parallel lines, one vertical, one diagonal: two bounded triangles
        assert workloads.zaslavsky_bounded([[0, 1], [0, 1], [1, 0], [-1, 1]]) == 2

    def test_uniform_count(self):
        normals, _ = workloads.uniform_arrangement(random.Random(1), 3, 7)
        expected = workloads.expected_uniform_topes(3, 7)
        assert workloads.zaslavsky_bounded(normals) == expected

    def test_vamos(self):
        assert workloads.vamos_instance().topes == 30


class TestInputs:
    def test_uniform_draws_end(self):
        # an early draw in these streams is a zero normal (oracle seed 102) or
        # two parallel normals ("dense:204", r = 3); taking either would leave
        # no acceptable normal after it
        assert len(workloads.oracle(102)) == 16
        normals, _ = workloads.uniform_arrangement(random.Random("dense:204"), 3, 9)
        assert len(normals) == 9

    def test_unimodular(self):
        rng = random.Random(0)
        for r in (1, 2, 3, 4):
            assert abs(workloads.det(workloads.unimodular(rng, r))) == 1

    def test_change_of_coordinates_keeps_the_report(self, small, tmp_path):
        inst, report = small
        normals = [[int(x) for x in h["normal"]] for h in inst.doc["hyperplanes"]]
        offsets = [Fraction(h["offset"]) for h in inst.doc["hyperplanes"]]
        moved = workloads.make_instance("moved", *workloads.change_coordinates(
            random.Random(1), normals, offsets))
        assert moved.doc != inst.doc and moved.topes == inst.topes
        verdict = run_cli(tmp_path, "check", moved)["verdict"]
        for key in ("n_topes", "det_S", "det_Sq"):
            assert verdict[key] == report["verdict"][key]


class TestCheckReport:
    def test_accepts_real_reports(self, uniform, small):
        for inst, report in (uniform, small):
            assert checks.check_report(report, inst, {}) == []

    @pytest.mark.parametrize("degree", [0, 2, 4])
    def test_tampered_det_sq_coefficient(self, uniform, degree):
        inst, report = uniform
        det_sq = list(report["verdict"]["det_Sq"])
        det_sq[degree] = str(int(det_sq[degree]) + 2)
        assert checks.check_report(tampered(report, det_Sq=det_sq), inst, {})

    def test_odd_coefficient(self, small):
        inst, report = small
        det_sq = list(report["verdict"]["det_Sq"])
        det_sq[1], det_sq[3] = "1", "-1"  # det S_q(1) is unchanged
        assert checks.check_report(tampered(report, det_Sq=det_sq), inst, {})

    @pytest.mark.parametrize("delta", [-1, 1])
    def test_tope_count_off_by_one(self, uniform, small, delta):
        for inst, report in (uniform, small):
            bad = tampered(report, n_topes=report["verdict"]["n_topes"] + delta)
            bad["instance"]["n_bounded_topes"] += delta
            assert checks.check_report(bad, inst, {})

    def test_det_s(self, small):
        inst, report = small
        bad = tampered(report, det_S=str(int(report["verdict"]["det_S"]) + 1))
        assert checks.check_report(bad, inst, {})

    def test_rhs_not_the_product_of_its_factors(self, uniform):
        inst, report = uniform
        factors = copy.deepcopy(report["verdict"]["factors"])
        factors[0]["exponent"] += 1
        assert checks.check_report(tampered(report, factors=factors), inst, {})
        bad = tampered(report, rhs_S=str(int(report["verdict"]["rhs_S"]) * 2))
        assert checks.check_report(bad, inst, {})

    def test_match_flags(self, small):
        inst, report = small
        assert checks.check_report(tampered(report, conjecture_match=False), inst, {})
        assert checks.check_report(tampered(report, theorem_match=False), inst, {})

    def test_uniform_closed_form(self, uniform):
        # a consistent report of another size still fails the closed forms
        inst, report = uniform
        r, n = inst.uniform
        other = workloads.Instance(inst.name, inst.doc, inst.topes, uniform=(r, n + 1))
        assert checks.check_report(report, other, {})


class TestInvariants:
    def test_accepts_real_report(self, vamos):
        inst, report, _ = vamos
        assert checks.check_invariants(report, inst) == []

    def test_failed_invariant(self, vamos):
        inst, report, _ = vamos
        bad = copy.deepcopy(report)
        bad["invariants"][3]["pass"] = False
        assert checks.check_invariants(bad, inst)
        bad = copy.deepcopy(report)
        bad["all_pass"] = False
        assert checks.check_invariants(bad, inst)

    def test_tope_count_off_by_one(self, vamos):
        inst, report, _ = vamos
        bad = copy.deepcopy(report)
        bad["instance"]["n_bounded_topes"] += 1
        assert checks.check_invariants(bad, inst)


class TestVamosTopes:
    def test_accepts_real_report(self, vamos):
        assert checks.check_vamos_topes(vamos[2]) == []

    def test_missing_and_wrong_topes(self, vamos):
        report = vamos[2]
        bad = copy.deepcopy(report)
        bad["matrices"]["topes"].pop()
        assert checks.check_vamos_topes(bad)
        bad = copy.deepcopy(report)
        bad["matrices"]["topes"][0] = bad["matrices"]["topes"][0].replace("-3", "3")
        assert checks.check_vamos_topes(bad)


def test_tracer_counts_and_restores(small, tmp_path):
    from chamberforms import forms, matroid, polyring
    from tracing import Tracer
    originals = (polyring.poly_det, forms.poly_det, cli.build_S,
                 matroid.Matroid.__dict__["__init__"])
    tracer = Tracer()
    tracer.install()
    try:
        report = tracer.call("cli.self_s", run_cli, tmp_path, "check", small[0])
    finally:
        tracer.uninstall()
    assert (polyring.poly_det, forms.poly_det, cli.build_S,
            matroid.Matroid.__dict__["__init__"]) == originals
    snap = tracer.snapshot()
    assert snap["polyring.det_Sq_calls"] == 1
    assert snap["oriented_matroid.topes"] == report["verdict"]["n_topes"]
    assert snap["matroid.constructions"] > 0 and snap["polyring.det_Sq_s"] > 0
