import json
import os
import random
import subprocess
import sys
import time
from itertools import combinations
from pathlib import Path

import pytest

from chamberforms import cli
from chamberforms.matroid import Matroid
from chamberforms.polyring import IntPoly
from conftest import FIXTURE_DIR, FIXTURE_NAMES, line_points, uniform_arrangement


def run_cli(args, module="chamberforms.cli", env=(), **kw):
    # the child process imports the same chamberforms as this one
    path = [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p),
               **dict(env))
    return subprocess.run([sys.executable, "-m", module, *args],
                          capture_output=True, text=True, env=env, **kw)


def run_main(args):
    """In-process invocation; returns (exit_code, parsed_report)."""
    import io
    from contextlib import redirect_stdout
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(args)
    out = buf.getvalue()
    return code, json.loads(out) if out.strip().startswith("{") else out


def tangent_lines(tmp_path, n: int) -> Path:
    """n tangent lines x0 + t x1 = t^2 of a parabola, t = 1 .. n: no three
    through a point, so C(n - 1, 2) bounded topes."""
    doc = {"dim": 2, "hyperplanes": [
        {"label": f"H{t}", "normal": ["1", str(t)], "offset": str(t * t)}
        for t in range(1, n + 1)]}
    path = tmp_path / f"lines-{n}.json"
    path.write_text(json.dumps(doc))
    return path


def patch_rhs_q(monkeypatch, change):
    """forms.rhs_q with its polynomial replaced by change(polynomial)."""
    import chamberforms.forms as forms_mod
    real = forms_mod.rhs_q

    def patched(m):
        value, factors = real(m)
        return change(value), factors
    monkeypatch.setattr(forms_mod, "rhs_q", patched)


class TestCheck:
    def test_example13_fixture(self):
        code, rep = run_main(["check", "--input",
                              str(FIXTURE_DIR / "example13-C.json")])
        assert code == 0
        assert rep["verdict"]["det_S"] == "8"
        assert rep["verdict"]["theorem_match"] and rep["verdict"]["conjecture_match"]
        assert rep["verdict"]["det_Sq"] == ["1", "0", "2", "0", "2", "0", "2", "0", "1"]

    def test_line_n10(self):
        code, rep = run_main(["check", "--input",
                              str(FIXTURE_DIR / "line-n10.json")])
        assert code == 0
        # det S_q = [11] in q^2
        expect = ["1", "0"] * 10 + ["1"]
        assert rep["verdict"]["det_Sq"] == expect

    def test_vamos_fixture(self):
        code, rep = run_main(["check", "--input", str(FIXTURE_DIR / "vamos.json")])
        assert code == 0
        assert rep["instance"]["n_bounded_topes"] == 30
        assert rep["verdict"]["factors"][0] == {"flat": [], "base": 8,
                                                "exponent": 15}

    def test_reports_are_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        for out in (out1, out2):
            code, _ = run_main(["check", "--input",
                                str(FIXTURE_DIR / "example13-Cprime.json"),
                                "--out", str(out)])
            assert code == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_line_n21(self, tmp_path):
        # past the 20 ground elements that flat enumeration once refused
        p = tmp_path / "line21.json"
        p.write_text(json.dumps(line_points(21).to_json()))
        code, rep = run_main(["check", "--input", str(p)])
        assert code == 0
        assert rep["verdict"]["n_topes"] == 21
        assert rep["verdict"]["det_S"] == "22"

    @pytest.mark.parametrize("name", sorted(p.name for p in FIXTURE_DIR.glob("*.json")))
    def test_exchange_checked_once_per_document(self, name, monkeypatch):
        calls = []
        real = Matroid.check_exchange

        def counted(m):
            calls.append(m)
            real(m)
        monkeypatch.setattr(Matroid, "check_exchange", counted)
        code, _ = run_main(["check", "--input", str(FIXTURE_DIR / name)])
        assert code == 0
        doc = json.loads((FIXTURE_DIR / name).read_text())
        assert len(calls) == (1 if "chirotope" in doc else 0)

    def test_tangent_lines_30(self, tmp_path):
        """406 bounded topes: det S_q is certified against the right-hand
        side, with a verify_s of about 0.15 s, not reconstructed from 6 of
        38 primes, which took about 2.8 s (2-core VM)."""
        path = tangent_lines(tmp_path, 30)
        start = time.perf_counter()
        code, rep = run_main(["check", "--input", str(path), "--timings"])
        assert time.perf_counter() - start < 5.0
        assert code == 0 and rep["instance"]["n_bounded_topes"] == 406
        assert rep["timings"]["det_Sq_primes"] == 0

    def test_timings_excluded_by_default(self):
        _, rep = run_main(["check", "--input",
                           str(FIXTURE_DIR / "example13-C.json")])
        assert rep["timings"] is None
        _, rep = run_main(["check", "--input",
                           str(FIXTURE_DIR / "example13-C.json"), "--timings"])
        assert "forms_s" in rep["timings"]

    def test_timings_count_the_primes_of_det_sq(self):
        # det S_q is certified against the right-hand side: no prime is used
        for name, bound in (("vamos.json", 5), ("cyclic-r3-n7.json", 3)):
            _, rep = run_main(["check", "--input", str(FIXTURE_DIR / name),
                               "--timings"])
            assert rep["timings"]["det_Sq_primes"] == 0
            assert rep["timings"]["det_Sq_prime_bound"] == bound

    def test_method_says_how_each_determinant_was_established(self):
        vamos = str(FIXTURE_DIR / "vamos.json")
        _, check = run_main(["check", "--input", vamos])
        _, det = run_main(["det", "--input", vamos])
        assert check["verdict"]["method"] == det["method"]
        assert det["method"]["det_S"] == {"kind": "exact"}
        how = det["method"]["det_Sq"]
        assert how["kind"] == "certified"
        assert how["error_bound"] == f"2^-{int(how['error_bound'][3:])}"

    def test_matrix_gate(self):
        _, rep = run_main(["check", "--input", str(FIXTURE_DIR / "vamos.json")])
        assert rep["matrices"] is not None  # 30 <= 40
        _, rep = run_main(["check", "--input",
                           str(FIXTURE_DIR / "example13-C.json")])
        assert rep["matrices"]["S"] == [["3", "1"], ["1", "3"]]

    def test_conjecture_mismatch_exit_2(self, monkeypatch):
        from chamberforms.polyring import q_integer
        patch_rhs_q(monkeypatch, lambda value: value * q_integer(2))
        code, rep = run_main(["check", "--input",
                              str(FIXTURE_DIR / "example13-C.json")])
        assert code == 2
        assert rep["verdict"]["conjecture_match"] is False
        assert rep["verdict"]["theorem_match"] is True


class TestIdentityRoute:
    """check certifies det S_q = RHS at one random point, and takes the
    engine only when the bound allows under three primes or the
    certificate does not succeed."""

    @pytest.fixture
    def draws(self, monkeypatch):
        """(certificate, g) for each certificate draw, in order."""
        from chamberforms import modular
        passes = modular._Certificate.passes
        seen = []

        def spy(certificate, g):
            seen.append((certificate, tuple(g)))
            return passes(certificate, g)
        monkeypatch.setattr(modular._Certificate, "passes", spy)
        return seen

    @pytest.fixture
    def engine_batches(self, monkeypatch):
        """The primes of each batched elimination of the engine."""
        from chamberforms import modular
        batch = modular._batch_det_mod
        primes = []

        def spy(a, p):
            primes.append(p)
            return batch(a, p)
        monkeypatch.setattr(modular, "_batch_det_mod", spy)
        return primes

    def test_plausible_wrong_rhs_gets_the_engine_witness(self, monkeypatch,
                                                         draws, tmp_path):
        """An even RHS within H and of the right degree fails the one
        identity certificate; the engine then supplies the witness."""
        vamos = str(FIXTURE_DIR / "vamos.json")
        _, det = run_main(["det", "--input", vamos])
        draws.clear()
        patch_rhs_q(monkeypatch, lambda value: value + IntPoly((0, 0, 1)))
        code, rep = run_main(["check", "--input", vamos, "--timings"])
        assert code == 2 and rep["verdict"]["conjecture_match"] is False
        assert rep["timings"]["det_Sq_primes"] > 0
        assert rep["matrices"] is not None
        assert rep["verdict"]["det_Sq"] == det["det_Sq"]
        assert rep["verdict"]["method"] == det["method"]
        # one draw against the RHS, in t = q^2, then the engine's own
        wrong = tuple(int(c) for c in rep["verdict"]["rhs_Sq"][::2])
        identity = draws[0][0]
        assert [g for c, g in draws if c is identity] == [wrong]
        assert len({c for c, _ in draws}) == 2

        draws.clear()
        out = tmp_path / "random.jsonl"
        assert cli.main(["random", "--dim", "3", "--n", "7", "--count", "1",
                         "--seed", "5", "--out", str(out)]) == 2
        rep = json.loads(out.read_text())
        assert rep["verdict"]["conjecture_match"] is False
        assert rep["matrices"] is not None
        assert draws[0][1] == tuple(int(c) for c in rep["verdict"]["rhs_Sq"][::2])

    @pytest.mark.parametrize("change", [
        lambda value: value + IntPoly((2 ** 400,)),    # a coefficient above H
        lambda value: value.shifted(1000),             # degree above the bound
        lambda value: value + IntPoly((0, 1)),         # an odd exponent
    ], ids=["above-H", "degree", "odd"])
    def test_impossible_rhs_takes_the_engine_without_a_draw(self, monkeypatch,
                                                            draws, change):
        patch_rhs_q(monkeypatch, change)
        code, rep = run_main(["check", "--input", str(FIXTURE_DIR / "vamos.json"),
                              "--timings"])
        assert code == 2 and rep["timings"]["det_Sq_primes"] > 0
        assert len({c for c, _ in draws}) == 1  # the engine's certificate only

    @pytest.mark.parametrize("name", ["vamos", "cyclic-r3-n7", "dense-r3-n9",
                                      "lines-30"])
    def test_check_takes_no_engine_point(self, name, engine_batches, tmp_path):
        if name == "dense-r3-n9":
            path = tmp_path / "dense-r3-n9.json"
            path.write_text(json.dumps(
                uniform_arrangement(random.Random(1), 3, 9).to_json()))
        elif name == "lines-30":
            path = tangent_lines(tmp_path, 30)
        else:
            path = FIXTURE_DIR / f"{name}.json"
        code, rep = run_main(["check", "--input", str(path), "--timings"])
        assert code == 0 and rep["timings"]["det_Sq_primes"] == 0
        assert rep["verdict"]["method"]["det_Sq"]["kind"] == "certified"
        assert engine_batches == []

    @pytest.mark.parametrize("name", ["line-n5", "example13-C"])
    def test_below_three_primes_takes_the_engine(self, name, engine_batches):
        code, rep = run_main(["check", "--input", str(FIXTURE_DIR / f"{name}.json"),
                              "--timings"])
        assert code == 0
        assert rep["timings"]["det_Sq_prime_bound"] < 3
        assert rep["verdict"]["method"]["det_Sq"] == {"kind": "exact"}
        assert engine_batches

    def test_check_and_det_agree_on_method(self):
        for name in FIXTURE_NAMES:
            path = str(FIXTURE_DIR / name)
            _, check = run_main(["check", "--input", path])
            _, det = run_main(["det", "--input", path])
            assert check["verdict"]["method"] == det["method"], name


class TestErrors:
    def test_missing_file(self, capsys):
        assert cli.main(["check", "--input", "/nonexistent.json"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_malformed_json(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        assert cli.main(["check", "--input", str(p)]) == 1
        err = capsys.readouterr().err
        assert "line" in err

    @pytest.mark.parametrize("extra_key", [False, True], ids=["array", "extra-key"])
    def test_deeply_nested_json_exits_1(self, extra_key, tmp_path):
        """100,000 nested arrays, alone or under an extra key of vamos.json."""
        nested = "[" * 100000 + "]" * 100000
        if extra_key:
            text = (FIXTURE_DIR / "vamos.json").read_text()
            nested = '{"extra": ' + nested + "," + text.lstrip()[1:]
        p = tmp_path / "nested.json"
        p.write_text(nested)
        res = run_cli(["check", "--input", str(p)])
        assert res.returncode == 1
        assert res.stderr == f"error: {p}: not valid JSON (nested too deeply)\n"

    @pytest.mark.parametrize("coordinate", ["1e1000000000", "1e-1000000000", "1e100000"])
    @pytest.mark.parametrize("field", ["offset", "normal"])
    def test_coordinate_beyond_the_digit_limit_exits_1(self, field, coordinate,
                                                       tmp_path, capsys):
        """Fraction expands 10**exponent in full, so the coordinate is
        rejected before it is built."""
        hyp = {"label": "H1", "normal": ["1"], "offset": "0"}
        hyp[field] = coordinate if field == "offset" else [coordinate]
        doc = {"dim": 1, "hyperplanes": [
            hyp, {"label": "H2", "normal": ["1"], "offset": "1"}]}
        p = tmp_path / "huge.json"
        p.write_text(json.dumps(doc))
        for command in ("check", "matrix", "det", "rhs", "invariants"):
            start = time.perf_counter()
            assert cli.main([command, "--input", str(p)]) == 1
            assert time.perf_counter() - start < 1.0
            assert capsys.readouterr().err == (
                "error: malformed arrangement JSON: hyperplane 'H1' has a "
                f"coordinate that needs more than {sys.get_int_max_str_digits()} "
                "digits\n")

    def test_coordinate_at_the_digit_limit_loads(self, tmp_path):
        """10^(limit - 1) has limit digits and 10^-(limit - 1) a denominator
        of limit digits: every command reads and writes them; one digit more
        is rejected."""
        limit = sys.get_int_max_str_digits()
        doc = {"dim": 1, "hyperplanes": [
            {"label": "H1", "normal": ["1"], "offset": f"1e{limit - 1}"},
            {"label": "H2", "normal": ["1"], "offset": f"-1e-{limit - 1}"}]}
        p = tmp_path / "limit.json"
        p.write_text(json.dumps(doc))
        for command in ("check", "matrix", "det", "rhs", "invariants"):
            assert run_main([command, "--input", str(p)])[0] == 0, command
        for offset in (f"1e{limit}", f"1e-{limit}"):
            doc["hyperplanes"][1]["offset"] = offset
            p.write_text(json.dumps(doc))
            assert run_main(["check", "--input", str(p)])[0] == 1

    def test_no_digit_limit_reads_every_exponent(self, tmp_path):
        """With the int-string limit off, 10^5000 loads like any coordinate."""
        doc = {"dim": 1, "hyperplanes": [
            {"label": "H1", "normal": ["1"], "offset": "1e5000"},
            {"label": "H2", "normal": ["1"], "offset": "0"}]}
        p = tmp_path / "unlimited.json"
        p.write_text(json.dumps(doc))
        res = run_cli(["invariants", "--input", str(p), "--out", str(tmp_path / "r.json")],
                      env={"PYTHONINTMAXSTRDIGITS": "0"})
        assert res.returncode == 0, res.stderr

    def test_lift_label_in_the_ground_set_exits_1(self, tmp_path, capsys):
        doc = json.loads((FIXTURE_DIR / "vamos.json").read_text())
        doc["lift"]["g"] = "8"
        p = tmp_path / "vamos-g8.json"
        p.write_text(json.dumps(doc))
        assert cli.main(["check", "--input", str(p)]) == 1
        assert capsys.readouterr().err == (
            "error: lift element must be distinct from the ground set\n")

    def test_wrong_schema(self, tmp_path, capsys):
        p = tmp_path / "odd.json"
        p.write_text(json.dumps({"something": 1}))
        assert cli.main(["check", "--input", str(p)]) == 1
        assert "expected an arrangement" in capsys.readouterr().err

    @pytest.mark.parametrize("doc, named", [
        ({"dim": 1, "hyperplanes": [{"label": "H1", "normal": ["1"],
                                     "offset": "1/0"}]}, "zero denominator"),
        ({"dim": 1, "hyperplanes": [{"label": "H1", "normal": ["1/0"],
                                     "offset": "0"}]}, "zero denominator"),
        ({"rank": 1, "elements": ["1", "2"], "chirotope": "++", "lift": []},
         "lift"),
        ({"rank": 1, "elements": ["1", "2"], "chirotope": "++",
          "lift": {"feasible_cocircuits": [1, 2]}}, "cocircuits"),
        *(({"rank": rank, "elements": ["1"], "chirotope": "+",
            "lift": {"feasible_cocircuits": []}}, "rank")
          for rank in (0, True, 4.7, "2")),
        *(({"dim": dim, "hyperplanes": [{"label": "H1", "normal": ["1"],
                                         "offset": "1"}]}, "dim")
          for dim in (0, True, 4.7, "2")),
        # json reads 1e999 and Infinity as float("inf")
        *(({"dim": 1, "hyperplanes": [{"label": "H1", "normal": normal,
                                       "offset": offset}]}, named)
          for normal, offset, named in (
              (["1"], float("inf"), "Infinity"),
              ([float("-inf")], "0", "Infinity"),
              ([True], "1", "boolean"),
              (["1"], True, "boolean"),
              ("1", "1", "normal"))),
        ({"dim": 1, "hyperplanes": {"label": "H1", "normal": ["1"],
                                    "offset": "1"}}, "hyperplanes"),
        *(({"rank": 1, "elements": elements, "chirotope": chirotope,
            "lift": {"feasible_cocircuits": cocircuits}}, named)
          for elements, chirotope, cocircuits, named in (
              ("12", "++", ["1 2"], "elements"),
              (["1", "2"], ["+", "+"], ["1 2"], "chirotope"),
              (["1", "2"], "++", "1 -2", "cocircuits"))),
        *(({"dim": 1, "hyperplanes": [{"label": label, "normal": ["1"],
                                       "offset": "1"}]}, "label must be")
          for label in (True, None, [1])),
        *(({"rank": 1, "elements": ["1", bad], "chirotope": "++",
            "lift": {"feasible_cocircuits": ["1 2"]}}, "each element must be")
          for bad in (True, None)),
        ({"rank": 1, "elements": ["1", "2"], "chirotope": "++",
          "lift": {"g": ["x"], "feasible_cocircuits": ["1 2"]}}, "lift label g"),
    ], ids=["zero-offset-denominator", "zero-normal-denominator", "lift-list",
            "cocircuit-ints", "rank-0", "rank-true", "rank-float", "rank-string",
            "dim-0", "dim-true", "dim-float", "dim-string", "offset-infinity",
            "normal-infinity", "normal-true", "offset-true", "normal-string",
            "hyperplanes-object", "elements-string", "chirotope-list",
            "cocircuits-string", "label-true", "label-null", "label-list",
            "elements-true", "elements-null", "g-list"])
    def test_malformed_document_exits_1(self, doc, named, tmp_path, capsys):
        p = tmp_path / "malformed.json"
        p.write_text(json.dumps(doc))
        assert cli.main(["check", "--input", str(p)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: malformed ") and "Traceback" not in err
        assert named in err

    def test_integer_labels_load(self, tmp_path):
        doc = {"dim": 1, "hyperplanes": [
            {"label": 1, "normal": ["1"], "offset": "0"},
            {"label": 2, "normal": ["1"], "offset": "1"}]}
        p = tmp_path / "int-labels.json"
        p.write_text(json.dumps(doc))
        code, rep = run_main(["check", "--input", str(p)])
        assert code == 0
        assert rep["instance"]["elements"] == ["1", "2"]

    def test_genericity_violation_names_circuit(self, tmp_path, capsys):
        doc = {"dim": 2, "hyperplanes": [
            {"label": "H1", "normal": ["1", "0"], "offset": "0"},
            {"label": "H2", "normal": ["0", "1"], "offset": "0"},
            {"label": "H3", "normal": ["1", "1"], "offset": "0"}]}
        p = tmp_path / "concurrent.json"
        p.write_text(json.dumps(doc))
        assert cli.main(["check", "--input", str(p)]) == 1
        err = capsys.readouterr().err
        assert "H1" in err and "H3" in err

    def test_exchange_violation_on_13_elements(self, tmp_path, capsys):
        # rank 2 on 13 elements whose only bases are {1,2} and {3,4}
        pairs = combinations(range(13), 2)
        doc = {"rank": 2, "elements": [str(i) for i in range(1, 14)],
               "chirotope": "".join("+" if p in ((0, 1), (2, 3)) else "0"
                                    for p in pairs),
               "lift": {"feasible_cocircuits": ["3 4", "1 2"]}}
        p = tmp_path / "exchange13.json"
        p.write_text(json.dumps(doc))
        assert cli.main(["check", "--input", str(p)]) == 1
        assert "error: basis exchange fails" in capsys.readouterr().err

    def test_short_chirotope_lists_no_r_subsets(self, tmp_path, capsys, monkeypatch):
        """Rank 12 on 24 elements has 2,704,156 r-subsets: one sign is
        rejected by their count, before any of them is listed."""
        from chamberforms import oriented_matroid

        def no_listing(n, r):
            raise AssertionError("listed the r-subsets")
        monkeypatch.setattr(oriented_matroid, "r_subsets", no_listing)
        doc = {"rank": 12, "elements": [str(i) for i in range(1, 25)],
               "chirotope": "+", "lift": {"feasible_cocircuits": []}}
        p = tmp_path / "short.json"
        p.write_text(json.dumps(doc))
        assert cli.main(["check", "--input", str(p)]) == 1
        assert ("error: chirotope needs 2704156 signs, one per lex r-subset, "
                "got 1") in capsys.readouterr().err

    def test_dimension_over_the_cap_skips_the_vertex_scan(self, tmp_path, capsys,
                                                          monkeypatch):
        """Every vertex of an essential arrangement in R^20 has a star of
        2^20 > 10^6 topes, so the cap rejects it before any minor is taken."""
        from chamberforms import arrangement

        def no_scan(rows, width):
            raise AssertionError("scanned the r-subsets")
        monkeypatch.setattr(arrangement, "_cofactors", no_scan)
        doc = {"dim": 20, "hyperplanes": [
            {"label": f"H{i}", "normal": [str(int(i == j)) for j in range(20)],
             "offset": "0"} for i in range(20)]}
        p = tmp_path / "dim20.json"
        p.write_text(json.dumps(doc))
        assert cli.main(["check", "--input", str(p)]) == 1
        assert ("error: a vertex star of 2^20 topes would exceed the cap 1000000"
                in capsys.readouterr().err)

    def test_nudge_recovers_non_generic_input(self, tmp_path):
        doc = {"dim": 2, "hyperplanes": [
            {"label": "H1", "normal": ["1", "0"], "offset": "0"},
            {"label": "H2", "normal": ["0", "1"], "offset": "0"},
            {"label": "H3", "normal": ["1", "1"], "offset": "0"}]}
        p = tmp_path / "concurrent.json"
        p.write_text(json.dumps(doc))
        code, rep = run_main(["check", "--input", str(p), "--nudge", "3"])
        assert code == 0
        assert rep["verdict"]["theorem_match"]

    def test_closure_cap_is_an_error(self, monkeypatch, capsys):
        from chamberforms.oriented_matroid import (AffineOrientedMatroid,
                                                   ClosureCapExceeded)

        def capped(self):
            raise ClosureCapExceeded("covector closure exceeded cap 3")
        monkeypatch.setattr(AffineOrientedMatroid, "bounded_topes", capped)
        assert cli.main(["check", "--input",
                         str(FIXTURE_DIR / "example13-C.json")]) == 1
        assert "error: covector closure exceeded cap 3" in capsys.readouterr().err

    def test_form_cap_stops_47_lines_before_the_matrices(self, tmp_path, capsys):
        """47 tangent lines x0 + t x1 = t^2 of a parabola, no three through
        a point: 4,324 star sign vectors pass the star cap, but S and S_q on
        C(46, 2) = 1,035 bounded topes would hold 1,071,225 entries each."""
        path = tangent_lines(tmp_path, 47)
        for command in ("check", "matrix"):
            start = time.perf_counter()
            assert cli.main([command, "--input", str(path)]) == 1
            assert time.perf_counter() - start < 1.0
            assert ("error: S and S_q on 1035 bounded topes would hold 1071225 "
                    "entries each") in capsys.readouterr().err

    @pytest.mark.parametrize("cap, code", [(399, 1), (400, 0)])
    def test_form_cap_boundary(self, monkeypatch, capsys, cap, code):
        """cyclic-r3-n7 has 20 bounded topes: 400 entries per form."""
        from chamberforms import oriented_matroid
        monkeypatch.setattr(oriented_matroid, "_CLOSURE_CAP", cap)
        assert cli.main(["matrix", "--input",
                         str(FIXTURE_DIR / "cyclic-r3-n7.json")]) == code
        assert ("20 bounded topes" in capsys.readouterr().err) == (code == 1)

    def test_failed_certificate_is_internal_inconsistency(self, monkeypatch, capsys):
        import chamberforms.forms as forms_mod
        from chamberforms.polyring import CertificateError

        def broken(m):
            raise CertificateError("determinant certificate failed")
        monkeypatch.setattr(forms_mod, "poly_det", broken)
        assert cli.main(["check", "--input",
                         str(FIXTURE_DIR / "example13-C.json")]) == 1
        err = capsys.readouterr().err
        assert "internal inconsistency: determinant certificate failed" in err

    def test_wrong_engine_result_is_internal_inconsistency(self, monkeypatch, capsys):
        """A wrong lift fails the certificate up to the coefficient bound."""
        from chamberforms import modular
        interpolate = modular._interpolate_mod

        def off_by_one(e0, y, p):
            coeffs = interpolate(e0, y, p)
            return [(coeffs[0] + 1) % p] + coeffs[1:]
        monkeypatch.setattr(modular, "_interpolate_mod", off_by_one)
        # check reconstructs det S_q only where the bound allows under three
        # primes, as on example13-C; on vamos it certifies the right-hand side
        for command, name, primes in (("check", "example13-C.json", 1),
                                      ("det", "vamos.json", 5)):
            assert cli.main([command, "--input", str(FIXTURE_DIR / name)]) == 1
            err = capsys.readouterr().err
            assert "internal inconsistency: determinant certificate failed" in err
            assert f"all {primes} primes" in err

    def test_chirotope_flip_is_an_input_error(self, tmp_path):
        # flipping one chirotope sign leaves the exchange axiom intact, but
        # the lift check at ingest rejects it
        doc = json.loads((FIXTURE_DIR / "vamos.json").read_text())
        chi = doc["chirotope"]
        i = chi.index("+")
        doc["chirotope"] = chi[:i] + "-" + chi[i + 1:]
        p = tmp_path / "vamos-flipped.json"
        p.write_text(json.dumps(doc))
        res = run_cli(["check", "--input", str(p)])
        assert res.returncode == 1
        assert res.stderr.startswith("error: ") and "two signs" in res.stderr
        assert "Traceback" not in res.stderr

    def test_error_text_does_not_follow_hash_order(self, tmp_path):
        doc = json.loads((FIXTURE_DIR / "vamos.json").read_text())
        doc["lift"]["feasible_cocircuits"][0] = "1 2 3 4"  # zero set 5 6 7 8
        p = tmp_path / "vamos-bad.json"
        p.write_text(json.dumps(doc))
        errs = [run_cli(["check", "--input", str(p)],
                        env={"PYTHONHASHSEED": seed}).stderr for seed in ("1", "2")]
        assert errs[0] == errs[1]
        assert "zero set ['5', '6', '7', '8']" in errs[0]

    def test_inexact_division_is_internal_inconsistency(self, monkeypatch, capsys):
        from chamberforms import polyring
        from chamberforms.polyring import ExactDivisionError

        def broken(rows):
            raise ExactDivisionError("Bareiss integer division was inexact")
        monkeypatch.setattr(polyring, "int_det", broken)
        assert cli.main(["det", "--input",
                         str(FIXTURE_DIR / "example13-C.json")]) == 1
        err = capsys.readouterr().err
        assert "internal inconsistency: Bareiss integer division" in err


class TestUsage:
    """argparse usage errors exit 1, since exit code 2 means a finding."""

    def test_missing_input(self, capsys):
        assert cli.main(["check"]) == 1
        assert "--input" in capsys.readouterr().err

    def test_unknown_flag(self, capsys):
        assert cli.main(["check", "--input", str(FIXTURE_DIR / "example13-C.json"),
                         "--bogus"]) == 1
        assert "--bogus" in capsys.readouterr().err

    def test_options_belong_to_their_commands(self, capsys):
        fixture = str(FIXTURE_DIR / "example13-C.json")
        assert cli.main(["det", "--input", fixture, "--timings"]) == 1
        assert "--timings" in capsys.readouterr().err
        assert cli.main(["rhs", "--input", fixture, "--seed", "1"]) == 1
        assert cli.main(["matrix", "--input", fixture, "--include-matrices"]) == 1
        assert cli.main(["check", "--input", fixture, "--seed", "1"]) == 1

    def test_parser_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_help_and_version_exit_0(self, capsys):
        assert cli.main(["--help"]) == 0
        assert cli.main(["check", "--help"]) == 0
        assert cli.main(["--version"]) == 0
        assert "usage:" in capsys.readouterr().out


class TestPartialCommands:
    def test_matrix(self):
        code, rep = run_main(["matrix", "--input",
                              str(FIXTURE_DIR / "example13-C.json")])
        assert code == 0
        assert rep["matrices"]["S"] == [["3", "1"], ["1", "3"]]
        assert rep["matrices"]["S_q"][0][0] == ["1", "0", "1", "0", "1"]

    def test_det(self):
        code, rep = run_main(["det", "--input",
                              str(FIXTURE_DIR / "example13-Cprime.json")])
        assert code == 0
        assert rep["det_S"] == "8"
        assert rep["det_Sq"] == ["1", "0", "2", "0", "2", "0", "2", "0", "1"]

    def test_rhs_vamos(self):
        code, rep = run_main(["rhs", "--input", str(FIXTURE_DIR / "vamos.json")])
        assert code == 0
        bases_exps = [(f["base"], f["exponent"]) for f in rep["factors"]]
        assert bases_exps == [(8, 15), (4, 1), (4, 1), (4, 1), (4, 1), (4, 1)]

    def test_invariants_example13(self):
        code, rep = run_main(["invariants", "--input",
                              str(FIXTURE_DIR / "example13-C.json")])
        assert code == 0
        assert rep["all_pass"]
        names = {r["name"] for r in rep["invariants"]}
        assert {"gram_identity", "smith_divisors_all_one", "det_y_unimodular",
                "q1_specialization", "h_palindromicity"} <= names

    def test_invariants_line_det_y(self):
        code, rep = run_main(["invariants", "--input",
                              str(FIXTURE_DIR / "line-n5.json")])
        assert code == 0
        y_entry = next(r for r in rep["invariants"]
                       if r["name"] == "det_y_unimodular")
        assert y_entry["det_y"] in (1, -1)

    def test_hyperplane_labelled_g(self, tmp_path):
        """The lift's label is internal: lines labelled a-g load, and each
        report says what it says of the same lines labelled H1-H7."""
        numbered = tangent_lines(tmp_path, 7)
        doc = json.loads(numbered.read_text())
        for h, label in zip(doc["hyperplanes"], "abcdefg"):
            h["label"] = label
        lettered = tmp_path / "lines-a-g.json"
        lettered.write_text(json.dumps(doc))
        for command in ("check", "matrix", "det", "rhs", "invariants"):
            assert run_main([command, "--input", str(lettered)])[0] == 0, command
        a, b = (run_main(["check", "--input", str(p)])[1]["verdict"]
                for p in (lettered, numbered))
        for key in ("n_topes", "det_S", "det_Sq", "method"):
            assert a[key] == b[key], key

    def test_invariants_line_n50(self, tmp_path):
        p = tmp_path / "line50.json"
        p.write_text(json.dumps(line_points(50).to_json()))
        t0 = time.perf_counter()
        code, rep = run_main(["invariants", "--input", str(p)])
        assert time.perf_counter() - t0 < 10.0
        assert code == 0 and rep["all_pass"]

    @pytest.mark.parametrize("name", ["example13-C.json", "line-n5.json"])
    def test_invariants_compiles_twice(self, name, monkeypatch):
        # the instance, and the deliberate recompile of canonical_order_stable
        from chamberforms.oriented_matroid import AffineOrientedMatroid
        built = []
        real = AffineOrientedMatroid.__init__

        def counted(om, *args, **kwargs):
            built.append(om)
            real(om, *args, **kwargs)
        monkeypatch.setattr(AffineOrientedMatroid, "__init__", counted)
        code, _ = run_main(["invariants", "--input", str(FIXTURE_DIR / name)])
        assert code == 0
        assert len(built) == 2

    @pytest.mark.parametrize("name", ["example13-C.json", "cyclic-r3-n7.json",
                                      "vamos.json"])
    def test_invariants_calls_phi_once_per_tope(self, name, monkeypatch):
        from chamberforms import flagspace
        calls = []
        real = flagspace.phi

        def counted(om, tope):
            calls.append(tope.key())
            return real(om, tope)
        monkeypatch.setattr(flagspace, "phi", counted)
        monkeypatch.setattr(cli, "phi", counted)
        code, rep = run_main(["invariants", "--input", str(FIXTURE_DIR / name)])
        assert code == 0
        assert len(calls) == len(set(calls)) == rep["instance"]["n_bounded_topes"]

    @staticmethod
    def invariants_on_faked_sq(monkeypatch, fake):
        """invariants on example13-C with fake(grid) editing its S_q grid."""
        from chamberforms.forms import IntersectionForm
        real_sq = cli.build_Sq

        def faked(om):
            sq = real_sq(om)
            grid = [list(row) for row in sq.matrix]
            fake(grid)
            return IntersectionForm(sq.topes, tuple(map(tuple, grid)))
        monkeypatch.setattr(cli, "build_Sq", faked)
        code, rep = run_main(["invariants", "--input",
                              str(FIXTURE_DIR / "example13-C.json")])
        assert code == 1
        return {r["name"]: r for r in rep["invariants"]}

    def test_invariants_witness_names_its_own_pair(self, monkeypatch):
        # example13-C's two bounded topes share one vertex and lie two apart,
        # so S_q(0,1) = q^2; on the diagonal d = 0 and the entry is h itself

        def fake(grid):
            assert grid[0][1] == IntPoly((0, 0, 1))
            grid[0][0] = IntPoly((1, 0, 2))  # h(0) = 1, not a palindrome
            grid[0][1] = grid[1][0] = IntPoly((1, 0, 1))  # a term below q^2
        by_name = self.invariants_on_faked_sq(monkeypatch, fake)
        assert by_name["euler_relation"] == {"name": "euler_relation", "pass": True}
        assert not by_name["h_palindromicity"]["pass"]
        assert by_name["h_palindromicity"]["witness"].startswith("pair (0,0) h=")
        assert not by_name["lowest_degree_term"]["pass"]
        assert by_name["lowest_degree_term"]["witness"].startswith("pair (0,1) entry")

    def test_invariants_euler_witness_reads_h_at_0(self, monkeypatch):
        def fake(grid):
            grid[1][1] = -grid[1][1]  # d = 0 on the diagonal: h(0) = -1

        by_name = self.invariants_on_faked_sq(monkeypatch, fake)
        assert by_name["euler_relation"] == {
            "name": "euler_relation", "pass": False, "witness": "pair (1,1) h(0)=-1"}

    def test_each_tope_pair_meets_once(self, monkeypatch):
        # each pair of bounded topes that shares a vertex meets exactly
        # once, and no other pair meets: one call per nonzero upper entry
        from chamberforms.forms import build_S
        from chamberforms.oriented_matroid import AffineOrientedMatroid
        fixture = str(FIXTURE_DIR / "cyclic-r3-n7.json")
        om = cli.load_instance(fixture).om
        topes = om.bounded_topes()
        sharing = {frozenset((a.bits, b.bits)) for i, a in enumerate(topes)
                   for b in topes[i:] if om.face_mask(a) & om.face_mask(b)}
        s = build_S(om).matrix
        nonzero = sum(1 for i, row in enumerate(s) for e in row[i:] if e)
        assert len(topes) == 20 and nonzero == len(sharing) < 20 * 21 // 2
        pairs = []
        real = AffineOrientedMatroid.meet_faces

        def spy(om, a, b):
            pairs.append(frozenset((a.bits, b.bits)))
            return real(om, a, b)
        monkeypatch.setattr(AffineOrientedMatroid, "meet_faces", spy)
        for command in ("check", "invariants"):
            pairs.clear()
            code, rep = run_main([command, "--input", fixture])
            assert code == 0
            assert rep["instance"]["n_bounded_topes"] == 20
            assert len(pairs) == len(set(pairs)) == nonzero, command
            assert set(pairs) == sharing, command

    def test_invariants_vamos_skips_y(self):
        code, rep = run_main(["invariants", "--input",
                              str(FIXTURE_DIR / "vamos.json")])
        assert code == 0
        names = {r["name"] for r in rep["invariants"]}
        assert "det_y_unimodular" not in names


class TestRandom:
    def test_sweep_shape_and_determinism(self, tmp_path):
        out1, out2 = tmp_path / "s1.jsonl", tmp_path / "s2.jsonl"
        for out in (out1, out2):
            code = cli.main(["random", "--dim", "2", "--n", "6", "--count", "4",
                             "--seed", "11", "--out", str(out)])
            assert code == 0
        assert out1.read_bytes() == out2.read_bytes()
        lines = out1.read_text().splitlines()
        assert len(lines) == 4
        for i, line in enumerate(lines):
            rep = json.loads(line)
            assert rep["instance_index"] == i
            assert rep["verdict"]["theorem_match"]
            assert rep["matrices"] is None  # only emitted on mismatch

    def test_r1_tridiagonal_det(self, tmp_path):
        out = tmp_path / "line.jsonl"
        code = cli.main(["random", "--dim", "1", "--n", "6", "--count", "2",
                         "--seed", "3", "--out", str(out)])
        assert code == 0
        for line in out.read_text().splitlines():
            rep = json.loads(line)
            n_topes = rep["verdict"]["n_topes"]
            assert int(rep["verdict"]["det_S"]) == n_topes + 1

    def test_dim_bounds_rejected(self, capsys):
        assert cli.main(["random", "--dim", "5", "--n", "6"]) == 1
        assert "dim" in capsys.readouterr().err

    def test_negative_count_rejected(self, capsys):
        assert cli.main(["random", "--dim", "2", "--n", "3", "--count", "-3"]) == 1
        assert "count" in capsys.readouterr().err
        assert cli.main(["random", "--dim", "2", "--n", "3", "--count", "0"]) == 0
        assert "instances: 0 " in capsys.readouterr().err


class TestSubprocess:
    def test_console_entry_point(self):
        res = run_cli(["check", "--input", str(FIXTURE_DIR / "example13-C.json")])
        assert res.returncode == 0
        assert json.loads(res.stdout)["verdict"]["det_S"] == "8"

    def test_version_flag(self):
        res = run_cli(["--version"])
        assert res.returncode == 0

    def test_package_runs_as_module(self):
        res = run_cli(["det", "--input", str(FIXTURE_DIR / "example13-C.json")],
                      module="chamberforms")
        assert res.returncode == 0
        assert json.loads(res.stdout)["det_S"] == "8"
