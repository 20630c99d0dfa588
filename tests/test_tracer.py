"""Smoke test of the benchmark's per-layer tracer against this source tree.

perfbench/tracing.py wraps named functions of chamberforms in place; a
renamed or removed function would leave its metric at zero.  This runs one
traced `invariants` and `check` on cyclic-r3-n7.json and one `det` on
line-n10.json, and checks that the tracer saw the oracle, the tope
enumeration, the Matroid methods and the right-hand side, the Z[q] engine
under `det` (both commands certify det S_q against the right-hand side
without it where the coefficient bound allows three primes or more, as on
cyclic-r3-n7.json, and line-n10.json's allows one), one meet per nonzero
upper entry of S under `check`, and put every original back.
"""

import importlib.util
import sys
from pathlib import Path

from chamberforms import cli
from chamberforms.forms import build_S
from conftest import FIXTURE_DIR

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def bindings() -> dict:
    """Every module global and class attribute of chamberforms, by identity."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if mod is None or name.split(".")[0] != "chamberforms":
            continue
        for key, value in vars(mod).items():
            out[(name, key)] = value
            if isinstance(value, type) and value.__module__ == name:
                for attr, raw in vars(value).items():
                    out[(name, key, attr)] = raw
    return out


def test_tracer_sees_the_oracle_and_the_engine_and_restores(tmp_path):
    tracer = load_tracing().Tracer()
    before = bindings()
    fixture = str(FIXTURE_DIR / "cyclic-r3-n7.json")
    # each command's input and its number of bounded topes
    inputs = {"invariants": (fixture, 20), "check": (fixture, 20),
              "det": (str(FIXTURE_DIR / "line-n10.json"), 10)}
    runs = {}
    tracer.install()
    try:
        for command, (path, _) in inputs.items():
            tracer.reset()
            assert cli.main([command, "--input", path,
                             "--out", str(tmp_path / command)]) == 0
            runs[command] = tracer.snapshot()
    finally:
        tracer.uninstall()
    assert runs["invariants"]["flagspace.phi_s"] > 0
    for command, totals in runs.items():
        assert totals["oriented_matroid.topes_s"] > 0
        assert totals["oriented_matroid.topes"] == inputs[command][1]
    assert runs["det"]["polyring.det_Sq_calls"] > 0
    check = runs["check"]
    # the Matroid methods and the RHS each keep a nonzero metric
    for name in ("matroid.construct_s", "matroid.flats_s", "matroid.beta_s",
                 "forms.rhs_s", "matroid.constructions"):
        assert check[name] > 0, name
    s = build_S(cli.load_instance(fixture).om).matrix
    nonzero = sum(1 for i, row in enumerate(s) for e in row[i:] if e)
    assert 0 < check["oriented_matroid.meet_faces_calls"] == nonzero
    after = bindings()
    assert [k for k in before if after.get(k) is not before[k]] == []
