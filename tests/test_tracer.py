"""Smoke test of the benchmark's per-layer tracer against this source tree.

perfbench/tracing.py wraps named functions of chamberforms in place; a
renamed or removed function would leave its metric at zero.  This runs one
traced `invariants`, `check` and `det` and checks that the tracer saw the
oracle, the tope enumeration, the Matroid methods and the right-hand side,
the Z[q] engine under `det` (`check` certifies det S_q against the
right-hand side without it), and put every original back.
"""

import importlib.util
import sys
from pathlib import Path

from chamberforms import cli
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
    runs = {}
    tracer.install()
    try:
        for command in ("invariants", "check", "det"):
            tracer.reset()
            assert cli.main([command, "--input", fixture,
                             "--out", str(tmp_path / command)]) == 0
            runs[command] = tracer.snapshot()
    finally:
        tracer.uninstall()
    assert runs["invariants"]["flagspace.phi_s"] > 0
    for totals in runs.values():
        assert totals["oriented_matroid.topes_s"] > 0
        assert totals["oriented_matroid.topes"] == 20  # bounded topes
    assert runs["det"]["polyring.det_Sq_calls"] > 0
    check = runs["check"]
    # the Matroid methods and the RHS each keep a nonzero metric
    for name in ("matroid.construct_s", "matroid.flats_s", "matroid.beta_s",
                 "forms.rhs_s", "matroid.constructions"):
        assert check[name] > 0, name
    after = bindings()
    assert [k for k in before if after.get(k) is not before[k]] == []
