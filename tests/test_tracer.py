"""Smoke test of the benchmark's per-layer tracer against this source tree.

perfbench/tracing.py wraps named functions of chamberforms in place; a
renamed or removed function would leave its metric at zero.  This runs one
traced `invariants` and one traced `check` and checks that the tracer saw
both, and the tope enumeration, and put every original back.
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
    tracer.install()
    try:
        for command in ("invariants", "check"):
            assert cli.main([command, "--input", fixture,
                             "--out", str(tmp_path / command)]) == 0
    finally:
        tracer.uninstall()
    totals = tracer.snapshot()
    assert totals["flagspace.phi_s"] > 0
    assert totals["oriented_matroid.topes_s"] > 0
    # 20 bounded topes, once for the oriented matroid of each command
    assert totals["oriented_matroid.topes"] == 40
    assert totals["polyring.det_Sq_calls"] > 0
    after = bindings()
    assert [k for k in before if after.get(k) is not before[k]] == []
