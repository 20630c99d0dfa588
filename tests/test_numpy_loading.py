"""numpy is loaded only by the commands that take a determinant over Z[q].

chamberforms.modular, the word-size determinant engine, is the one module
that imports numpy; matrix, rhs and invariants, and the import of the CLI
itself, must leave it unloaded.  Each case runs in a fresh interpreter,
which prints the command's exit code and whether numpy is in sys.modules.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PROBE = """
import json
import sys
from chamberforms import cli
codes = [cli.main(argv) if argv else 0 for argv in json.loads(sys.argv[1])]
print(*codes, "numpy" in sys.modules)
print(*sorted(m for m in sys.modules if m.split(".")[0] == "chamberforms"))
"""


def probe(runs, out: Path) -> list[str]:
    """Run each command line of runs in one fresh interpreter.  Two lines
    come back: the exit codes and whether numpy is loaded, then the
    chamberforms modules loaded."""
    runs = [argv + ["--out", str(out)] if argv else argv for argv in runs]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", PROBE, json.dumps(runs)], cwd=ROOT,
                          env=env, capture_output=True, text=True, check=True)
    return done.stdout.splitlines()


@pytest.mark.parametrize("argv", [
    [],
    ["invariants", "--input", "fixtures/vamos.json"],
    ["invariants", "--input", "fixtures/cyclic-r3-n7.json"],
    ["matrix", "--input", "fixtures/cyclic-r3-n7.json"],
    ["rhs", "--input", "fixtures/cyclic-r3-n7.json"],
], ids=" ".join)
def test_numpy_stays_unloaded(argv, tmp_path):
    assert probe([argv], tmp_path / "report.json")[0] == "0 False"


@pytest.mark.parametrize("argv", [
    ["check", "--input", "fixtures/cyclic-r3-n7.json"],
    ["det", "--input", "fixtures/cyclic-r3-n7.json"],
    ["random", "--dim", "2", "--n", "4", "--count", "1", "--seed", "0"],
], ids=" ".join)
def test_determinant_commands_load_numpy(argv, tmp_path):
    assert probe([argv], tmp_path / "report.json")[0] == "0 True"
