"""The repository's pytest settings report a failing Hypothesis test as a
plain failure.

filterwarnings turns every warning into an error.  Hypothesis's failure
report imports libcst, whose import warns through mypy_extensions; unless
that one warning is ignored, the first failing @given test stops the run
with an INTERNALERROR (exit 3) instead of failing (exit 1).
"""

import subprocess
import sys
from pathlib import Path

CONFIG = Path(__file__).resolve().parent.parent / "pyproject.toml"

FAILING = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_always_fails(x):
    assert x != x
'''


def test_failing_given_test_is_reported_not_internal_error(tmp_path):
    (tmp_path / "test_failing.py").write_text(FAILING)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(CONFIG), "--rootdir", str(tmp_path), "test_failing.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    output = proc.stdout + proc.stderr
    assert "INTERNALERROR" not in output
    assert proc.returncode == 1, output
    assert "1 failed" in output
