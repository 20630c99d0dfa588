"""Every CLI report and exit code, pinned by sha256.

tests/report_digests.json maps each command line below to the exit code and
the sha256 of the report it writes.  A change that is meant to alter a
report must re-record the file, by running this module as a script from the
repository root:

    PYTHONPATH=src python tests/test_report_digests.py > tests/report_digests.json
"""

import hashlib
import json
import sys
import tempfile
from collections import Counter
from pathlib import Path

import pytest

from chamberforms import flagspace, modular, polyring
from chamberforms.cli import main
from chamberforms.make_fixtures import FIXTURES

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = Path(__file__).resolve().parent / "report_digests.json"
COMMANDS = ("check", "matrix", "det", "rhs", "invariants")

CASES = [f"{cmd} --input fixtures/{name}" for name in FIXTURES for cmd in COMMANDS]
CASES.append("random --dim 3 --n 7 --count 5 --seed 4")


def run_case(case: str, workdir: Path) -> dict:
    argv = [str(ROOT / a) if a.startswith("fixtures/") else a for a in case.split()]
    out = workdir / "report.out"
    code = main(argv + ["--out", str(out)])
    return {"exit": code, "sha256": hashlib.sha256(out.read_bytes()).hexdigest()}


@pytest.fixture(scope="module")
def pinned() -> dict:
    return json.loads(DIGESTS.read_text())


def test_every_case_is_pinned(pinned):
    assert sorted(pinned) == sorted(CASES)


@pytest.mark.parametrize("case", CASES)
def test_report_matches_pinned_digest(case, pinned, tmp_path):
    assert run_case(case, tmp_path) == pinned[case]


# The flag-space oracle certifies by peeling and by a rank mod p; when those
# fail it falls back to exact elimination, which must give the same reports.
FALLBACKS = {"peel": ("_peel", lambda rows: None),
             "rank_mod": ("_eliminate_mod", lambda rows, m: (0, 0))}


@pytest.mark.parametrize("broken", sorted(FALLBACKS))
@pytest.mark.parametrize("case", [c for c in CASES if c.startswith("invariants")])
def test_invariants_digest_holds_through_the_fallback(case, broken, pinned,
                                                      tmp_path, monkeypatch):
    monkeypatch.setattr(flagspace, *FALLBACKS[broken])
    assert run_case(case, tmp_path) == pinned[case]


# With no matrix taken as symmetric, int_det hands S to the modular engine
# and every point of S_q takes plain elimination; the reports stay the same.
# polyring and the engine each read their own binding of _is_symmetric.
@pytest.mark.parametrize("case", [c for c in CASES
                                  if c.split()[0] in ("check", "det", "random")])
def test_digest_holds_through_the_plain_route(case, pinned, tmp_path, monkeypatch):
    calls = Counter()

    def counted(module, name):
        fn = getattr(module, name)

        def spy(*args):
            calls[name] += 1
            return fn(*args)
        monkeypatch.setattr(module, name, spy)
    for module in (polyring, modular):
        monkeypatch.setattr(module, "_is_symmetric", lambda rows: False)
    counted(polyring, "_symmetric_bareiss")
    counted(modular, "_batch_det_mod")
    counted(modular, "_eliminate_mod")
    assert run_case(case, tmp_path) == pinned[case]
    assert calls["_symmetric_bareiss"] == calls["_batch_det_mod"] == 0
    assert calls["_eliminate_mod"] > 0


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        record = {case: run_case(case, Path(tmp)) for case in CASES}
    json.dump(record, sys.stdout, indent=2)
    sys.stdout.write("\n")
