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
from conftest import FIXTURE_NAMES

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = Path(__file__).resolve().parent / "report_digests.json"
COMMANDS = ("check", "matrix", "det", "rhs", "invariants")

CASES = [f"{cmd} --input fixtures/{name}" for name in FIXTURE_NAMES for cmd in COMMANDS]
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


# The check, det and random reports before they said how each determinant
# was established: with its method field taken out, each report must hash
# to these.
WITHOUT_METHOD = {
    "check --input fixtures/example13-C.json":
        "422f0b83087bdcff91a95295e763a12d6f2876283c32211ab4cf5811af3ee8b1",
    "det --input fixtures/example13-C.json":
        "a67e67318f227470f89d833e1a9585675036408592883eea43590ea08910009e",
    "check --input fixtures/example13-Cprime.json":
        "7a62c23a4f5ea82627295d02ccede0e77c5d1d94c22b3550d4ebcad44775d9a2",
    "det --input fixtures/example13-Cprime.json":
        "145533b0217c668e0602fbb79ce2adccd74b048a927c2411789009c5a83e1709",
    "check --input fixtures/line-n5.json":
        "5773a82115adc4cb261c17f49489a9bb959d311ba3f55580b7a3578580b1ea81",
    "det --input fixtures/line-n5.json":
        "90b2d17b033e29aa446405f0da41b6d8c7415ab2992a43a4b715de293ea45c12",
    "check --input fixtures/line-n10.json":
        "6a89e146e4fc755bc4566945da1ec0267a926fd6824c15e8f6a8ecaeb8b0b046",
    "det --input fixtures/line-n10.json":
        "e235c5dcf05bd5cb25d040cb7226e86bc711bf0c87f7d213c8ad21ab4793dbbf",
    "check --input fixtures/cyclic-r3-n7.json":
        "f70bc3d3e257fc4174b388f587984798a210dbbb75fab6f46d80103838e45996",
    "det --input fixtures/cyclic-r3-n7.json":
        "d1fe99f3478b7c1a7410465c5ed7b8cba9c099c1f1be98be4992d9130237a039",
    "check --input fixtures/vamos.json":
        "41c44c758c8ccfe77fbd45e1c3325436d249d46346b7bd2a37cc46437824db1c",
    "det --input fixtures/vamos.json":
        "98aab20442f98c9141da45010db8c15059bdfb4fdd7e2e1746e37cb1c25dd2b2",
    "random --dim 3 --n 7 --count 5 --seed 4":
        "5b0d29cbda51b0aa3348abc91c09f8e736f7d96b1ad92bb0ee1847397010afd5",
}


def without_method(case: str, text: str) -> bytes:
    """The report with every method field taken out, re-serialised as the
    CLI writes it: one indented document, or for random one compact line
    per instance."""
    def strip(report: dict) -> dict:
        holder = report["verdict"] if "verdict" in report else report
        how = holder.pop("method")
        assert set(how) == {"det_S", "det_Sq"}
        for entry in how.values():  # no random point or prime
            assert set(entry) <= {"kind", "error_bound"}
        return report
    if case.startswith("random"):
        lines = [json.dumps(strip(json.loads(line)), separators=(",", ":"))
                 for line in text.splitlines()]
        return ("\n".join(lines) + "\n").encode()
    return (json.dumps(strip(json.loads(text)), indent=2) + "\n").encode()


@pytest.mark.parametrize("case", sorted(WITHOUT_METHOD))
def test_reports_differ_only_by_method(case, tmp_path):
    argv = [str(ROOT / a) if a.startswith("fixtures/") else a for a in case.split()]
    out = tmp_path / "report.out"
    assert main(argv + ["--out", str(out)]) == 0
    stripped = without_method(case, out.read_text())
    assert hashlib.sha256(stripped).hexdigest() == WITHOUT_METHOD[case]


# The flag-space oracle certifies by peeling, in this order: the phi rows,
# the boundary rows of the bases off the phi pivots, and y.  A peel that
# fails hands its claim to exact elimination, which must give the same
# reports.  Each case names the peels that fail; without the phi peel there
# are no pivots, so the boundary takes its Smith form too.
FALLBACKS = {"peel": {"phi", "boundary", "y"},
             "phi": {"phi"},
             "boundary": {"boundary"}}


@pytest.mark.parametrize("broken", sorted(FALLBACKS))
@pytest.mark.parametrize("case", [c for c in CASES if c.startswith("invariants")])
def test_invariants_digest_holds_through_the_fallback(case, broken, pinned,
                                                      tmp_path, monkeypatch):
    peel, smith = flagspace._peel, flagspace.smith_divisors
    order = iter(["phi", "boundary"])  # the peels with mapping rows
    smith_forms = []

    def fallible(rows):
        kind = next(order) if isinstance(rows[0], dict) else "y"
        return None if kind in FALLBACKS[broken] else peel(rows)

    def counted(rows):
        smith_forms.append(len(rows))
        return smith(rows)
    monkeypatch.setattr(flagspace, "_peel", fallible)
    monkeypatch.setattr(flagspace, "smith_divisors", counted)
    assert run_case(case, tmp_path) == pinned[case]
    assert len(smith_forms) == (1 if broken == "boundary" else 2)


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
