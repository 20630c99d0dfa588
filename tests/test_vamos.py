import json
from itertools import combinations

import pytest

from chamberforms import cli, vamos
from chamberforms.matroid import bits
from chamberforms.oriented_matroid import AffineOrientedMatroid, SignVector
from conftest import FIXTURE_DIR, cocircuits_from_chirotope, load_fixture

# Bounded topes of the lift, published alongside the cocircuits.
BOUNDED_TOPES = (
    "1 2 -3 -4 -5 -6 -7 -8", "1 -2 -3 4 -5 -6 -7 -8", "1 2 -3 4 -5 -6 -7 -8",
    "1 -2 -3 4 5 -6 -7 -8", "1 2 -3 4 5 -6 -7 -8", "1 -2 -3 4 5 6 -7 -8",
    "1 2 -3 -4 -5 -6 -7 8", "1 -2 -3 4 -5 -6 -7 8", "1 2 -3 4 -5 -6 -7 8",
    "-1 -2 -3 -4 5 -6 -7 8", "1 -2 -3 -4 5 -6 -7 8", "1 2 -3 -4 5 -6 -7 8",
    "-1 -2 -3 4 5 -6 -7 8", "1 -2 -3 4 5 -6 -7 8", "1 2 -3 4 5 -6 -7 8",
    "1 -2 -3 -4 -5 6 -7 8", "1 -2 -3 4 -5 6 -7 8", "1 2 -3 4 -5 6 -7 8",
    "-1 -2 -3 -4 5 6 -7 8", "1 -2 -3 -4 5 6 -7 8", "1 2 -3 -4 5 6 -7 8",
    "1 -2 -3 4 5 6 -7 8", "1 -2 -3 -4 5 -6 7 8", "1 -2 -3 4 5 -6 7 8",
    "1 -2 -3 -4 -5 6 7 8", "-1 -2 -3 4 -5 6 7 8", "1 -2 -3 4 -5 6 7 8",
    "1 -2 -3 -4 5 6 7 8", "1 2 -3 -4 5 6 7 8", "1 -2 -3 4 5 6 7 8",
)


class TestCocircuitData:
    def test_sixty_five_entries(self):
        assert len(vamos.COCIRCUITS) == 65

    def test_zero_sets_are_the_bases(self):
        zero_sets = {frozenset(vamos.GROUND[i] for i in bits(y.zero_set()))
                     for y in vamos.feasible_cocircuits()}
        assert len(zero_sets) == 65
        all_quads = {frozenset(c) for c in combinations(vamos.GROUND, 4)}
        circuits = all_quads - zero_sets
        assert circuits == {
            frozenset({"5", "6", "7", "8"}), frozenset({"2", "4", "7", "8"}),
            frozenset({"2", "4", "5", "6"}), frozenset({"1", "3", "7", "8"}),
            frozenset({"1", "3", "5", "6"})}

    def test_each_cocircuit_has_four_nonzeros(self):
        for y in vamos.feasible_cocircuits():
            assert sum(1 for x in y.signs() if x) == 4


class TestChirotopeDerivation:
    def test_consistent_and_complete(self):
        chi = vamos.derive_chirotope()
        assert len(chi.bases()) == 65

    def test_supports_match_matroid(self):
        m = vamos.derive_chirotope().to_matroid()
        assert len(m.bases) == 65
        assert m.rank_ == 4

    def test_normalized_global_sign(self):
        chi = vamos.derive_chirotope()
        first = chi.bases()[0]  # the lexicographically least basis
        assert chi.sign_of(first) == 1

    def test_inconsistent_data_detected(self, monkeypatch):
        broken = list(vamos.COCIRCUITS)
        broken[0] = "5 6 -7 8"  # flip one sign: the propagation still closes
        monkeypatch.setattr(vamos, "COCIRCUITS", tuple(broken))
        doc = vamos.fixture_json()
        with pytest.raises(ValueError, match="give the lift two signs"):
            AffineOrientedMatroid.from_json(doc)


class TestAffineVamos:
    def test_genericity_reading_confirmed(self, vamos_om):
        # the published table lists the nonzero entries; the complement of
        # each support is a basis, as the lift genericity demands
        bases = set(vamos_om.matroid().bases)
        for y in vamos_om.feasible:
            assert y.zero_set() in bases

    def test_thirty_bounded_topes_exactly(self, vamos_om):
        got = [t.key() for t in vamos_om.bounded_topes()]
        expected = sorted(SignVector.from_text(vamos.GROUND, t).key()
                          for t in BOUNDED_TOPES)
        assert got == expected

    def test_infinite_cocircuit_count(self, vamos_om):
        # hyperplanes of the Vamos matroid: 36 free triples + 5 circuit quads
        assert len(cocircuits_from_chirotope(vamos_om.central)) == 41


class TestFixtureFile:
    def test_checked_in_fixture_matches_generator(self):
        text = (FIXTURE_DIR / "vamos.json").read_text()
        assert text == json.dumps(vamos.fixture_json(), indent=2) + "\n"

    def test_fixture_loads_and_agrees(self, vamos_om):
        om = AffineOrientedMatroid(vamos.derive_chirotope(),
                                   vamos.feasible_cocircuits())
        om.check_lift()
        assert [t.key() for t in om.bounded_topes()] == \
            [t.key() for t in vamos_om.bounded_topes()]


def single_flips():
    """The fixture with one chirotope sign, or one sign of one feasible
    cocircuit, flipped: 65 + 260 documents."""
    doc = load_fixture("vamos.json")
    chi = doc["chirotope"]
    quads = list(combinations(doc["elements"], doc["rank"]))
    for i, (quad, ch) in enumerate(zip(quads, chi)):
        if ch != "0":
            flipped = json.loads(json.dumps(doc))
            flipped["chirotope"] = chi[:i] + "+-"[ch == "+"] + chi[i + 1:]
            yield pytest.param(flipped, id="chi-" + "".join(quad))
    for k, text in enumerate(doc["lift"]["feasible_cocircuits"]):
        tokens = text.split()
        for m, tok in enumerate(tokens):
            flipped = json.loads(json.dumps(doc))
            tok = tok[1:] if tok.startswith("-") else "-" + tok
            flipped["lift"]["feasible_cocircuits"][k] = " ".join(
                tokens[:m] + [tok] + tokens[m + 1:])
            yield pytest.param(flipped, id=f"cocircuit-{k}-{m}")


@pytest.mark.parametrize("doc", single_flips())
def test_single_flip_exits_1(doc, tmp_path, capsys):
    p = tmp_path / "flipped.json"
    p.write_text(json.dumps(doc))
    assert cli.main(["check", "--input", str(p)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "internal inconsistency" not in err and "Traceback" not in err
