"""The affine Vamos oriented matroid, fixtures/vamos.json.

The fixture is the published lift of the Vamos oriented matroid by the
cobasis {3,6,7,8}, given by its 65 feasible cocircuits.  Each lists its four
nonzero elements; the zero set is the complementary 4-subset and must be a
basis, so the 65 zero sets determine the underlying rank-4 matroid (the five
missing 4-subsets are its circuits).  The file's chirotope is re-derived
here from the cocircuits alone.
"""

import json
from itertools import combinations

import pytest

from chamberforms import cli
from chamberforms.matroid import bits, r_subsets
from chamberforms.oriented_matroid import (AffineOrientedMatroid, Chirotope,
                                           SignVector, lift_couplings)
from conftest import cocircuits_from_chirotope, load_fixture

VAMOS = load_fixture("vamos.json")
GROUND = tuple(VAMOS["elements"])
COCIRCUITS = tuple(VAMOS["lift"]["feasible_cocircuits"])


def feasible_cocircuits(texts=COCIRCUITS) -> list[SignVector]:
    return [SignVector.from_text(GROUND, t) for t in texts]


def derive_chirotope(texts=COCIRCUITS) -> Chirotope:
    """Recover the rank-4 central chirotope from the cocircuit signs.

    For a basis b and j outside b, the feasible cocircuit with zero set b
    satisfies Y_b(j) = chi(b) * chi~(b, j) where chi~ is the rank-5
    chirotope of the lift and chi(b) = chi~(b, g).  Running j over a
    5-subset s containing two bases couples their chi values, so a spanning
    propagation fixes chi up to a global sign, chosen + on the lex-least
    basis.  The remaining equations are the lift check that
    AffineOrientedMatroid.from_json runs on every oriented-matroid document.
    """
    couplings = {}  # basis b -> lift_couplings of its cocircuit
    for y in feasible_cocircuits(texts):
        z = y.zero_set()
        if z.bit_count() != 4 or z in couplings:
            raise ValueError("cocircuit zero sets must be 65 distinct 4-subsets")
        couplings[z] = lift_couplings(y)

    quads = r_subsets(len(GROUND), 4)
    start = next(b for b in quads if b in couplings)  # the lex-least basis
    chi = {start: 1}
    frontier = [start]
    while frontier:
        nxt = []
        for b in frontier:
            for s, c in couplings[b].items():
                for jp in bits(s):
                    bp = s ^ 1 << jp
                    if bp not in couplings or bp in chi:
                        continue
                    # chi(b) c(b, s) = chi(bp) c(bp, s); couplings are units
                    chi[bp] = chi[b] * c * couplings[bp][s]
                    nxt.append(bp)
        frontier = nxt
    if len(chi) != len(couplings):
        raise ValueError("basis exchange graph is disconnected; cannot propagate")
    return Chirotope(4, GROUND, [chi.get(b, 0) for b in quads])


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
        assert len(COCIRCUITS) == 65

    def test_zero_sets_are_the_bases(self):
        zero_sets = {frozenset(GROUND[i] for i in bits(y.zero_set()))
                     for y in feasible_cocircuits()}
        assert len(zero_sets) == 65
        all_quads = {frozenset(c) for c in combinations(GROUND, 4)}
        circuits = all_quads - zero_sets
        assert circuits == {
            frozenset({"5", "6", "7", "8"}), frozenset({"2", "4", "7", "8"}),
            frozenset({"2", "4", "5", "6"}), frozenset({"1", "3", "7", "8"}),
            frozenset({"1", "3", "5", "6"})}

    def test_each_cocircuit_has_four_nonzeros(self):
        for y in feasible_cocircuits():
            assert sum(1 for x in y.signs() if x) == 4


class TestChirotopeDerivation:
    def test_consistent_and_complete(self):
        chi = derive_chirotope()
        assert len(chi.bases()) == 65

    def test_supports_match_matroid(self):
        m = derive_chirotope().to_matroid()
        assert len(m.bases) == 65
        assert m.rank_ == 4

    def test_normalized_global_sign(self):
        chi = derive_chirotope()
        first = chi.bases()[0]  # the lexicographically least basis
        assert chi.sign_of(first) == 1

    def test_inconsistent_data_detected(self):
        broken = list(COCIRCUITS)
        broken[0] = "5 6 -7 8"  # flip one sign: the propagation still closes
        doc = json.loads(json.dumps(VAMOS))
        doc["chirotope"] = derive_chirotope(broken).text()
        doc["lift"]["feasible_cocircuits"] = broken
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
        expected = sorted(SignVector.from_text(GROUND, t).key()
                          for t in BOUNDED_TOPES)
        assert got == expected

    def test_infinite_cocircuit_count(self, vamos_om):
        # hyperplanes of the Vamos matroid: 36 free triples + 5 circuit quads
        assert len(cocircuits_from_chirotope(vamos_om.central)) == 41


class TestFixtureFile:
    def test_cocircuits_reproduce_the_chirotope(self):
        assert derive_chirotope().text() == VAMOS["chirotope"]

    def test_fixture_loads_and_agrees(self, vamos_om):
        om = AffineOrientedMatroid(derive_chirotope(), feasible_cocircuits())
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
