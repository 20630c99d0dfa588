"""The affine Vamos oriented matroid fixture.

The fixture is specified by its 65 feasible cocircuits (the published lift
of the Vamos oriented matroid by the cobasis {3,6,7,8}).  Each cocircuit
lists its four nonzero elements; the zero set is the complementary
4-subset and must be a basis, so the 65 zero sets determine the underlying
rank-4 matroid (the five missing 4-subsets are its circuits).

The central chirotope is not given explicitly; it is recovered here from
the cocircuit signs.  For a basis b and j outside b, the feasible cocircuit
with zero set b satisfies Y_b(j) = chi(b) * chi~(b, j) where chi~ is the
rank-5 chirotope of the lift and chi(b) = chi~(b, g).  Running j over a
5-subset s containing two bases couples their chi values, so a spanning
propagation fixes chi up to a global sign.  The remaining equations are
the lift check that AffineOrientedMatroid.from_json runs on every
oriented-matroid document, this fixture included.
"""

from __future__ import annotations

from .matroid import bits, r_subsets
from .oriented_matroid import Chirotope, SignVector, lift_couplings

GROUND = tuple(str(i) for i in range(1, 9))

# Feasible cocircuits, four nonzero entries each ("-" marks negative).
COCIRCUITS = (
    "5 6 -7 -8", "4 6 -7 8", "4 -5 7 8", "4 -5 6 8", "4 5 6 -7",
    "-3 -6 -7 -8", "-3 5 -7 -8", "-3 -5 -6 8", "-3 -5 -6 -7", "-3 4 -7 8",
    "-3 -4 -6 -8", "-3 4 -6 -7", "-3 4 -5 8", "-3 4 5 -7", "-3 -4 -5 -6",
    "-2 6 -7 8", "-2 -5 -7 8", "-2 -5 -6 8", "-2 5 6 -7", "2 4 6 8",
    "-2 -4 6 -7", "-2 4 -5 8", "-2 -4 -5 -7", "-2 -3 -7 8", "2 -3 -6 -8",
    "-2 -3 -6 -7", "2 -3 5 -8", "-2 -3 5 -7", "2 -3 -5 -6", "2 -3 4 8",
    "-2 -3 -4 -7", "2 -3 4 -6", "2 -3 4 5", "1 -6 7 8", "1 5 7 8",
    "1 5 6 8", "1 5 6 -7", "1 4 7 8", "1 4 6 8", "1 -4 -6 7",
    "-1 4 -5 8", "1 -4 5 7", "1 -4 5 6", "1 -3 -6 8", "1 -3 -6 -7",
    "1 -3 5 8", "1 -3 5 -7", "1 -3 4 8", "-1 -3 4 -7", "1 -3 -4 -6",
    "1 -3 -4 5", "1 -2 7 8", "1 -2 6 8", "-1 -2 6 -7", "1 -2 -5 8",
    "1 2 5 7", "1 2 5 6", "1 -2 -4 8", "1 -2 -4 -7", "1 -2 -4 -6",
    "1 -2 -4 5", "1 -2 -3 8", "-1 -2 -3 -7", "1 2 -3 -6", "1 2 -3 5",
)

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


def feasible_cocircuits() -> list[SignVector]:
    return [SignVector.from_text(GROUND, t) for t in COCIRCUITS]


def derive_chirotope() -> Chirotope:
    """Recover the central chirotope from the cocircuit signs."""
    couplings = {}  # basis b -> lift_couplings of its cocircuit
    for y in feasible_cocircuits():
        z = y.zero_set()
        if z.bit_count() != 4 or z in couplings:
            raise ValueError("cocircuit zero sets must be 65 distinct 4-subsets")
        couplings[z] = lift_couplings(y)

    quads = r_subsets(8, 4)
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


def fixture_json() -> dict:
    return {
        "rank": 4,
        "elements": list(GROUND),
        "chirotope": derive_chirotope().text(),
        "lift": {"g": "g", "feasible_cocircuits": list(COCIRCUITS)},
    }
