import random
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from chamberforms import oriented_matroid
from chamberforms.arrangement import Arrangement, Hyperplane
from chamberforms.make_fixtures import FIXTURES
from chamberforms.oriented_matroid import (AffineOrientedMatroid, Chirotope,
                                           ClosureCapExceeded, SignVector,
                                           separation)
from conftest import (affine_covectors, bounded_topes_by_closure, chirotope_sign,
                      cocircuit_faces, cocircuits_from_chirotope, compose,
                      conforms, example13_C, line_points, load_fixture, mask,
                      meet_f_vector_by_rank, negate, random_arrangement)


def sv(text, ground=("1", "2", "3")):
    return SignVector.from_text(ground, text)


class TestSignVector:
    def test_text_round_trip(self):
        ground = tuple(str(i) for i in range(1, 9))
        v = SignVector.from_text(ground, "5 6 -7 -8")
        assert v.text() == "5 6 -7 -8"
        assert v.zero_set() == 0b1111  # elements 1, 2, 3, 4
        assert v.signs() == (0, 0, 0, 0, 1, 1, -1, -1)

    def test_from_signs_and_signs(self):
        v = SignVector.from_signs(("a", "b", "c"), (1, 0, -1))
        assert v.signs() == (1, 0, -1)
        assert v.key() == "+0-"

    def test_unknown_element_rejected(self):
        with pytest.raises(ValueError, match="unknown element"):
            sv("9")

    def test_duplicate_rejected(self):
        with pytest.raises(ValueError, match="twice"):
            sv("1 -1")

    def test_negation(self):
        neg = negate(sv("1 -2").bits, 3)
        assert SignVector(("1", "2", "3"), neg).signs() == (-1, 1, 0)

    def test_key_order_plus_minus_zero(self):
        # canonical order: + < - < 0
        a, b, c = sv("1 2 3"), sv("1 -2 3"), sv("1 3")
        assert sorted([c, b, a], key=SignVector.key) == [a, b, c]

    @given(st.integers(1, 12).flatmap(lambda n: st.lists(
        st.tuples(*[st.sampled_from((1, -1, 0))] * n), min_size=2, max_size=6)))
    @settings(deadline=None, max_examples=200)
    def test_packing(self, tuples):
        """bits = plus | minus << n, and every view agrees with the tuple."""
        n = len(tuples[0])
        ground = tuple(f"e{i}" for i in range(n))
        vs = [SignVector.from_signs(ground, t) for t in tuples]
        for v, t in zip(vs, tuples):
            assert v.signs() == t
            assert v.plus == sum(1 << i for i, x in enumerate(t) if x == 1)
            assert v.minus == sum(1 << i for i, x in enumerate(t) if x == -1)
            assert v.zero_set() == sum(1 << i for i, x in enumerate(t) if x == 0)
            assert v.bits == v.plus | v.minus << n
            assert SignVector.from_text(ground, v.text()) == v
        assert separation(vs[0], vs[1]) == sum(x != y for x, y in zip(*tuples[:2]))
        rank = {1: 0, -1: 1, 0: 2}  # + < - < 0
        assert ([v.signs() for v in sorted(vs, key=SignVector.key)]
                == sorted(tuples, key=lambda t: [rank[x] for x in t]))


class TestComposition:
    def test_definition(self):
        assert compose(sv("2"), sv("-1 3")).signs() == (-1, 1, 1)

    def test_idempotent(self):
        x = sv("1 -2")
        assert compose(x, x) == x

    def test_first_wins(self):
        assert compose(sv("1", ("1", "2")), sv("-1 2", ("1", "2"))).signs() == (1, 1)

    def test_ground_mismatch(self):
        with pytest.raises(ValueError):
            compose(sv("1"), sv("1", ("1", "2")))

    def test_associative(self):
        rng = random.Random(3)
        ground = tuple("abcde")
        for _ in range(50):
            x, y, z = (SignVector.from_signs(
                ground, (rng.choice([-1, 0, 1]) for _ in ground))
                for _ in range(3))
            assert compose(compose(x, y), z) == compose(x, compose(y, z))


class TestConforms:
    def test_examples(self):
        assert conforms(sv("2"), sv("-1 2 3"))
        assert not conforms(sv("1", ("1", "2")), sv("-1 2", ("1", "2")))
        x = sv("1 -2 3")
        assert conforms(x, x)


class TestSeparation:
    def test_zero_on_self(self):
        x = sv("1 -2 3")
        assert separation(x, x) == 0

    def test_counts_differing_elements(self):
        assert separation(sv("1 2 3"), sv("1 -2 -3")) == 2
        assert separation(sv("1 2"), sv("1 -2 3")) == 2  # 0 vs + counts


class TestChirotope:
    def test_alternating(self):
        c = Chirotope.from_text(2, ("1", "2", "3"), "+++")
        assert chirotope_sign(c, ("1", "2")) == 1
        assert chirotope_sign(c, ("2", "1")) == -1

    def test_repeat_gives_zero(self):
        c = Chirotope.from_text(2, ("1", "2", "3"), "+++")
        assert chirotope_sign(c, ("1", "1")) == 0

    def test_identity_order_is_stored_sign(self):
        c = Chirotope.from_text(2, ("1", "2", "3"), "+-0")
        assert chirotope_sign(c, ("1", "3")) == -1
        assert chirotope_sign(c, ("2", "3")) == 0

    def test_text_round_trip(self):
        c = Chirotope.from_text(2, ("1", "2", "3"), "+-+")
        assert Chirotope.from_text(2, ("1", "2", "3"), c.text()).text() == c.text()

    def test_identically_zero_rejected(self):
        with pytest.raises(ValueError):
            Chirotope.from_text(2, ("1", "2", "3"), "000")

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            Chirotope.from_text(2, ("1", "2", "3"), "+-")


class TestCocircuitsFromChirotope:
    def test_u23(self):
        c = Chirotope.from_text(2, ("1", "2", "3"), "+++")
        got = {y.key() for y in cocircuits_from_chirotope(c)}
        # one canonical representative per +- pair
        assert got == {"0++", "+0-", "++0"} or got == {"0++", "-0+", "--0"}
        # brute-force support minimality among all six signed cocircuits
        alls = [b for y in cocircuits_from_chirotope(c)
                for b in (y.bits, negate(y.bits, 3))]
        assert len(set(alls)) == 6
        sups = [frozenset(i for i, x in enumerate(SignVector(c.ground, b).signs()) if x)
                for b in alls]
        assert not any(a < b for a in sups for b in sups)

    def test_u12_parallel(self):
        c = Chirotope.from_text(1, ("1", "2"), "++")
        got = cocircuits_from_chirotope(c)
        assert len(got) == 1 and got[0].key() in ("++", "--")

    def test_rank_one_single_element(self):
        c = Chirotope.from_text(1, ("1",), "+")
        got = cocircuits_from_chirotope(c)
        assert len(got) == 1 and abs(got[0].signs()[0]) == 1


def om_example13() -> AffineOrientedMatroid:
    return example13_C().compile()


def fixture_om(name: str) -> AffineOrientedMatroid:
    doc = load_fixture(name)
    return (Arrangement.from_json(doc).compile() if "hyperplanes" in doc
            else AffineOrientedMatroid.from_json(doc))


class TestBoundedTopes:
    def test_example13_two_chambers(self):
        assert len(om_example13().bounded_topes()) == 2

    def test_generic_eight_lines(self):
        arr = None
        rng = random.Random(4)
        from conftest import uniform_lines
        arr = uniform_lines(rng, 8)
        assert len(arr.compile().bounded_topes()) == 21

    def test_canonical_order_stable_under_reserialization(self):
        om = om_example13()
        om2 = AffineOrientedMatroid.from_json(om.to_json())
        assert [t.key() for t in om2.bounded_topes()] == \
            [t.key() for t in om.bounded_topes()]

    def test_every_tope_is_composition_of_its_cocircuit_faces(self):
        for om in (om_example13(), line_points(4).compile()):
            for t in om.bounded_topes():
                faces = [y for y in om.feasible if conforms(y, t)]
                acc = faces[0]
                for y in faces[1:]:
                    acc = compose(acc, y)
                assert acc == t

    def test_closure_cap(self, monkeypatch):
        om = line_points(5).compile()
        monkeypatch.setattr(oriented_matroid, "_CLOSURE_CAP", 3)
        with pytest.raises(ClosureCapExceeded):
            om.bounded_topes()

    def test_cap_boundary_before_enumeration(self, monkeypatch):
        # six vertices on a line, each with a star of 2^1 fillings: 12
        def no_enumeration(*_):
            raise AssertionError("enumerated past the cap")
        om = line_points(5).compile()
        monkeypatch.setattr(oriented_matroid, "_CLOSURE_CAP", 11)
        monkeypatch.setattr(oriented_matroid, "_subsets", no_enumeration)
        with pytest.raises(ClosureCapExceeded, match="6 vertex stars"):
            om.bounded_topes()
        monkeypatch.undo()
        monkeypatch.setattr(oriented_matroid, "_CLOSURE_CAP", 12)
        topes = om.bounded_topes()
        assert len(topes) == 5
        for a in topes:
            for b in topes:
                om.meet_faces(a, b)  # the cap on the stars bounds every meet

    def test_closure_matches_geometric_face_count(self):
        # simple 2-dimensional arrangements: #faces = V + sum(k_i + 1) + (1 + n + V)
        rng = random.Random(9)
        for _ in range(5):
            arr = random_arrangement(rng, 2, rng.randint(3, 6))
            if arr is None:
                continue
            om = arr.compile()
            m = om.matroid()
            n = len(arr.ground)
            V = len(m.bases)
            edges = sum(
                sum(1 for b in m.bases if e in m.elements(b)) + 1 for e in arr.ground)
            chambers = 1 + n + V
            assert len(affine_covectors(om)) == V + edges + chambers


class TestVertexStars:
    """bounded_topes fills in the zeros of each vertex; the reference closes
    the feasible cocircuits under composition."""

    @staticmethod
    def assert_matches_closure(om):
        topes, masks = bounded_topes_by_closure(om)
        assert om.bounded_topes() == topes
        assert {t.bits: om.face_mask(t) for t in topes} == masks

    @pytest.mark.parametrize("name", list(FIXTURES))
    def test_fixtures(self, name):
        self.assert_matches_closure(fixture_om(name))

    # rank 4 is the rank of dense; at n = 9 the closure takes about 0.05 s
    @given(st.integers(1, 4).flatmap(
        lambda r: st.tuples(st.just(r), st.integers(r, 9))), st.integers(0, 2 ** 32))
    @settings(deadline=None, max_examples=40)
    def test_random_arrangements(self, shape, seed):
        arr = random_arrangement(random.Random(seed), *shape)
        if arr is not None:
            self.assert_matches_closure(arr.compile())


class TestCocircuitFaces:
    def test_triangle_has_three_vertices(self):
        om = om_example13()
        t = om.bounded_topes()[0]
        faces = cocircuit_faces(om, t)
        assert len(faces) == 3
        assert all(y.zero_set() in om.matroid().bases for y in faces)

    def test_square_chamber_has_four(self):
        from conftest import example13_Cprime
        om = example13_Cprime().compile()
        counts = sorted(len(cocircuit_faces(om, t)) for t in om.bounded_topes())
        assert counts == [3, 4]

    def test_segment_has_two(self):
        om = line_points(2).compile()
        for t in om.bounded_topes():
            assert len(cocircuit_faces(om, t)) == 2

    def test_face_masks_match_cocircuit_faces(self, vamos_om):
        for om in (vamos_om, om_example13(), line_points(4).compile()):
            for t in om.bounded_topes():
                faces = om.cocircuits_in(om.face_mask(t))
                assert faces == [y for y in om.feasible if y in cocircuit_faces(om, t)]

    def test_bounded_topes_have_only_feasible_faces(self, vamos_om):
        feas = {y.bits for y in vamos_om.feasible}
        for t in vamos_om.bounded_topes()[:5]:
            for y in cocircuit_faces(vamos_om, t):
                assert y.bits in feas


class TestMeetFaces:
    def test_triangle_with_itself(self):
        om = om_example13()
        t = om.bounded_topes()[0]
        assert om.meet_faces(t, t) == (3, 3, 1)

    def test_two_chambers_share_a_vertex(self):
        om = om_example13()
        a, b = om.bounded_topes()
        assert om.meet_faces(a, b) == (1,)
        assert separation(a, b) == 2

    def test_shared_edge_in_translated_arrangement(self):
        from conftest import example13_Cprime
        om = example13_Cprime().compile()
        a, b = om.bounded_topes()
        assert om.meet_faces(a, b) == (2, 1)
        assert separation(a, b) == 1

    def test_empty_meet_is_none(self):
        om = line_points(3).compile()
        topes = om.bounded_topes()
        assert om.meet_faces(topes[0], topes[2]) is None

    def test_vertex_mask_of_no_face_raises(self):
        # two opposite corners of the square chamber share no hyperplane,
        # so their mask cuts into two points, not into edges
        from conftest import example13_Cprime
        om = example13_Cprime().compile()
        square = max((om.face_mask(t) for t in om.bounded_topes()), key=int.bit_count)
        corners = om.cocircuits_in(square)
        assert len(corners) == 4
        k, l = next((k, l) for k, y in enumerate(om.feasible) if y in corners
                    for l, z in enumerate(om.feasible) if z in corners
                    and not y.zero_set() & z.zero_set())
        with pytest.raises(ValueError, match="not an oriented matroid"):
            om._f_vector(1 << k | 1 << l)

    def test_euler_on_all_pairs(self, vamos_om):
        topes = vamos_om.bounded_topes()
        for i in range(0, len(topes), 7):
            for j in range(i, len(topes), 7):
                f = vamos_om.meet_faces(topes[i], topes[j])
                assert f is None or sum((-1) ** k * fk for k, fk in enumerate(f)) == 1

    def test_diagonal_f0_matches_cocircuit_faces(self, vamos_om):
        for t in vamos_om.bounded_topes()[:6]:
            assert vamos_om.meet_faces(t, t)[0] == len(cocircuit_faces(vamos_om, t))


class TestCountedDimensions:
    """meet_faces counts a face's dimension from its support; the reference
    asks Matroid.rank for the rank of its zero set."""

    @staticmethod
    def assert_every_pair_matches(om):
        topes = om.bounded_topes()
        for i, a in enumerate(topes):
            for b in topes[i:]:
                assert om.meet_faces(a, b) == meet_f_vector_by_rank(om, a, b), \
                    (a.text(), b.text())

    @pytest.mark.parametrize("name", list(FIXTURES))
    def test_fixtures(self, name):
        self.assert_every_pair_matches(fixture_om(name))

    def test_random_arrangements(self):
        rng = random.Random(17)
        checked = 0
        while checked < 20:
            dim = rng.randint(1, 3)
            arr = random_arrangement(rng, dim, rng.randint(dim + 1, 8))
            if arr is not None:
                self.assert_every_pair_matches(arr.compile())
                checked += 1

    def test_uniform_rank_4_on_8(self):
        # x0 + t x1 + t^2 x2 + t^3 x3 = t^4: four planes meet at the point
        # whose quartic has their four roots t, so no fifth plane passes it
        arr = Arrangement(4, [Hyperplane.make(f"H{t}", [1, t, t ** 2, t ** 3], t ** 4)
                              for t in range(1, 9)])
        om = arr.compile()
        assert len(om.matroid().bases) == 70
        self.assert_every_pair_matches(om)


class TestBasisToCocircuit:
    def test_example13_vertex(self):
        om = om_example13()
        b = mask(om.matroid(), {"H3", "H4"})
        y = om.basis_to_cocircuit(b)
        # vertex at the origin: below H1, above H2
        assert y.signs()[:2] == (-1, 1)
        assert y.zero_set() == b

    def test_count_equals_bases(self):
        om = om_example13()
        assert len(om.feasible) == len(om.matroid().bases)

    def test_missing_basis_rejected(self):
        om = om_example13()
        with pytest.raises(ValueError):
            om.basis_to_cocircuit(mask(om.matroid(), {"H1", "H2"}))


class TestValidation:
    def test_duplicate_zero_set_rejected(self):
        chi = Chirotope.from_text(2, ("1", "2", "3"), "+++")
        dup = [SignVector.from_text(("1", "2", "3"), "3"),
               SignVector.from_text(("1", "2", "3"), "-3"),
               SignVector.from_text(("1", "2", "3"), "2")]
        with pytest.raises(ValueError, match="share a zero set"):
            AffineOrientedMatroid(chi, dup)

    def test_non_basis_zero_set_rejected(self):
        chi = Chirotope.from_text(2, ("1", "2", "3"), "+++")
        bad = [SignVector.from_text(("1", "2", "3"), "1 2")]  # zero set {3}
        with pytest.raises(ValueError, match="genericity"):
            AffineOrientedMatroid(chi, bad)

    def test_count_mismatch_rejected(self):
        chi = Chirotope.from_text(2, ("1", "2", "3"), "+++")
        feas = [SignVector.from_text(("1", "2", "3"), "3")]
        with pytest.raises(ValueError, match="bijectivity"):
            AffineOrientedMatroid(chi, feas)

    @given(st.integers(1, 4).flatmap(
        lambda r: st.tuples(st.just(r), st.integers(r, 8))), st.integers(0, 2 ** 32))
    @settings(deadline=None, max_examples=30)
    def test_lift_check_accepts_compiled_documents(self, shape, seed):
        arr = random_arrangement(random.Random(seed), *shape)
        if arr is not None:
            AffineOrientedMatroid.from_json(arr.compile().to_json())  # runs check_lift

    def test_genericity_rejected(self):
        ground = ("1", "2", "3")
        for rank, chi, feasible in [
                (2, "++0", ["3", "1 2", "-1 2"]),
                # '-2' has zero set {1, 3}, two elements in a rank-1 matroid
                (1, "+++", ["-2 3", "-1 3", "1 -2", "-2"]),
                # '-3' has the dependent zero set {1, 2}
                (1, "+++", ["-2 -3", "-3", "1 2"])]:
            with pytest.raises(ValueError, match="genericity"):
                AffineOrientedMatroid(Chirotope.from_text(rank, ground, chi),
                                      [SignVector.from_text(ground, t)
                                       for t in feasible])
