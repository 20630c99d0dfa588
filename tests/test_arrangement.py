import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from chamberforms.arrangement import Arrangement, Hyperplane, _cofactors
from chamberforms.polyring import int_det
from chamberforms.oriented_matroid import (AffineOrientedMatroid,
                                           ClosureCapExceeded, SignVector)
from chamberforms.matroid import Matroid
from conftest import (chirotope_sign, circuits, cocircuit_faces, conforms,
                      kernel_vector, line_points, load_arrangement, mask,
                      normal_matroid, point_signs, random_arrangement,
                      row_reduce, verify_built, vertices)


class TestHyperplane:
    def test_rational_parsing(self):
        h = Hyperplane.make("H", ["1/2", "-3"], "7/5")
        assert h.normal == (Fraction(1, 2), Fraction(-3))
        assert h.offset == Fraction(7, 5)

    def test_zero_normal_rejected(self):
        with pytest.raises(ValueError, match="zero normal"):
            Hyperplane.make("H", ["0", "0"], "1")


class TestChirotope:
    def test_sign_convention(self):
        arr = Arrangement(2, [Hyperplane.make("1", ["0", "1"], "0"),
                              Hyperplane.make("2", ["1", "0"], "0")])
        chi = arr.compile().central
        assert chirotope_sign(chi, ("1", "2")) == -1  # det [[0,1],[1,0]]

    def test_parallel_pair_is_zero(self):
        chi = load_arrangement("example13-C.json").compile().central
        assert chirotope_sign(chi, ("H1", "H2")) == 0
        assert chirotope_sign(chi, ("H3", "H4")) != 0

    def test_inessential_rejected(self):
        arr = Arrangement(2, [Hyperplane.make("1", ["0", "1"], "0"),
                              Hyperplane.make("2", ["0", "1"], "1")])
        with pytest.raises(ValueError, match="essential"):
            arr.validate_generic()

    def test_matroid_rank_agrees_with_linear_algebra(self):
        rng = random.Random(12)
        for _ in range(5):
            arr = random_arrangement(rng, 3, 6)
            if arr is None:
                continue
            m = arr.compile().matroid()
            for _ in range(10):
                s = frozenset(e for e in arr.ground if rng.random() < 0.5)
                rows = [list(h.normal) for h in arr.hyperplanes if h.label in s]
                assert m.rank(mask(m, s)) == (row_reduce(rows) if rows else 0)


class TestVertices:
    def test_example13_vertex_coordinates(self):
        arr = load_arrangement("example13-C.json")
        verts, m = vertices(arr), arr.compile().matroid()
        assert verts[mask(m, {"H1", "H3"})] == (Fraction(0), Fraction(1))
        assert verts[mask(m, {"H3", "H4"})] == (Fraction(0), Fraction(0))

    def test_example13_has_five_vertices(self):
        assert len(vertices(load_arrangement("example13-C.json"))) == 5

    def test_generic_eight_lines_have_28(self):
        from conftest import uniform_lines
        arr = uniform_lines(random.Random(2), 8)
        assert len(vertices(arr)) == 28


class TestIntegerMinors:
    def test_agree_with_fraction_solves(self):
        """Vertex cocircuits and edge directions against Fraction elimination."""
        rng = random.Random(2407)
        seen_generic = seen_violation = seen_dependent = 0
        for _ in range(200):
            dim = rng.randint(1, 4)
            normals = []
            for _ in range(rng.randint(dim, dim + 3)):
                if len(normals) >= 2 and rng.random() < 0.3:
                    # a combination of two earlier normals: not uniform
                    u, v = rng.sample(normals, 2)
                    k = Fraction(rng.choice([-2, -1, 1, 3]), rng.randint(1, 3))
                    normal = [a + k * b for a, b in zip(u, v)]
                else:
                    normal = [Fraction(rng.randint(-3, 3), rng.randint(1, 4))
                              for _ in range(dim)]
                if not any(normal):
                    normal[0] = Fraction(1, 2)
                normals.append(normal)
            hyps = [Hyperplane.make(f"H{i}", a,
                                    Fraction(rng.randint(-2, 2), rng.choice([1, 1, 3])))
                    for i, a in enumerate(normals)]
            arr = Arrangement(dim, hyps)
            try:
                arr.validate_generic()
            except ValueError:
                continue  # inessential draw

            m = normal_matroid(arr)
            verts = {frozenset(m.elements(b)): p for b, p in vertices(arr).items()}
            index = arr.ground.index
            extras = [(b, frozenset(m.elements(point_signs(arr, verts[b]).zero_set())) - b)
                      for b in sorted(verts, key=lambda b: sorted(map(index, b)))]
            violated = [(b, extra) for b, extra in extras if extra]
            witness = arr.validate_generic()
            if not violated:
                assert witness is None
                want = sorted((point_signs(arr, p) for p in verts.values()),
                              key=SignVector.key)
                assert list(arr.compile().feasible) == want
                assert arr.compile().matroid() == m  # minors against Fraction ranks
                seen_generic += 1
            else:
                # the fundamental circuit of the least extra hyperplane on
                # the first vertex, in index order
                b, extra = violated[0]
                e = min(extra, key=index)
                circuit = {x for x in b if (b - {x}) | {e} in verts} | {e}
                assert witness is not None and set(witness.circuit) == circuit
                seen_violation += 1

            for sub in combinations(range(len(hyps)), dim - 1):
                v = arr.kernel_direction(sub)
                u = kernel_vector([hyps[i].normal for i in sub], dim)
                if u is None:
                    assert not any(v)
                    seen_dependent += 1
                else:
                    assert any(v)
                    assert all(v[i] * u[j] == v[j] * u[i]
                               for i, j in combinations(range(dim), 2))
        assert seen_generic > 100 and seen_violation > 10 and seen_dependent > 10


@st.composite
def cofactor_inputs(draw):
    width = draw(st.integers(1, 6))
    row = st.lists(st.integers(-20, 20), min_size=width, max_size=width)
    return draw(st.lists(row, min_size=width - 1, max_size=width - 1)), width


@given(cofactor_inputs())
@settings(deadline=None, max_examples=200)
def test_cofactors_are_the_signed_maximal_minors(args):
    rows, width = args
    assert _cofactors(rows, width) == tuple(
        (-1) ** j * int_det([row[:j] + row[j + 1:] for row in rows])
        for j in range(width))


class TestValidateGeneric:
    def test_example13_ok(self):
        assert load_arrangement("example13-C.json").validate_generic() is None

    def test_one_vertex_star_over_the_cap_stops_the_scan(self, monkeypatch):
        """A vertex star of the plane holds 2^2 topes: a cap of 3 rejects
        the arrangement before the scan, and a cap of 4 lets it through."""
        from chamberforms import arrangement, oriented_matroid

        def no_scan(rows, width):
            raise AssertionError("scanned the r-subsets")
        monkeypatch.setattr(oriented_matroid, "_CLOSURE_CAP", 3)
        monkeypatch.setattr(arrangement, "_cofactors", no_scan)
        with pytest.raises(ClosureCapExceeded, match=r"a vertex star of 2\^2 topes"):
            load_arrangement("example13-C.json").validate_generic()
        monkeypatch.undo()
        monkeypatch.setattr(oriented_matroid, "_CLOSURE_CAP", 4)
        assert load_arrangement("example13-C.json").validate_generic() is None

    def test_coincident_lines_violate(self):
        arr = Arrangement(2, [Hyperplane.make("H1", ["0", "1"], "1"),
                              Hyperplane.make("H2", ["0", "1"], "1"),
                              Hyperplane.make("H3", ["1", "0"], "0")])
        v = arr.validate_generic()
        assert v is not None and set(v.circuit) == {"H1", "H2"}
        assert v.rank == 1

    def test_concurrent_lines_violate(self):
        arr = Arrangement(2, [Hyperplane.make("H1", ["1", "0"], "0"),
                              Hyperplane.make("H2", ["0", "1"], "0"),
                              Hyperplane.make("H3", ["1", "1"], "0")])
        v = arr.validate_generic()
        assert v is not None and set(v.circuit) == {"H1", "H2", "H3"}

    def test_three_concurrent_of_four(self):
        arr = Arrangement(2, [Hyperplane.make("H1", ["1", "0"], "0"),
                              Hyperplane.make("H2", ["1", "2"], "5"),
                              Hyperplane.make("H3", ["0", "1"], "0"),
                              Hyperplane.make("H4", ["1", "1"], "0")])
        v = arr.validate_generic()
        assert v == (("H1", "H3", "H4"), 2)
        assert v.describe() == ("hyperplanes ['H1', 'H3', 'H4'] are dependent but "
                                "share a point (coefficient rank 2, augmented rank 2)")

    def test_agrees_with_circuit_rank_definition(self):
        """Vertex zero sets against the definition: a circuit with a common point."""
        def violating_circuits(arr):
            out = {}
            for circuit in circuits(normal_matroid(arr)):
                hyps = [h for h in arr.hyperplanes if h.label in circuit]
                r_coef = row_reduce([list(h.normal) for h in hyps])
                if row_reduce([list(h.normal) + [h.offset] for h in hyps]) == r_coef:
                    out[frozenset(circuit)] = r_coef
            return out

        rng = random.Random(11)
        seen_violation = seen_generic = 0
        for _ in range(150):
            dim = rng.choice([2, 3])
            hyps = []
            for i in range(rng.randint(dim, dim + 3)):
                normal = [rng.randint(-1, 1) for _ in range(dim)]
                if not any(normal):
                    normal[0] = 1
                hyps.append(Hyperplane.make(f"H{i}", normal, rng.randint(-1, 1)))
            arr = Arrangement(dim, hyps)
            try:
                arr.validate_generic()
            except ValueError:
                continue  # inessential draw
            want = violating_circuits(arr)
            v = arr.validate_generic()
            if v is None:
                assert want == {}
                seen_generic += 1
            else:
                assert want.get(frozenset(v.circuit)) == v.rank
                seen_violation += 1
        assert seen_violation > 10 and seen_generic > 10

    def test_compile_rejects_non_generic(self):
        arr = Arrangement(2, [Hyperplane.make("H1", ["1", "0"], "0"),
                              Hyperplane.make("H2", ["0", "1"], "0"),
                              Hyperplane.make("H3", ["1", "1"], "0")])
        with pytest.raises(ValueError, match="not generic"):
            arr.compile()


class TestCompile:
    def test_cocircuit_count_equals_bases(self):
        rng = random.Random(31)
        for _ in range(5):
            arr = random_arrangement(rng, rng.choice([1, 2, 3]), rng.randint(2, 7))
            if arr is None:
                continue
            om = arr.compile()
            assert len(om.feasible) == len(om.matroid().bases)

    def test_one_matroid_per_instance(self, monkeypatch):
        built = []
        init = Matroid.__init__

        def counted(self, *args):
            built.append(self)
            init(self, *args)

        monkeypatch.setattr(Matroid, "__init__", counted)
        arr = load_arrangement("example13-C.json")
        assert arr.validate_generic() is None
        om = arr.compile()
        assert len(built) == 1 and om.matroid() is built[0]

    def test_points_on_line(self):
        om = line_points(2).compile()
        assert len(om.feasible) == 3
        assert len(om.bounded_topes()) == 2

    def test_lift_label_avoids_the_ground_set(self):
        """Seven lines labelled a-g, one of them the default lift label."""
        arr = Arrangement(2, [Hyperplane.make(label, ["1", str(t)], str(t * t))
                              for t, label in enumerate("abcdefg", 1)])
        om = arr.compile()
        assert om.g not in om.ground
        assert AffineOrientedMatroid.from_json(om.to_json()).to_json() == om.to_json()

    def test_interior_point_conforms_to_exactly_one_bounded_tope(self):
        arr = load_arrangement("example13-Cprime.json")
        om = arr.compile()
        verts = vertices(arr)
        for t in om.bounded_topes():
            vs = [verts[y.zero_set()] for y in cocircuit_faces(om, t)]
            centroid = tuple(sum(c) / len(vs) for c in zip(*vs))
            sv = point_signs(arr, centroid)
            hits = [u for u in om.bounded_topes() if conforms(sv, u)]
            assert hits == [t]

    def test_translation_invariance_of_determinants(self):
        # same normals, different generic offsets: equal det S and det S_q
        vs_c, vq_c = verify_built(load_arrangement("example13-C.json").compile())
        vs_p, vq_p = verify_built(load_arrangement("example13-Cprime.json").compile())
        assert vs_c.lhs == vs_p.lhs
        assert vq_c.lhs == vq_p.lhs

    def test_offset_resampling_keeps_determinants(self):
        rng = random.Random(77)
        arr = random_arrangement(rng, 2, 5)
        vs0, vq0 = verify_built(arr.compile())
        tries = 0
        while tries < 10:
            offsets = [Fraction(rng.randint(-40, 40), rng.randint(1, 7))
                       for _ in arr.hyperplanes]
            cand = arr.with_offsets(offsets)
            if cand.validate_generic() is not None:
                continue
            tries += 1
            vs1, vq1 = verify_built(cand.compile())
            assert vs1.lhs == vs0.lhs
            assert vq1.lhs == vq0.lhs


class TestJson:
    def test_round_trip(self):
        arr = load_arrangement("example13-C.json")
        again = Arrangement.from_json(arr.to_json())
        assert again.to_json() == arr.to_json()

    def test_malformed_rejected(self):
        with pytest.raises(ValueError, match="malformed"):
            Arrangement.from_json({"dim": 2})
        with pytest.raises(ValueError, match="malformed"):
            Arrangement.from_json({"dim": 2, "hyperplanes": [{"label": "H"}]})

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            Arrangement(1, [Hyperplane.make("H", ["1"], "0"),
                            Hyperplane.make("H", ["1"], "1")])
