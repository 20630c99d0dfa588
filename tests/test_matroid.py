import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from chamberforms.matroid import Flat, Matroid
from chamberforms.oriented_matroid import AffineOrientedMatroid
from conftest import (beta_sum, dual, is_coloop, is_connected, load_arrangement,
                      load_fixture, mask, matroid_from_columns, matroid_on,
                      mobius, mobius_plus, nbc_count, row_reduce,
                      uniform_matroid)

U23 = uniform_matroid(2, 3)
U12 = uniform_matroid(1, 2)
U28 = uniform_matroid(2, 8)


def example13_matroid() -> Matroid:
    return load_arrangement("example13-C.json").compile().matroid()


def vamos() -> Matroid:
    return AffineOrientedMatroid.from_json(load_fixture("vamos.json")).matroid()


small_matrices = st.lists(
    st.lists(st.integers(-3, 3), min_size=2, max_size=3),
    min_size=2, max_size=6,
).filter(lambda cols: any(any(c) for c in cols)
         and len({len(c) for c in cols}) == 1)


class TestConstruction:
    def test_exchange_violation_rejected(self):
        # bases {1,2} and {3,4} as an oriented-matroid document; the 2-subsets
        # in lex order are 12 13 14 23 24 34
        doc = {"rank": 2, "elements": ["1", "2", "3", "4"], "chirotope": "+0000+",
               "lift": {"feasible_cocircuits": ["3 4", "1 2"]}}
        with pytest.raises(ValueError, match=r"exchange fails for \['1', '2'\], "
                                             r"\['3', '4'\], 1$"):
            AffineOrientedMatroid.from_json(doc)

    def test_check_exchange_matches_definition(self):
        def satisfies_exchange(bases):
            return all(any(b1 - {x} | {y} in bases for y in b2 - b1)
                       for b1 in bases for b2 in bases for x in b1 - b2)
        rng = random.Random(5)
        verdicts = set()
        for _ in range(300):
            n = rng.randint(2, 6)
            subsets = [frozenset(c) for c in combinations(range(n), rng.randint(1, n))]
            bases = set(rng.sample(subsets, rng.randint(1, len(subsets))))
            ok = satisfies_exchange(bases)
            verdicts.add(ok)
            if ok:
                matroid_on(range(n), bases).check_exchange()
            else:
                with pytest.raises(ValueError, match="exchange"):
                    matroid_on(range(n), bases).check_exchange()
        assert verdicts == {True, False}

    def test_unequal_basis_sizes_rejected(self):
        with pytest.raises(ValueError):
            matroid_on((1, 2), [{1}, {1, 2}])

    def test_empty_bases_rejected(self):
        with pytest.raises(ValueError):
            Matroid((1, 2), [])


class TestRankClosure:
    def test_rank_examples(self):
        assert U23.rank(0) == 0
        assert U23.rank(mask(U23, {1, 2, 3})) == 2
        m = example13_matroid()
        assert m.rank(mask(m, {"H1", "H2"})) == 1  # parallel normals

    def test_rank_outside_ground(self):
        with pytest.raises(ValueError):
            U23.rank(1 << 3)
        with pytest.raises(ValueError):
            mask(U23, {9})

    def test_closure_examples(self):
        assert U23.closure(mask(U23, {1})) == Flat(mask(U23, {1}), 1)
        m = example13_matroid()
        assert m.elements(m.closure(mask(m, {"H1"})).elements) == ["H1", "H2"]
        assert m.closure(mask(m, {"H1"})).rank == 1
        assert U23.closure(mask(U23, U23.ground)).elements == mask(U23, U23.ground)

    def test_closure_outside_ground(self):
        with pytest.raises(ValueError):
            U23.closure(1 << 3)

    @given(small_matrices)
    @settings(deadline=None, max_examples=40)
    def test_closure_matches_rank_definition(self, cols):
        """cl(s) = {e : r(s + e) = r(s)}, with loops and parallel columns."""
        m = matroid_from_columns(cols)
        rng = random.Random(1)
        for _ in range(5):
            s = frozenset(e for e in m.ground if rng.random() < 0.5)
            r = m.rank(mask(m, s))
            closed = frozenset(e for e in m.ground if m.rank(mask(m, s | {e})) == r)
            assert m.closure(mask(m, s)) == Flat(mask(m, closed), r)

    @given(small_matrices)
    @settings(deadline=None, max_examples=40)
    def test_rank_agrees_with_linear_algebra(self, cols):
        m = matroid_from_columns(cols)
        rng = random.Random(0)
        for _ in range(5):
            s = frozenset(e for e in m.ground if rng.random() < 0.5)
            rows = [cols[e - 1] for e in s]
            expect = row_reduce([[Fraction(x) for x in r] for r in rows]) if rows else 0
            assert m.rank(mask(m, s)) == expect


class TestFlats:
    def test_u12(self):
        assert [(set(U12.elements(f.elements)), f.rank) for f in U12.flats()] == \
            [(set(), 0), ({1, 2}, 1)]

    def test_u23(self):
        got = [set(U23.elements(f.elements)) for f in U23.flats()]
        assert got == [set(), {1}, {2}, {3}, {1, 2, 3}]

    def test_vamos_flat_counts(self):
        # brute-force closure over all 2^8 subsets gives (1, 8, 28, 41, 1)
        fl = vamos().flats()
        assert len(fl) == 79
        by_rank = {}
        for f in fl:
            by_rank[f.rank] = by_rank.get(f.rank, 0) + 1
        assert by_rank == {0: 1, 1: 8, 2: 28, 3: 41, 4: 1}

    def test_sorted_by_rank_then_lex(self):
        fl = example13_matroid().flats()
        ranks = [f.rank for f in fl]
        assert ranks == sorted(ranks)


class TestMobius:
    def test_empty_flat_is_one(self):
        for m in (U23, U12, U28, example13_matroid()):
            assert mobius_plus(m, m.closure(0)) == 1

    def test_u12_full(self):
        assert mobius_plus(U12, U12.closure(mask(U12, {1, 2}))) == 1

    def test_example13_parallel_flat(self):
        m = example13_matroid()
        assert mobius_plus(m, m.closure(mask(m, {"H1", "H2"}))) == 1

    def test_non_flat_rejected(self):
        m = example13_matroid()
        with pytest.raises(ValueError, match="not a flat"):
            mobius_plus(m, frozenset({"H1"}))

    def test_mobius_telescopes_to_zero(self):
        for m in (U23, U28, example13_matroid(), vamos()):
            assert sum(mobius(m, f) for f in m.flats()) == 0

    def test_equals_nbc_on_every_flat(self):
        for m in (U23, U12, U28, example13_matroid(), vamos(), dual(vamos())):
            for f in m.flats():
                assert mobius_plus(m, f) == nbc_count(m, f), f


class TestNbc:
    """mu+ = T(1, 0), the bases with no externally active element."""

    def test_empty_flat(self):
        assert nbc_count(U23, U23.closure(0)) == 1
        assert U23.restrict(0).tutte(1, 0) == 1

    def test_u23_full(self):
        assert nbc_count(U23, U23.closure(mask(U23, {1, 2, 3}))) == 2
        assert U23.tutte(1, 0) == 2

    def test_loops_kill_all_nbc_bases(self):
        loopy = matroid_on((1, 2), [{2}])  # 1 is a loop
        assert nbc_count(loopy, loopy.closure(mask(loopy, {1, 2}))) == 0
        assert loopy.tutte(1, 0) == 0


class TestMinorsDual:
    def test_dual_u23(self):
        assert dual(U23) == uniform_matroid(1, 3)

    def test_u28_chain(self):
        e = 8
        assert U28.restrict(mask(U28, set(U28.ground) - {e})) == uniform_matroid(2, 7)
        assert U28.contract(mask(U28, {e})) == uniform_matroid(1, 7, ground=range(1, 8))

    def test_dual_involution(self):
        for m in (U23, U28, example13_matroid(), vamos()):
            assert dual(dual(m)) == m

    def test_contract_loop_is_delete(self):
        loopy = matroid_on((1, 2), [{2}])
        assert loopy.contract(mask(loopy, {1})) == loopy.restrict(mask(loopy, {2}))

    def test_restrict_keeps_ground_order(self):
        m = vamos()
        r = m.restrict(mask(m, {"5", "2", "7"}))
        assert r.ground == ("2", "5", "7")


class TestConnectivity:
    """Crapo: connected iff beta > 0, once there are two elements."""

    def test_coloop_alone(self):
        assert is_coloop(uniform_matroid(1, 1), 1)
        assert is_connected(uniform_matroid(1, 1))
        assert uniform_matroid(1, 1).beta() == 1

    def test_u22_disconnected(self):
        assert not is_connected(uniform_matroid(2, 2))
        assert uniform_matroid(2, 2).beta() == 0

    def test_u23_connected(self):
        assert is_connected(U23)
        assert U23.beta() == 1

    def test_loop_coloop_flags(self):
        loopy = matroid_on((1, 2), [{2}])
        assert loopy.rank(mask(loopy, {1})) == 0 and loopy.rank(mask(loopy, {2})) == 1
        assert is_coloop(loopy, 2) and not is_coloop(loopy, 1)
        assert loopy.activities() == {(1, 1): 1}  # T = xy


class TestBeta:
    def test_single_coloop(self):
        assert uniform_matroid(1, 1).beta() == 1

    def test_single_loop(self):
        assert matroid_on((1,), [set()]).beta() == 0

    def test_u28(self):
        assert U28.beta() == 6

    def test_vamos(self):
        assert vamos().beta() == 15

    def test_u14(self):
        assert uniform_matroid(1, 4).beta() == 1

    def test_disconnected_is_zero(self):
        assert uniform_matroid(2, 2).beta() == 0

    def test_beta_sum_examples(self):
        assert beta_sum(U23, U23.closure(0)) == 0
        assert beta_sum(U23, U23.closure(mask(U23, {1, 2, 3}))) == 1
        u14 = uniform_matroid(1, 4)
        assert beta_sum(u14, u14.closure(mask(u14, {1, 2, 3, 4}))) == 1

    def test_beta_sum_equals_beta_of_restriction(self):
        for m in (U23, U28, example13_matroid(), vamos()):
            for f in m.flats():
                if f.elements:
                    assert beta_sum(m, f) == m.restrict(f.elements).beta(), f

    @given(small_matrices)
    @settings(deadline=None, max_examples=30)
    def test_deletion_contraction_independent_of_element(self, cols):
        m = matroid_from_columns(cols)
        b = m.beta()
        assert b >= 0
        for e in m.ground:
            if m.rank(mask(m, {e})) == 1 and not is_coloop(m, e):
                rest = m.restrict(mask(m, set(m.ground) - {e}))
                assert rest.beta() + m.contract(mask(m, {e})).beta() == b

    @given(small_matrices)
    @settings(deadline=None, max_examples=30)
    def test_zero_when_disconnected(self, cols):
        m = matroid_from_columns(cols)
        if len(m.ground) >= 2:
            assert (m.beta() > 0) == is_connected(m)


class TestActivities:
    def test_u23_tutte_polynomial(self):
        # T = x^2 + x + y in ground order 1 < 2 < 3
        assert U23.activities() == {(2, 0): 1, (1, 0): 1, (0, 1): 1}
        assert U23.tutte(1, 1) == len(U23.bases)

    def test_dual_swaps_activities(self):
        for m in (U23, U28, example13_matroid(), vamos()):
            assert dual(m).activities() == {(j, i): c for (i, j), c
                                             in m.activities().items()}

    @given(small_matrices)
    @settings(deadline=None, max_examples=40)
    def test_match_reference_routes(self, cols):
        """mu+ and beta from activities against nbc bases and the flat lattice."""
        m = matroid_from_columns(cols)
        loopless = not m.closure(0).elements  # the flat lattice ignores loops
        for f in m.flats():
            rest = m.restrict(f.elements)
            assert rest.tutte(1, 0) == nbc_count(m, f), f
            if loopless:
                assert rest.tutte(1, 0) == mobius_plus(m, f), f
                assert rest.beta() == beta_sum(m, f), f
        d = dual(m)
        assert m.tutte(0, 1) == nbc_count(d, d.closure(mask(d, d.ground)))


class TestColoopFreeFlats:
    def test_u1n(self):
        for n in (2, 3, 5):
            m = uniform_matroid(1, n)
            got = [set(m.elements(f.elements)) for f in m.coloop_free_flats()]
            assert got == [set(), set(m.ground)]

    def test_example13(self):
        m = example13_matroid()
        got = [set(m.elements(f.elements)) for f in m.coloop_free_flats()]
        assert got == [set(), {"H1", "H2"}, set(m.ground)]

    def test_vamos_circuits(self):
        m = vamos()
        got = [set(m.elements(f.elements)) for f in m.coloop_free_flats()]
        proper = [s for s in got if s and s != set(m.ground)]
        assert proper == [sorted_set for sorted_set in
                          [{"1", "3", "5", "6"}, {"1", "3", "7", "8"},
                           {"2", "4", "5", "6"}, {"2", "4", "7", "8"},
                           {"5", "6", "7", "8"}]]
        assert set() in got and set(m.ground) in got

    def test_u28_only_trivial(self):
        got = [set(U28.elements(f.elements)) for f in U28.coloop_free_flats()]
        assert got == [set(), set(U28.ground)]

    @given(small_matrices)
    @settings(deadline=None, max_examples=40)
    def test_matches_restriction_definition(self, cols):
        """No element of K is a coloop of the restricted matroid M|K."""
        m = matroid_from_columns(cols)
        want = [f for f in m.flats() if not f.elements or not any(
            is_coloop(m.restrict(f.elements), e) for e in m.elements(f.elements))]
        assert m.coloop_free_flats() == want
