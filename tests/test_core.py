"""Data model, switching, doubling, and the fixed target constructions."""

import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from signedgrids import (
    NEG,
    POS,
    AntitwinnedGraph,
    SignedGraph,
    antitwin_double,
    build_SP5,
    build_SP9,
    build_T4,
    f9_squares,
    negate,
    plus_universal,
    rho_t4,
    sign_masks,
    sp5_plus,
    sp9_plus,
    switch,
)
from signedgrids.core import F9Element, f9_elements

from helpers import (
    cycle_sign,
    induced_subgraph,
    mask_members,
    random_signed_graph,
    signed_graphs,
    switching_equivalent,
    underlying_pairs,
)


def all_positive_cycle(k):
    return SignedGraph(k, [(t, (t + 1) % k, POS) for t in range(k)])


class TestSwitch:
    def test_triangle_single_vertex(self):
        g = SignedGraph(3, [(0, 1, POS), (0, 2, POS), (1, 2, POS)])
        sw = switch(g, {0})
        assert sw.sign(0, 1) == NEG
        assert sw.sign(0, 2) == NEG
        assert sw.sign(1, 2) == POS

    def test_whole_vertex_set_is_identity(self):
        g = random_signed_graph(random.Random(1), 7, 0.5)
        assert switch(g, range(g.n)) == g

    @given(signed_graphs())
    def test_involution(self, g):
        rng = random.Random(hash(g.edges) & 0xFFFF)
        subset = [v for v in range(g.n) if rng.random() < 0.5]
        assert switch(switch(g, subset), subset) == g

    def test_out_of_range_vertex(self):
        g = SignedGraph(2, [(0, 1, POS)])
        with pytest.raises(ValueError):
            switch(g, {5})

    def test_underlying_graph_unchanged(self):
        g = random_signed_graph(random.Random(2), 6, 0.6)
        assert underlying_pairs(switch(g, {0, 3})) == underlying_pairs(g)

    @given(st.integers(min_value=3, max_value=9), st.data())
    def test_cycle_sign_is_switching_invariant(self, k, data):
        signs = data.draw(st.lists(st.sampled_from((POS, NEG)), min_size=k, max_size=k))
        g = SignedGraph(k, [(t, (t + 1) % k, signs[t]) for t in range(k)])
        subset = data.draw(st.sets(st.integers(min_value=0, max_value=k - 1)))
        cyc = list(range(k))
        assert cycle_sign(g, cyc) == cycle_sign(switch(g, subset), cyc)


class TestSwitchingEquivalent:
    def test_identical_graphs(self):
        g = random_signed_graph(random.Random(3), 6, 0.5)
        assert switching_equivalent(g, g) == frozenset()

    def test_c4_one_negative_vs_all_positive(self):
        g1 = SignedGraph(4, [(0, 1, NEG), (1, 2, POS), (2, 3, POS), (0, 3, POS)])
        g2 = all_positive_cycle(4)
        assert switching_equivalent(g1, g2) is None

    def test_c4_two_negatives_sharing_a_vertex(self):
        # oracle: enumerate all 16 switch sets and keep the ones that work
        g1 = SignedGraph(4, [(0, 1, NEG), (1, 2, POS), (2, 3, POS), (0, 3, NEG)])
        g2 = all_positive_cycle(4)
        valid = set()
        for bits in range(16):
            subset = frozenset(v for v in range(4) if (bits >> v) & 1)
            if switch(g1, subset) == g2:
                valid.add(subset)
        assert valid == {frozenset({0}), frozenset({1, 2, 3})}
        assert switching_equivalent(g1, g2) in valid

    def test_different_underlying_graph_rejected(self):
        g1 = SignedGraph(3, [(0, 1, POS)])
        g2 = SignedGraph(3, [(1, 2, POS)])
        with pytest.raises(ValueError):
            switching_equivalent(g1, g2)

    @given(signed_graphs(max_n=7))
    def test_roundtrip_finds_some_witness(self, g):
        rng = random.Random(g.n * 31 + len(g.edges))
        subset = [v for v in range(g.n) if rng.random() < 0.5]
        g2 = switch(g, subset)
        found = switching_equivalent(g, g2)
        assert found is not None
        assert switch(g, found) == g2


class TestNegate:
    def test_k3(self):
        g = SignedGraph(3, [(0, 1, POS), (0, 2, POS), (1, 2, POS)])
        assert all(s == NEG for _, _, s in negate(g).edges)

    @given(signed_graphs())
    def test_involution(self, g):
        assert negate(negate(g)) == g

    def test_t4_counts(self):
        neg_t4 = negate(build_T4())
        negs = sum(1 for *_, s in neg_t4.edges if s == NEG)
        assert (negs, neg_t4.edge_count - negs) == (5, 1)


class TestAntitwinDouble:
    def test_single_positive_edge(self):
        g = SignedGraph(2, [(0, 1, POS)])
        atg = antitwin_double(g)
        d = atg.graph
        assert d.n == 4 and d.edge_count == 4
        # plus copies 0,1; minus copies 2,3
        assert d.sign(0, 1) == POS and d.sign(2, 3) == POS
        assert d.sign(0, 3) == NEG and d.sign(1, 2) == NEG

    @given(signed_graphs())
    @settings(max_examples=50)
    def test_edge_count_quadruples(self, g):
        assert antitwin_double(g).graph.edge_count == 4 * g.edge_count

    def test_invariants_on_random_inputs(self):
        # the AntitwinnedGraph constructor re-validates everything; also
        # check the complementary-neighborhood property directly
        for i in range(100):
            g = random_signed_graph(random.Random(i), random.Random(i).randint(1, 8))
            atg = antitwin_double(g)
            d = atg.graph
            masks = sign_masks(d)
            for v in range(d.n):
                tw = atg.twin(v)
                assert tw != v and atg.twin(tw) == v
                assert not d.has_edge(v, tw)
                assert masks[POS][v] == masks[NEG][tw]

    def test_rho_t4_positive_neighbors_of_first_vertex(self):
        # derive independently from the base edges: u^i v^j is positive iff
        # i*j*s(uv) = +1, so from 1+ the positive reach is 2+, 3+ and 4-
        t4 = build_T4()
        expected = set()
        for v, s in t4.neighbors(0).items():
            expected.add(v if s == POS else v + 4)
        d = rho_t4().graph
        assert d.n == 8
        assert mask_members(sign_masks(d)[POS][0]) == frozenset(expected) == frozenset({1, 2, 7})
        assert [d.label(v) for v in sorted(expected)] == ["2+", "3+", "4-"]

    @given(signed_graphs())
    @settings(max_examples=50)
    def test_commutes_with_negation(self, g):
        assert antitwin_double(negate(g)).graph == negate(antitwin_double(g).graph)

    def test_validation_rejects_bad_involution(self):
        g = SignedGraph(2, [])
        with pytest.raises(ValueError):
            AntitwinnedGraph(g, (0, 1))  # fixpoints


class TestPlusUniversal:
    def test_empty_graph_becomes_k1(self):
        g = plus_universal(SignedGraph(0, []))
        assert g.n == 1 and g.edge_count == 0 and g.label(0) == "inf"

    def test_sp9_plus(self):
        g = sp9_plus()
        assert g.n == 10
        masks = sign_masks(g)
        assert masks[POS][9].bit_count() == 9 and masks[NEG][9] == 0
        assert g.label(9) == "inf"

    def test_sp5_plus_is_complete_on_15_edges(self):
        assert sp5_plus().n == 6 and sp5_plus().edge_count == 15


class TestTargets:
    def test_t4(self):
        t4 = build_T4()
        masks = sign_masks(t4)
        assert mask_members(masks[POS][0]) == frozenset({1, 2})
        assert mask_members(masks[NEG][0]) == frozenset({3})
        assert mask_members(masks[POS][3]) == frozenset({1, 2})
        assert sum(1 for *_, s in t4.edges if s == NEG) == 1

    def test_f9_squares(self):
        squares = f9_squares()
        assert {e.label for e in squares} == {"1", "2", "x", "2x"}
        assert F9Element(2, 0) in squares  # -1 = 2 is a square
        assert {-e for e in squares} == set(squares)

    def test_f9_field_structure(self):
        elems = f9_elements()
        assert len(set(elems)) == 9
        zero, one = F9Element(0, 0), F9Element(1, 0)
        for a in elems:
            for b in elems:
                assert a + b == b + a and a * b == b * a
                for c in elems:
                    assert (a * b) * c == a * (b * c)
                    assert a * (b + c) == a * b + a * c
            if a != zero:  # multiplicative inverses exist
                assert any(a * b == one for b in elems)

    def test_sp9_positive_triangles_match_grid_layout(self):
        # rows and columns of the 3x3 element layout are all-positive triangles
        sp9 = build_SP9()
        rows = [(0, 1, 2), (3, 4, 5), (6, 7, 8)]
        cols = [(0, 3, 6), (1, 4, 7), (2, 5, 8)]
        positive_pairs = {(u, v) for u, v, s in sp9.edges if s == POS}
        expected = set()
        for tri in rows + cols:
            expected.update(
                (min(a, b), max(a, b)) for a, b in combinations(tri, 2)
            )
        assert positive_pairs == expected

    def test_sp9_examples(self):
        sp9 = build_SP9()
        assert sp9.sign(0, 4) == NEG  # x+1 is off the square set
        masks = sign_masks(sp9)
        for v in range(9):
            assert masks[POS][v].bit_count() == 4 and masks[NEG][v].bit_count() == 4

    def test_sp5(self):
        sp5 = build_SP5()
        positive_pairs = {(u, v) for u, v, s in sp5.edges if s == POS}
        assert positive_pairs == {(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)}
        assert sp5.sign(0, 2) == NEG
        masks = sign_masks(sp5)
        for v in range(5):
            assert masks[POS][v].bit_count() == 2 and masks[NEG][v].bit_count() == 2


class TestValidation:
    def test_rejects_loops(self):
        with pytest.raises(ValueError):
            SignedGraph(2, [(1, 1, POS)])

    def test_rejects_parallel_edges(self):
        with pytest.raises(ValueError):
            SignedGraph(2, [(0, 1, POS), (1, 0, NEG)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            SignedGraph(2, [(0, 2, POS)])

    def test_rejects_bad_sign(self):
        with pytest.raises(ValueError):
            SignedGraph(2, [(0, 1, 0)])

    def test_rejects_short_labels(self):
        with pytest.raises(ValueError):
            SignedGraph(2, [], labels=["a"])


def test_induced_subgraph_keeps_signs_and_reindexes():
    g = SignedGraph(4, [(0, 1, POS), (1, 2, NEG), (2, 3, POS), (0, 3, NEG)])
    sub = induced_subgraph(g, [1, 2, 3])
    assert sub.n == 3
    assert sub.edges == ((0, 1, NEG), (1, 2, POS))
