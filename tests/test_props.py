"""Target property checks: extension properties, automorphisms, transitivity."""

import random
from itertools import permutations

import pytest

from signedgrids import (
    NEG,
    POS,
    PropertyReport,
    SignedGraph,
    antitwin_double,
    automorphisms,
    build_SP9,
    build_T4,
    check_antiautomorphic,
    check_pkn,
    check_pstar21,
    check_transitivity,
    find_isomorphism,
    negate,
    rho_sp9_plus,
    rho_t4,
    sign_masks,
)
from signedgrids.hom import _class_targets
from signedgrids.props import pstar21_excluded_pairs

from helpers import (
    check_pkn_reference,
    check_transitivity_reference,
    common_positive_neighbors,
    f9_product,
    random_signed_graph,
)


def brute_automorphisms(g):
    out = []
    for perm in permutations(range(g.n)):
        if all(
            g.status(perm[u], perm[v]) == g.status(u, v)
            for u in range(g.n)
            for v in range(u + 1, g.n)
        ):
            out.append(perm)
    return out


class TestPkn:
    def test_rho_t4_p13_holds(self):
        assert check_pkn(rho_t4().graph, 1, 3).holds

    def test_rho_t4_p21_fails_on_exactly_the_four_pairs(self):
        atg = rho_t4()
        report = check_pkn(atg.graph, 2, 1)
        assert not report.holds
        normalized = set()
        for (u, v), (a, b), count in report.counterexamples:
            assert count == 0
            normalized.add(
                frozenset(
                    {u if a == POS else atg.twin(u), v if b == POS else atg.twin(v)}
                )
            )
        assert normalized == set(pstar21_excluded_pairs(atg))

    def test_monotone_in_n(self):
        g = rho_t4().graph
        for n in (3, 2, 1):
            assert check_pkn(g, 1, n).holds

    def test_small_graph_counterexample_bookkeeping(self):
        g = SignedGraph(2, [(0, 1, POS)])
        report = check_pkn(g, 1, 1)
        assert not report.holds
        assert ((0,), (NEG,), 0) in report.counterexamples

    def test_report_invariant_enforced(self):
        with pytest.raises(ValueError):
            PropertyReport("x", True, (("bad",),))

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            check_pkn(rho_t4().graph, 0, 1)

    def test_matches_per_tuple_reference_on_the_targets(self):
        # the same entries in the same order as one tuple and one sign
        # vector at a time, on holding and failing (k, n)
        failing = 0
        for g in (build_T4(), rho_t4().graph, build_SP9(), rho_sp9_plus().graph):
            for k in (1, 2, 3):
                for n in (1, 2, 4, 9):
                    report = check_pkn(g, k, n)
                    assert report == check_pkn_reference(g, k, n), (g, k, n)
                    failing += not report.holds
        assert failing > 10

    def test_matches_per_tuple_reference_on_random_graphs(self):
        rng = random.Random(4242)
        held = failed = 0
        for _ in range(60):
            g = random_signed_graph(rng, rng.randint(1, 9), rng.choice((0.3, 0.6, 0.9)))
            k, n = rng.randint(1, 3), rng.randint(1, 3)
            report = check_pkn(g, k, n)
            assert report == check_pkn_reference(g, k, n), (g.edges, k, n)
            held += report.holds
            failed += not report.holds and len(report.counterexamples) > 1
        assert held > 5 and failed > 20


class TestCommonPositiveNeighbors:
    def test_sp9_plus_pair_listing(self):
        g = rho_sp9_plus().graph
        got = {g.label(v) for v in common_positive_neighbors(g, 0, 1)}
        assert got == {"2+", "inf+", "x+2-", "2x+2-"}

    def test_positive_neighborhood_of_zero_plus(self):
        g = rho_sp9_plus().graph
        pos = sign_masks(g)[POS][0]
        got = {g.label(v) for v in range(g.n) if pos >> v & 1}
        assert got == {
            "1+",
            "2+",
            "x+",
            "2x+",
            "inf+",
            "x+1-",
            "x+2-",
            "2x+1-",
            "2x+2-",
        }

    def test_rho_t4_excluded_pair_is_empty(self):
        g = rho_t4().graph
        assert common_positive_neighbors(g, 0, 7) == frozenset()  # 1+, 4-
        assert common_positive_neighbors(g, 1, 6) == frozenset()  # 2+, 3-

    def test_rho_t4_same_group_pair_has_one(self):
        g = rho_t4().graph
        assert 3 in common_positive_neighbors(g, 1, 2)  # 4+ positive to 2+ and 3+

    def test_distinct_vertices_required(self):
        with pytest.raises(ValueError):
            common_positive_neighbors(rho_t4().graph, 1, 1)


class TestPstar21:
    def test_holds_on_rho_t4(self):
        assert check_pstar21(rho_t4()).holds

    def test_type_checked(self):
        with pytest.raises(TypeError):
            check_pstar21(build_T4())

    def test_only_defined_for_the_doubled_t4(self):
        from signedgrids import antitwin_double

        with pytest.raises(ValueError):
            check_pstar21(antitwin_double(build_SP9()))


class TestAutomorphisms:
    def test_all_positive_triangle_has_full_symmetry(self):
        k3 = SignedGraph(3, [(0, 1, POS), (0, 2, POS), (1, 2, POS)])
        assert sorted(automorphisms(k3)) == sorted(permutations(range(3)))

    def test_t4_group(self):
        found = sorted(automorphisms(build_T4()))
        assert found == sorted(brute_automorphisms(build_T4()))
        assert found == sorted(
            [(0, 1, 2, 3), (0, 2, 1, 3), (3, 1, 2, 0), (3, 2, 1, 0)]
        )

    def test_matches_brute_force_on_random_graphs(self):
        for i in range(25):
            g = random_signed_graph(random.Random(800 + i), 5, 0.5)
            assert sorted(automorphisms(g)) == sorted(brute_automorphisms(g))

    def test_yields_only_sign_preserving_maps(self):
        g = random_signed_graph(random.Random(77), 7, 0.4)
        for perm in automorphisms(g):
            for u, v, s in g.edges:
                assert g.status(perm[u], perm[v]) == s

    def test_rho_sp9_plus_order_is_a_multiple_of_20(self):
        count = sum(1 for _ in automorphisms(rho_sp9_plus().graph))
        assert count % 20 == 0


class TestTransitivity:
    def test_all_positive_k4(self):
        k4 = SignedGraph(4, [(u, v, POS) for u in range(4) for v in range(u + 1, 4)])
        assert check_transitivity(k4, 1).holds
        assert check_transitivity(k4, 2).holds

    def test_t4_is_not_vertex_transitive(self):
        report = check_transitivity(build_T4(), 1)
        assert not report.holds

    def test_counterexamples_in_pattern_then_tuple_order(self):
        g = SignedGraph(5, [(0, 1, POS), (1, 2, POS), (2, 3, NEG), (3, 4, POS), (0, 4, POS), (1, 3, NEG)])
        assert check_transitivity(g, 1).counterexamples == tuple(((v,), (), 0) for v in (1, 2, 3, 4))
        assert check_transitivity(g, 2).counterexamples == (
            ((2, 3), (NEG,), 0), ((3, 1), (NEG,), 0), ((3, 2), (NEG,), 0),
            ((0, 4), (POS,), 0), ((1, 0), (POS,), 0), ((1, 2), (POS,), 0), ((2, 1), (POS,), 0),
            ((3, 4), (POS,), 0), ((4, 0), (POS,), 0), ((4, 3), (POS,), 0),
        )

    @pytest.mark.parametrize("n", [1, 2])
    def test_matches_enumerated_group_on_the_targets(self, n):
        graphs = [rho_t4().graph, rho_sp9_plus().graph, build_T4(), build_SP9()]
        for order in range(1, 6):
            for h in _class_targets(order):
                graphs += [h, antitwin_double(h).graph]
        failing = 0
        for g in graphs:
            report = check_transitivity(g, n)
            assert report == check_transitivity_reference(g, n), g.edges
            failing += not report.holds
        assert check_transitivity(rho_sp9_plus().graph, n).holds
        assert failing >= 1

    def test_matches_enumerated_group_on_random_graphs(self):
        rng = random.Random(515)
        failing = 0
        for _ in range(40):
            g = random_signed_graph(rng, rng.randint(1, 7), rng.choice((0.4, 0.8)))
            for n in (1, 2, 3):
                report = check_transitivity(g, n)
                assert report == check_transitivity_reference(g, n), (g.edges, n)
                failing += len(report.counterexamples) > 1
        assert failing > 10


class TestAntiautomorphic:
    def test_sp9_is_antiautomorphic(self):
        assert check_antiautomorphic(build_SP9()) is not None

    def test_sp9_nonsquare_multiplication_witness(self):
        # multiplying by a fixed non-square, here 1 + x (vertex 4), swaps
        # squares and non-squares, hence flips every edge sign; confirm it
        # is a witness
        sp9 = build_SP9()
        assert not sign_masks(sp9)[POS][0] >> 4 & 1
        perm = [f9_product(v, 4) for v in range(9)]
        assert sorted(perm) == list(range(9))
        neg = negate(sp9)
        for u, v, s in sp9.edges:
            assert neg.sign(perm[u], perm[v]) == s

    def test_single_positive_edge_is_not(self):
        assert check_antiautomorphic(SignedGraph(2, [(0, 1, POS)])) is None


class TestIsomorphism:
    def test_finds_relabelings(self):
        rng = random.Random(31)
        for _ in range(15):
            g = random_signed_graph(rng, rng.randint(2, 7), 0.5)
            perm = list(range(g.n))
            rng.shuffle(perm)
            h = SignedGraph(
                g.n,
                [
                    (min(perm[u], perm[v]), max(perm[u], perm[v]), s)
                    for u, v, s in g.edges
                ],
            )
            iso = find_isomorphism(g, h)
            assert iso is not None
            for u, v, s in g.edges:
                assert h.status(iso[u], iso[v]) == s

    def test_distinguishes_sign_distributions(self):
        g = SignedGraph(3, [(0, 1, POS), (1, 2, POS)])
        h = SignedGraph(3, [(0, 1, POS), (1, 2, NEG)])
        assert find_isomorphism(g, h) is None

    def test_size_mismatch(self):
        assert find_isomorphism(SignedGraph(2, []), SignedGraph(3, [])) is None
