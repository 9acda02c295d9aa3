"""Homomorphism search, verification, and the exact chromatic number."""

import random
from collections import Counter
from itertools import combinations, permutations

import pytest

import signedgrids.hom
from signedgrids import (
    NEG,
    POS,
    BudgetExceededError,
    SearchBudget,
    SignedGraph,
    antitwin_double,
    build_T4,
    build_SP9,
    canonical_complete_targets,
    complete_signed_graph,
    find_ec_hom,
    find_isomorphism,
    find_signed_hom,
    rho_t4,
    sign_masks,
    signed_chromatic_number,
    switch,
    unbalanced_c6,
    unbalanced_wheel7,
    verify_ec,
    verify_signed,
)
from signedgrids.graphio import hom_from_dict
from signedgrids.hom import (
    Homomorphism,
    _class_targets,
    _search_plan,
    ec_to_signed,
    switching_classes,
)

from signedgrids.colorers import color_hex, color_tri
from signedgrids.core import rho_sp9_plus, sp9_plus
from signedgrids.grids import GridSpec, SignedGrid, make_grid, random_signature

from helpers import (
    all_complete_targets,
    antitwin_double_reference,
    canonical_complete_targets_reference,
    ec_hom_exists_brute,
    find_ec_hom_reference,
    induced_target,
    random_signed_graph,
    search_order_reference,
    sign_masks_reference,
    signed_chromatic_number_reference,
    signed_hom_exists_brute,
    switching_class_grid,
    switching_classes_reference,
    verify_ec_reference,
    verify_signed_reference,
    verify_signed_with_mapping,
)


def all_positive_cycle(k):
    return SignedGraph(k, [(t, (t + 1) % k, POS) for t in range(k)])


class TestVerifyEc:
    def test_identity(self):
        g = random_signed_graph(random.Random(0), 6, 0.5)
        assert verify_ec(g, g, list(range(g.n)))

    def test_bipartite_folding(self):
        c6 = all_positive_cycle(6)
        edge = SignedGraph(2, [(0, 1, POS)])
        assert verify_ec(c6, edge, [0, 1, 0, 1, 0, 1])

    def test_unbalanced_c6_fails_on_both_two_vertex_targets(self):
        c6 = unbalanced_c6()
        alternating = [v % 2 for v in range(6)]
        for s in (POS, NEG):
            h = SignedGraph(2, [(0, 1, s)])
            assert not verify_ec(c6, h, alternating)
            assert find_ec_hom(c6, h) is None

    def test_requires_total_mapping(self):
        g = SignedGraph(2, [(0, 1, POS)])
        with pytest.raises(ValueError):
            verify_ec(g, g, [0])

    def test_out_of_range_entries_fail(self):
        path = SignedGraph(2, [(0, 1, POS)])
        t4 = build_T4()
        # -1 would otherwise alias the last target vertex
        assert verify_ec(path, t4, (3, 1)) and not verify_ec(path, t4, (-1, 1))
        assert not verify_ec(path, t4, (0, 99))

    def test_out_of_range_switch_entry_fails(self):
        path = SignedGraph(2, [(0, 1, POS)])
        t4 = build_T4()
        assert verify_signed(path, t4, Homomorphism((0, 3), frozenset({1})))
        assert not verify_signed(path, t4, Homomorphism((0, 3), frozenset({1, 99})))


class TestFindEcHom:
    def test_agrees_with_mapping_enumeration(self):
        # independent oracle: try every possible mapping
        for i in range(40):
            rng = random.Random(600 + i)
            g = random_signed_graph(rng, rng.randint(1, 6), 0.5)
            h = random_signed_graph(rng, rng.randint(1, 3), 0.7)
            found = find_ec_hom(g, h)
            assert (found is not None) == ec_hom_exists_brute(g, h)
            if found is not None:
                assert verify_ec(g, h, found.mapping)

    def test_edge_into_t4(self):
        g = SignedGraph(2, [(0, 1, POS)])
        found = find_ec_hom(g, build_T4())
        assert found is not None and build_T4().sign(*sorted(found.mapping)) == POS

    def test_unbalanced_c6_into_doubled_t4(self):
        found = find_ec_hom(unbalanced_c6(), rho_t4().graph)
        assert found is not None
        assert verify_ec(unbalanced_c6(), rho_t4().graph, found.mapping)

    def test_all_positive_triangle_into_sp9(self):
        k3 = SignedGraph(3, [(0, 1, POS), (0, 2, POS), (1, 2, POS)])
        assert find_ec_hom(k3, build_SP9()) is not None

    def test_domains_are_respected(self):
        c6 = all_positive_cycle(6)
        edge = SignedGraph(2, [(0, 1, POS)])
        domains = [1 << v % 2 for v in range(6)]
        found = find_ec_hom(c6, edge, domains=domains)
        assert found is not None and found.mapping == (0, 1, 0, 1, 0, 1)
        # forcing both endpoints of an edge to one target vertex must fail
        assert find_ec_hom(c6, edge, domains=[0b01] * 6) is None

    def test_domains_must_be_bitmasks_over_the_target(self):
        c6 = all_positive_cycle(6)
        edge = SignedGraph(2, [(0, 1, POS)])
        with pytest.raises(ValueError, match="every vertex"):
            find_ec_hom(c6, edge, domains=[0b11] * 5)
        # a candidate list, a bool, a negative int, a bit at or above h.n
        for bad in ((0, 1), True, -1, 0b100):
            with pytest.raises(ValueError, match="int bitmasks"):
                find_ec_hom(c6, edge, domains=[0b11] * 5 + [bad])

    def test_deterministic(self):
        g = random_signed_graph(random.Random(8), 8, 0.4)
        h = rho_t4().graph
        a = find_ec_hom(g, h)
        b = find_ec_hom(g, h)
        assert a == b

    def test_budget_exhaustion_raises(self):
        g = all_positive_cycle(8)
        with pytest.raises(BudgetExceededError):
            find_ec_hom(g, rho_t4().graph, budget=SearchBudget(2))
        # a generous budget changes nothing
        rich = find_ec_hom(g, rho_t4().graph, budget=SearchBudget(10**6))
        assert rich == find_ec_hom(g, rho_t4().graph)


class TestFindSignedHom:
    def test_c6_into_t4(self):
        found = find_signed_hom(unbalanced_c6(), build_T4())
        assert found is not None and isinstance(found.switch_set, frozenset)
        assert verify_signed(unbalanced_c6(), build_T4(), found)

    def test_c6_has_no_order3_target(self):
        c6 = unbalanced_c6()
        for mask in range(8):
            assert find_signed_hom(c6, complete_signed_graph(3, mask)) is None

    def test_agrees_with_switch_enumeration(self):
        for i in range(15):
            rng = random.Random(700 + i)
            g = random_signed_graph(rng, rng.randint(1, 8), 0.4)
            h = random_signed_graph(rng, rng.randint(1, 4), 0.7)
            assert (find_signed_hom(g, h) is not None) == signed_hom_exists_brute(g, h)

    def test_monotone_under_target_extension(self):
        rng = random.Random(41)
        hits = 0
        while hits < 10:
            g = random_signed_graph(rng, rng.randint(2, 7), 0.4)
            h = random_signed_graph(rng, 4, 0.5)
            if find_signed_hom(g, h) is None:
                continue
            hits += 1
            extra = [
                (u, v, POS if rng.random() < 0.5 else NEG)
                for u in range(4)
                for v in range(u + 1, 4)
                if not h.has_edge(u, v)
            ]
            bigger = SignedGraph(4, list(h.edges) + extra)
            assert find_signed_hom(g, bigger) is not None

    def test_projection_roundtrip(self):
        g = unbalanced_c6()
        signed = find_signed_hom(g, build_T4())
        lifted = Homomorphism(
            tuple(m + 4 if v in signed.switch_set else m for v, m in enumerate(signed.mapping))
        )
        assert verify_ec(g, rho_t4().graph, lifted.mapping)
        assert ec_to_signed(lifted, 4) == signed


class TestAgainstListReference:
    """The bitset engine against the list-domain search it replaced."""

    @staticmethod
    def spent(search, g, h, domains, limit):
        budget = SearchBudget(limit)
        try:
            return search(g, h, domains=domains, budget=budget), limit - budget.remaining
        except BudgetExceededError:
            return "unknown", limit - budget.remaining

    def test_same_witness_and_budget(self):
        rng = random.Random(90210)
        shuffled = exhausted = 0
        for _ in range(240):
            g = random_signed_graph(rng, rng.randint(0, 9), rng.choice((0.2, 0.4, 0.7)))
            h = random_signed_graph(rng, rng.randint(1, 8), rng.choice((0.5, 0.8)))
            domains = None
            if rng.random() < 0.8:
                domains = []
                for _ in range(g.n):
                    cand = rng.sample(range(h.n), rng.randint(1, h.n))
                    cand += rng.choices(cand, k=rng.randint(0, 2))
                    shuffled += cand != sorted(set(cand))
                    domains.append(cand)
            limit = rng.choice((5, 50, 10**6))
            masks = None if domains is None else [sum(1 << c for c in set(cand)) for cand in domains]
            fast = self.spent(find_ec_hom, g, h, masks, limit)
            assert fast == self.spent(find_ec_hom_reference, g, h, domains, limit)
            exhausted += fast[0] == "unknown"
        assert shuffled > 100 and exhausted > 10

    def test_remaining_counts_the_nodes_on_every_exit(self):
        # found, none and exhausted: the budget ends where the reference's
        # countdown of one per node leaves it
        rng = random.Random(606)
        seen = Counter()
        for _ in range(150):
            g = random_signed_graph(rng, rng.randint(2, 9), rng.choice((0.3, 0.6)))
            h = random_signed_graph(rng, rng.randint(2, 6), 0.7)
            limit = rng.choice((3, 20, 10**6))
            budget, reference = SearchBudget(limit), SearchBudget(limit)
            try:
                got = find_ec_hom(g, h, budget=budget)
            except BudgetExceededError:
                got = "unknown"
                assert budget.remaining == -1
            try:
                want = find_ec_hom_reference(g, h, budget=reference)
            except BudgetExceededError:
                want = "unknown"
            assert got == want
            assert budget.remaining == reference.remaining
            seen["unknown" if got == "unknown" else got is None] += 1
        assert seen["unknown"] > 10 and seen[True] > 10 and seen[False] > 10

    def test_shared_budget_runs_out_at_the_reference_node(self):
        # a sweep of searches on one budget: the same search raises, with
        # the same nodes spent, as on the reference
        rng = random.Random(707)
        ran_out = 0
        for _ in range(40):
            g = random_signed_graph(rng, rng.randint(4, 9), 0.5)
            targets = [random_signed_graph(rng, rng.randint(2, 5), 0.6) for _ in range(6)]
            limit = rng.randint(5, 60)
            runs = []
            for search in (find_ec_hom, find_ec_hom_reference):
                budget, results = SearchBudget(limit), []
                try:
                    for h in targets:
                        results.append(search(g, h, budget=budget))
                except BudgetExceededError:
                    results.append("unknown")
                runs.append((results, budget.remaining))
            assert runs[0] == runs[1]
            ran_out += runs[0][0][-1] == "unknown"
        assert ran_out > 10

    def test_exhausted_budget_raises_at_the_first_node(self):
        g, h = all_positive_cycle(6), rho_t4().graph
        for search in (find_ec_hom, find_ec_hom_reference):
            budget = SearchBudget(1)
            with pytest.raises(BudgetExceededError):
                search(g, h, budget=budget)
            assert budget.remaining == -1
            with pytest.raises(BudgetExceededError):
                search(g, h, budget=budget)
            assert budget.remaining == -2
        # spent to exactly 0, the budget still holds; the next node raises
        budget = SearchBudget(1)
        assert find_ec_hom(SignedGraph(1, []), h, budget=budget) is not None
        assert budget.remaining == 0
        with pytest.raises(BudgetExceededError):
            find_ec_hom(SignedGraph(1, []), h, budget=budget)
        assert budget.remaining == -1

    def test_signed_witness_matches_projected_reference(self):
        rng = random.Random(31337)
        split = 0
        for _ in range(120):
            g = random_signed_graph(rng, rng.randint(1, 9), rng.choice((0.1, 0.25, 0.5)))
            h = random_signed_graph(rng, rng.randint(1, 4), 0.8)
            expected = find_ec_hom_reference(g, antitwin_double(h).graph)
            if expected is not None:
                expected = ec_to_signed(expected, h.n)
            assert find_signed_hom(g, h) == expected
            split += any(g.degree(v) == 0 for v in range(g.n)) and g.edge_count > 0
        assert split > 20

    def test_verify_signed_agrees_with_switched_verify_ec(self):
        rng = random.Random(2718)
        honest = 0
        for _ in range(150):
            g = random_signed_graph(rng, rng.randint(1, 8), 0.5)
            h = random_signed_graph(rng, rng.randint(1, 4), 0.8)
            found = find_signed_hom(g, h)
            candidates = [] if found is None else [found]
            honest += found is not None
            for _ in range(4):
                mapping = tuple(rng.randint(-1, h.n) for _ in range(g.n))
                flipped = frozenset(v for v in range(g.n) if rng.random() < 0.5)
                candidates.append(Homomorphism(mapping, flipped))
                if found is not None:
                    candidates.append(Homomorphism(found.mapping, flipped))
            for hom in candidates:
                expected = verify_ec(switch(g, hom.switch_set), h, hom.mapping)
                assert verify_signed(g, h, hom) == expected
        assert honest > 30


class TestVerifySignedWithMapping:
    def test_identity_coloring_accepts_empty_switch(self):
        t4 = build_T4()
        assert verify_signed_with_mapping(t4, t4, list(range(4))) == frozenset()

    def test_constant_coloring_of_an_edge_rejected(self):
        g = SignedGraph(2, [(0, 1, POS)])
        assert verify_signed_with_mapping(g, build_T4(), [0, 0]) is None

    def test_switched_identity_recovers_the_switch(self):
        t4 = build_T4()
        g = switch(t4, {1})
        found = verify_signed_with_mapping(g, t4, list(range(4)))
        assert found is not None
        assert switch(g, found) == t4


class TestChromaticNumber:
    def test_c6_is_exactly_4_with_t4_witness(self):
        order, target, hom = signed_chromatic_number(unbalanced_c6(), 6)
        assert order == 4
        assert find_isomorphism(target, build_T4()) is not None
        assert verify_signed(unbalanced_c6(), target, hom)

    def test_wheel_exceeds_5_and_hits_6(self):
        w7 = unbalanced_wheel7()
        assert signed_chromatic_number(w7, 5) is None
        order, target, hom = signed_chromatic_number(w7, 6)
        assert order == 6
        assert verify_signed(w7, target, hom)

    def test_trivial_cases(self):
        isolated = SignedGraph(3, [])
        assert signed_chromatic_number(isolated, 3)[0] == 1
        path = SignedGraph(3, [(0, 1, POS), (1, 2, POS)])
        assert signed_chromatic_number(path, 3)[0] == 2
        empty = SignedGraph(0, [])
        assert signed_chromatic_number(empty, 2)[0] == 1

    def test_switch_invariance(self):
        rng = random.Random(4242)
        for _ in range(6):
            g = random_signed_graph(rng, rng.randint(2, 7), 0.5)
            subset = [v for v in range(g.n) if rng.random() < 0.5]
            a = signed_chromatic_number(g, 5)
            b = signed_chromatic_number(switch(g, subset), 5)
            assert (a is None) == (b is None)
            if a is not None:
                assert a[0] == b[0]

    def test_budget_propagates(self):
        with pytest.raises(BudgetExceededError):
            signed_chromatic_number(
                unbalanced_wheel7(), 5, budget=SearchBudget(50)
            )

    def test_all_positive_k7_sweeps_to_order_7(self):
        # every class of orders 1-6 is searched and refused before the
        # all-positive K7, mask 0, the first class of order 7
        k7 = complete_signed_graph(7, 0)
        budget = SearchBudget(10**9)
        order, target, hom = signed_chromatic_number(k7, 7, budget=budget)
        assert order == 7 and target.edges == k7.edges
        assert hom == Homomorphism(tuple(range(7)))
        assert 10**9 - budget.remaining == 5305


def _result_key(result):
    if result is None:
        return None
    order, target, hom = result
    return order, target.edges, hom.mapping, hom.switch_set


class TestClassSkip:
    """The sweep tries one target per switching class, its least mask; the
    first admitting class, its witness, is the plain sweep's first admitting
    canonical target."""

    def assert_matches_the_plain_sweep(self, g, max_order=6):
        search = signedgrids.hom.find_signed_hom
        orders = Counter()

        def counted(g, h, budget=None):
            orders[h.n] += 1
            return search(g, h, budget=budget)

        budget, reference_budget = SearchBudget(10**9), SearchBudget(10**9)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(signedgrids.hom, "find_signed_hom", counted)
            got = signed_chromatic_number(g, max_order, budget=budget)
        want = signed_chromatic_number_reference(g, max_order, budget=reference_budget)
        assert _result_key(got) == _result_key(want)
        # the skipped searches are the only difference: never more nodes
        assert budget.remaining >= reference_budget.remaining
        # one search per class below the answer's order, and at it one per
        # class up to the witness's
        top = max_order if got is None else got[0]
        for order in range(1, top + 1):
            targets = [complete_signed_graph(order, mask).edges for mask, _ in switching_classes(order)]
            tried = len(targets)
            if got is not None and order == top:
                tried = 1 + targets.index(got[1].edges)
            assert orders[order] == tried
        assert set(orders) <= set(range(1, top + 1))

    @pytest.mark.parametrize("kind, size, sample", [("tri", 3, None), ("tri", 4, 20), ("hex", 4, None)])
    def test_grid_classes(self, kind, size, sample):
        # every class of the tri 3x3 (256) and hex 4x4 (8) patches, and a
        # sample of the tri 4x4's 2^18, each switched at a seeded vertex set
        spec = GridSpec(kind, size, size)
        rng = random.Random(16)
        classes = range(1 << spec.edge_count() - len(spec.cells()) + 1)
        for bits in rng.sample(classes, sample) if sample else classes:
            switched = [c for c in spec.cells() if rng.random() < 0.5]
            self.assert_matches_the_plain_sweep(switching_class_grid(spec, bits, switched))

    def test_random_graphs(self):
        rng = random.Random(19)
        for _ in range(40):
            g = random_signed_graph(rng, rng.randint(2, 7), rng.choice((0.3, 0.6, 0.9)))
            self.assert_matches_the_plain_sweep(g)

    def test_one_search_per_class_on_a_no_answer(self, monkeypatch):
        search = signedgrids.hom.find_signed_hom
        orders = Counter()

        def counted(g, h, budget=None):
            orders[h.n] += 1
            return search(g, h, budget=budget)

        monkeypatch.setattr(signedgrids.hom, "find_signed_hom", counted)
        assert signed_chromatic_number(unbalanced_wheel7(), 5) is None
        # 14 searches: the switching class counts of orders 1-5
        assert orders == {1: 1, 2: 1, 3: 2, 4: 3, 5: 7}


class TestKeptTables:
    """A graph's kept sign masks, doubling and search plan equal tables built
    afresh from its adjacency, before and after the searches that read them,
    and keeping them moves no witness and no node count."""

    def assert_fresh(self, graphs):
        for h in graphs:
            assert sign_masks(h) == sign_masks_reference(h)
            assert all(type(row) is tuple for row in sign_masks(h))
            assert antitwin_double(h) is antitwin_double(h)
            double, want = antitwin_double(h).graph, antitwin_double_reference(h)
            assert double == want and double.labels == want.labels
            assert sign_masks(double) == sign_masks_reference(double)
            assert _search_plan(h)[:2] == search_order_reference(h)

    def test_random_graphs(self):
        rng = random.Random(29)
        targets = [h for order in range(1, 6) for h in _class_targets(order)]
        for _ in range(30):
            g = random_signed_graph(rng, rng.randint(1, 7), rng.choice((0.3, 0.6, 0.9)))
            h = random_signed_graph(rng, rng.randint(1, 5), 0.7)
            graphs = [g, h, *targets]
            self.assert_fresh(graphs)
            found = signed_chromatic_number(g, 5)
            domains = [rng.getrandbits(h.n) for _ in range(g.n)]
            find_ec_hom(g, h, domains=domains)
            find_signed_hom(g, h)
            self.assert_fresh(graphs if found is None else [*graphs, found[1]])

    @pytest.mark.parametrize("source, max_order, nodes", [("wheel7", 5, 674), ("tri", 6, 3818), ("hex", 6, 14684)])
    def test_cold_and_warm_sweeps_spend_the_same_nodes(self, source, max_order, nodes):
        # the node counts are those of the sweep that rebuilt every table per target
        if source == "wheel7":
            g = unbalanced_wheel7()
        else:
            spec = GridSpec(source, 4, 4)
            bits = 0b101100111000101101 if source == "tri" else 0b101
            g = switching_class_grid(spec, bits, spec.cells()[::3]).graph()
        _class_targets.cache_clear()
        runs = []
        for _ in range(2):
            budget = SearchBudget(10**9)
            found = signed_chromatic_number(g, max_order, budget=budget)
            runs.append((_result_key(found), 10**9 - budget.remaining))
        assert runs[0] == runs[1]
        assert runs[0][1] == nodes


def seeded_grids(seed, count):
    """Seeded signed hex and tri grids of up to 4x4 cells, half of them
    masked; a mask may split a grid into several components."""
    rng = random.Random(seed)
    for k in range(count):
        kind, rows, cols = rng.choice(("hex", "tri")), rng.randint(2, 4), rng.randint(3, 4)
        mask = None
        if k % 2:
            mask = frozenset(c for c in GridSpec(kind, rows, cols).cells() if rng.random() < 0.7) or None
        spec = GridSpec(kind, rows, cols, mask)
        yield make_grid(spec, random_signature(spec, rng.randrange(10**6), 0.5))


class TestSearchPlan:
    """The plan the searches keep of a source: the reference order and roots,
    each vertex's later neighbors with their signs, and the same searches on
    a grid as on its ``graph()``."""

    def test_order_roots_and_later_neighbors_match_the_reference(self):
        rng = random.Random(43)
        graphs = [random_signed_graph(rng, rng.randint(0, 9), rng.choice((0.2, 0.5))) for _ in range(40)]
        split = 0
        for g in [*graphs, *seeded_grids(44, 80)]:
            ref = g.graph() if isinstance(g, SignedGrid) else g
            order, roots, later = _search_plan(g)
            assert (order, roots) == search_order_reference(ref)
            position = {v: k for k, v in enumerate(order)}
            for v in range(g.n):
                want = {(w, s) for w, s in ref.neighbors(v).items() if position[w] > position[v]}
                assert set(later[v]) == want and len(later[v]) == len(want)
            assert _search_plan(g) is _search_plan(g)
            if isinstance(g, SignedGrid):  # the kept plan is no part of the grid's value
                twin = make_grid(g.grid, g.signs)
                assert g == twin and hash(g) == hash(twin) and repr(g) == repr(twin)
                split += g.grid.mask is not None and len(roots) > 1
        assert split >= 5

    @staticmethod
    def outcome(search, limit):
        # the answer, or "unknown", and the nodes spent
        budget = SearchBudget(limit)
        try:
            return search(budget), limit - budget.remaining
        except BudgetExceededError:
            return "unknown", limit - budget.remaining

    def test_a_grid_searches_as_its_graph(self):
        rng = random.Random(46)
        seen, split = Counter(), 0
        for g in seeded_grids(47, 60):
            limit = rng.choice((40, 400, 10**9))
            runs = [
                self.outcome(lambda budget: _result_key(signed_chromatic_number(source, 6, budget)), limit)
                for source in (g, g.graph())
            ]
            assert runs[0] == runs[1]
            seen[runs[0][0] == "unknown"] += 1
            h = random_signed_graph(rng, rng.randint(2, 6), 0.8)
            for domains in (None, [rng.getrandbits(h.n) for _ in range(g.n)]):
                runs = [
                    self.outcome(lambda budget: find_ec_hom(source, h, domains=domains, budget=budget), limit)
                    for source in (g, g.graph())
                ]
                assert runs[0] == runs[1]
            split += len(_search_plan(g)[1]) > 1
        assert seen[True] >= 5 and seen[False] >= 30 and split >= 5

    def test_a_sweep_never_converts_a_grid(self, monkeypatch):
        def refused(self):
            raise AssertionError("a search converted a grid to a SignedGraph")

        monkeypatch.setattr(SignedGrid, "graph", refused)
        for g in seeded_grids(48, 20):
            signed_chromatic_number(g, 6)
            find_signed_hom(g, build_T4())
            find_ec_hom(g, rho_t4().graph)


class TestTargetEnumeration:
    def test_all_targets_count(self):
        assert sum(1 for _ in all_complete_targets(3)) == 8

    def test_canonical_counts(self):
        assert [len(canonical_complete_targets(n)) for n in range(1, 8)] == [
            1,
            2,
            4,
            11,
            34,
            156,
            1044,
        ]

    def test_canonical_targets_match_the_orbit_loop(self):
        for n in range(7):
            assert canonical_complete_targets(n) == canonical_complete_targets_reference(n)

    def test_switching_classes_match_the_union_find(self):
        # orders 0-6; from order 1 on, the two-graph counts of Mallows and Sloane
        counts = []
        for n in range(7):
            classes = switching_classes(n)
            assert list(classes) == switching_classes_reference(n)
            assert sum(size for _, size in classes) == 1 << (n * (n - 1) // 2)
            # a class's least mask is the least of its isomorphism classes too
            assert {mask for mask, _ in classes} <= set(canonical_complete_targets(n))
            counts.append(len(classes))
        assert counts == [1, 1, 1, 2, 3, 7, 16]

    def test_least_masks_are_normal_forms(self):
        # no negative pair at vertex n - 1: the class is kept as a graph on
        # the other n - 1 vertices
        for n in range(8):
            for mask, _ in switching_classes(n):
                h = complete_signed_graph(n, mask)
                assert all(h.sign(i, n - 1) == POS for i in range(n - 1))

    def test_least_masks_are_the_least_of_their_switchings(self):
        for n in range(6):
            pairs = list(combinations(range(n), 2))
            cuts = [
                sum(1 << k for k, (i, j) in enumerate(pairs) if (s >> i ^ s >> j) & 1)
                for s in range(1 << max(n - 1, 0))
            ]
            for mask, _ in switching_classes(n):
                assert mask == min(mask ^ cut for cut in cuts)

    def test_order_seven_classes(self):
        classes = switching_classes(7)
        assert len(classes) == 54
        assert sum(size for _, size in classes) == 1 << 21
        assert {mask for mask, _ in classes} <= set(canonical_complete_targets(7))

    @pytest.mark.parametrize("n", [-1, -3])
    def test_negative_orders_are_refused(self, n):
        # as complete_signed_graph refuses them; no class of a negative order
        with pytest.raises(ValueError):
            complete_signed_graph(n, 0)
        for enumerate_order in (canonical_complete_targets, switching_classes):
            with pytest.raises(ValueError, match=f"not {n}"):
                enumerate_order(n)

    def test_a_class_admits_as_each_of_its_targets(self):
        # a signed homomorphism into one target of a switching class gives one
        # into every target of the class, so the classes count all admitting masks
        rng = random.Random(31)
        for _ in range(6):
            g = random_signed_graph(rng, 6, 0.6)
            for order in (3, 4):
                admitting = sum(
                    find_signed_hom(g, complete_signed_graph(order, mask)) is not None
                    for mask in range(1 << (order * (order - 1) // 2))
                )
                assert admitting == sum(
                    size
                    for mask, size in switching_classes(order)
                    if find_signed_hom(g, complete_signed_graph(order, mask)) is not None
                )

    def test_orders_above_seven_are_refused(self):
        # the marking array would hold 2^28 bytes at order 8
        for enumerate_order in (canonical_complete_targets, switching_classes):
            with pytest.raises(ValueError, match="up to order 7, not 8"):
                enumerate_order(8)

    def test_canonical_reps_match_bruteforce_minimum(self):
        # oracle for small orders: the minimum over all vertex permutations
        for n in range(2, 5):
            m = n * (n - 1) // 2
            pair_idx = {}
            k = 0
            for i in range(n):
                for j in range(i + 1, n):
                    pair_idx[(i, j)] = k
                    k += 1

            def canon(mask):
                best = None
                for perm in permutations(range(n)):
                    out = 0
                    for (i, j), b in pair_idx.items():
                        if (mask >> b) & 1:
                            a, c = perm[i], perm[j]
                            out |= 1 << pair_idx[(a, c) if a < c else (c, a)]
                    best = out if best is None else min(best, out)
                return best

            expected = sorted({canon(mask) for mask in range(1 << m)})
            assert list(canonical_complete_targets(n)) == expected

    def test_mask_encoding(self):
        h = complete_signed_graph(3, 0b001)
        assert h.sign(0, 1) == NEG and h.sign(0, 2) == POS and h.sign(1, 2) == POS

    @pytest.mark.parametrize("mask", [8, -1])
    def test_masks_outside_the_pair_bits_are_refused(self, mask):
        # 8 would alias mask 0 and -1 an all-negative K3
        with pytest.raises(ValueError, match="outside"):
            complete_signed_graph(3, mask)


class TestInducedTarget:
    def test_recovers_quotient(self):
        g = all_positive_cycle(6)
        target = induced_target(g, [0, 1, 0, 1, 0, 1], 2)
        assert target.edges == ((0, 1, POS),)

    def test_conflicting_signs_rejected(self):
        g = SignedGraph(3, [(0, 1, POS), (1, 2, NEG)])
        with pytest.raises(ValueError):
            induced_target(g, [0, 1, 0], 2)

    def test_identified_edge_rejected(self):
        g = SignedGraph(2, [(0, 1, POS)])
        with pytest.raises(ValueError):
            induced_target(g, [0, 0], 1)


def test_homomorphism_kind_validation():
    encoded = {"kind": "weird", "mapping": [0], "target": {"n": 1, "edges": []}}
    with pytest.raises(ValueError):
        hom_from_dict(encoded)


# ---------------------------------------------------------------------------
# The verifiers against the per-edge reference loop of tests/helpers.py.
# ---------------------------------------------------------------------------


def outcome(f, *args):
    """What a verifier makes of its arguments: its result, or its error."""
    try:
        return f(*args)
    except Exception as exc:  # both sides must fail alike, whatever the error
        return type(exc).__name__, str(exc)


def forgeries(rng: random.Random, hom: Homomorphism, n: int, target_n: int) -> list[Homomorphism]:
    """``hom`` and forged variants: a mapping entry out of range on either
    side or changed within range, a switch entry out of range or toggled,
    and a mapping one entry short or long."""
    m, flipped = list(hom.mapping), hom.switch_set
    out = [hom, Homomorphism(tuple(m[:-1]), flipped), Homomorphism(tuple(m + [0]), flipped)]
    out += [Homomorphism(tuple(m), flipped | {bad}) for bad in (-1, n)]
    if m:
        v = rng.randrange(len(m))
        for bad in (-1, target_n, (m[v] + rng.randrange(1, target_n)) % target_n if target_n > 1 else 0):
            out.append(Homomorphism(tuple(m[:v] + [bad] + m[v + 1 :]), flipped))
        out.append(Homomorphism(tuple(m), flipped ^ {rng.randrange(n)}))
    return out


def assert_verifiers_agree(g, h, hom: Homomorphism, rng: random.Random) -> int:
    """Every verifier on ``hom`` and its forgeries gives the reference's
    verdict; returns how many it accepted."""
    accepted = 0
    for forged in forgeries(rng, hom, g.n, h.n):
        verdict = outcome(verify_signed, g, h, forged)
        assert verdict == outcome(verify_signed_reference, g, h, forged)
        assert outcome(verify_ec, g, h, forged.mapping) == outcome(verify_ec_reference, g, h, forged.mapping)
        accepted += verdict is True
    return accepted


class TestVerifiersMatchTheReference:
    def test_random_graphs(self):
        rng = random.Random(4242)
        accepted = 0
        for _ in range(200):
            g = random_signed_graph(rng, rng.randint(1, 9), rng.choice((0.2, 0.5)))
            h = random_signed_graph(rng, rng.randint(1, 5), 0.8)
            hom = find_signed_hom(g, h)
            if hom is None:
                flipped = frozenset(v for v in range(g.n) if rng.random() < 0.5)
                hom = Homomorphism(tuple(rng.randrange(h.n) for _ in range(g.n)), flipped)
            accepted += assert_verifiers_agree(g, h, hom, rng)
        assert accepted > 50

    @pytest.mark.parametrize("masked", [False, True], ids=["unmasked", "masked"])
    def test_grids_and_their_certificates(self, masked):
        # honest colorer certificates, as ec witnesses into the doubled target
        # and as signed ones into the base target, on a grid whose spec has
        # not yet computed its edge columns, on one whose spec keeps them
        # after graph(), and as a graph
        rng = random.Random(31 if masked else 30)
        for _ in range(40):
            kind, rows, cols = rng.choice(("hex", "tri")), rng.randint(2, 7), rng.randint(2, 7)
            mask = None
            if masked:
                mask = frozenset(c for c in GridSpec(kind, rows, cols).cells() if rng.random() < 0.7) or None
            spec = GridSpec(kind, rows, cols, mask)
            signs = random_signature(spec, rng.randrange(10**6), 0.5)
            if kind == "hex":
                ec, base, doubled = color_hex(make_grid(spec, signs)), build_T4(), rho_t4().graph
            else:
                ec, base, doubled = color_tri(make_grid(spec, signs))[0], sp9_plus(), rho_sp9_plus().graph
            signed = ec_to_signed(ec, base.n)
            fresh = make_grid(GridSpec(kind, rows, cols, mask), signs)
            converted = make_grid(spec, signs)
            converted.graph()
            for g in (fresh, converted, converted.graph()):
                assert assert_verifiers_agree(g, doubled, ec, rng) >= 1
                assert assert_verifiers_agree(g, base, signed, rng) >= 1

    def test_one_changed_entry_on_a_large_grid(self):
        # the verdict on a 40x40 certificate with one entry changed, at the
        # start, the middle and the end of the edge order
        rng = random.Random(7)
        for kind in ("hex", "tri"):
            spec = GridSpec(kind, 40, 40)
            g = make_grid(spec, random_signature(spec, 3, 0.5))
            ec = color_hex(g) if kind == "hex" else color_tri(g)[0]
            doubled = (rho_t4() if kind == "hex" else rho_sp9_plus()).graph
            for v in (0, g.n // 2, g.n - 1):
                m = list(ec.mapping)
                m[v] = (m[v] + rng.randrange(1, doubled.n)) % doubled.n
                assert verify_ec(g, doubled, m) == verify_ec_reference(g, doubled, m)
