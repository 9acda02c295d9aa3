"""End-to-end acceptance suite.

Each test exercises one headline guarantee of the package at its stated time
budget and prints one PASS/FAIL line (visible with ``pytest -s`` or in the
captured output).  All checks are exact; there are no tolerances.
"""

import random
import time

from signedgrids import (
    POS,
    GridSpec,
    all_c4_unbalanced_grid,
    build_T4,
    canonical_complete_targets,
    check_antiautomorphic,
    check_pkn,
    check_pstar21,
    check_transitivity,
    color_hex,
    color_tri,
    complete_signed_graph,
    find_isomorphism,
    find_signed_hom,
    make_grid,
    random_signature,
    rho_sp9_plus,
    rho_t4,
    sign_masks,
    signed_chromatic_number,
    sp5_plus,
    switch,
    unbalanced_c6,
    unbalanced_wheel7,
    verify_ec,
    verify_signed,
)
from signedgrids.hom import ec_to_signed, find_ec_hom
from signedgrids.props import pstar21_excluded_pairs

from helpers import (
    all_complete_targets,
    compatible_colors_reference,
    enumerate_c4,
    induced_target,
    is_unbalanced,
    random_signed_graph,
    verify_signed_with_mapping,
)


def _run(number, name, budget_s, body):
    start = time.perf_counter()
    ok = False
    try:
        body()
        ok = True
    finally:
        elapsed = time.perf_counter() - start
        status = "PASS" if ok else "FAIL"
        print(f"criterion {number:2d} [{status}] {name}: {elapsed:.2f}s (budget {budget_s:g}s)")
    assert elapsed < budget_s, f"criterion {number} exceeded its {budget_s}s budget"


def test_criterion_01_weak_pair_property_of_doubled_t4():
    def body():
        atg = rho_t4()
        assert check_pkn(atg.graph, 1, 3).holds
        assert check_pstar21(atg).holds
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
        # direct scan: adjacent pairs with no common positive neighbor
        g = atg.graph
        pos = sign_masks(g)[POS]
        empty_pairs = {
            frozenset({u, v})
            for u in range(g.n)
            for v in range(u + 1, g.n)
            if g.has_edge(u, v) and not pos[u] & pos[v]
        }
        expected = set(pstar21_excluded_pairs(atg))
        assert normalized == expected
        assert empty_pairs == expected

    _run(1, "doubled-T4 extension properties and exact failure set", 1.0, body)


def test_criterion_02_doubled_sp9_plus_property_suite():
    def body():
        g = rho_sp9_plus().graph
        assert g.n == 20
        assert check_pkn(g, 1, 9).holds
        assert check_pkn(g, 2, 4).holds
        assert check_pkn(g, 3, 1).holds
        assert check_transitivity(g, 1).holds
        assert check_transitivity(g, 2).holds
        assert check_antiautomorphic(g) is not None

    _run(2, "doubled-SP9+ property suite on 20 vertices", 60.0, body)


def test_criterion_03_hexagonal_upper_bound_500_grids():
    def body():
        target = rho_t4().graph
        for i in range(500):
            rng = random.Random(3000 + i)
            rows, cols = rng.randint(1, 12), rng.randint(1, 12)
            p = (0.2, 0.5, 0.8)[i % 3]
            spec = GridSpec("hex", rows, cols)
            g = make_grid(spec, random_signature(spec, seed=i, p_negative=p))
            hom = color_hex(g)  # raises on any internal exhaustion
            assert verify_ec(g, target, hom.mapping)
            assert len(set(ec_to_signed(hom, 4).mapping)) <= 4

    _run(3, "500 random hexagonal grids color into doubled T4", 30.0, body)


def test_criterion_04_hexagonal_lower_bound_equals_four():
    def body():
        c6 = unbalanced_c6()
        for mask in range(8):
            assert find_signed_hom(c6, complete_signed_graph(3, mask)) is None
        assert find_signed_hom(c6, build_T4()) is not None
        order, _, _ = signed_chromatic_number(c6, 4)
        assert order == 4

    _run(4, "unbalanced hexagon needs exactly 4 colors", 5.0, body)


def test_criterion_05_triangular_upper_bound_500_grids():
    def body():
        target = rho_sp9_plus().graph
        for i in range(500):
            rng = random.Random(5000 + i)
            rows, cols = rng.randint(1, 12), rng.randint(1, 12)
            p = (0.2, 0.5, 0.8)[i % 3]
            spec = GridSpec("tri", rows, cols)
            g = make_grid(spec, random_signature(spec, seed=i, p_negative=p))
            hom, trace = color_tri(g)
            assert verify_ec(g, target, hom.mapping)
            assert trace.min_size() >= 2

    _run(5, "500 random triangular grids color into doubled SP9+", 60.0, body)


def test_criterion_06_row_case_table():
    def body():
        target = rho_sp9_plus().graph
        pair = {target.label(c) for c in compatible_colors_reference(target, [(0, POS), (1, POS)])}
        assert pair == {"2+", "inf+", "x+2-", "2x+2-"}
        single = {target.label(c) for c in compatible_colors_reference(target, [(0, POS)])}
        assert single == {
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

    _run(6, "row DP candidate sets match the fixed case table", 1.0, body)


def test_criterion_07_wheel_lower_bound():
    def body():
        w7 = unbalanced_wheel7()
        admitting = 0
        count = 0
        for h in all_complete_targets(5):
            count += 1
            if find_signed_hom(w7, h) is not None:
                admitting += 1
        assert count == 1024 and admitting == 0
        witness = None
        for mask in canonical_complete_targets(6):
            h = complete_signed_graph(6, mask)
            found = find_signed_hom(w7, h)
            if found is not None:
                witness = (h, found)
                break
        assert witness is not None
        assert verify_signed(w7, witness[0], witness[1])

    _run(7, "unbalanced wheel: no order-5 target, order-6 witness", 120.0, body)


def test_criterion_08_periodic_fixture():
    def body():
        g, coloring = all_c4_unbalanced_grid(12, 12)
        cycles = enumerate_c4(g)
        assert cycles and all(is_unbalanced(g, c) for c in cycles)
        mapping = [coloring[v] for v in range(g.n)]
        target = induced_target(g, mapping, 6)
        iso = find_isomorphism(target, sp5_plus())
        assert iso is not None
        assert verify_signed_with_mapping(g, sp5_plus(), [iso[m] for m in mapping]) is not None

    _run(8, "12x12 periodic fixture: all C4 unbalanced, 6-coloring onto SP5+", 30.0, body)


def test_criterion_09_signed_hom_oracle_agreement():
    def body():
        for i in range(50):
            rng = random.Random(9000 + i)
            g = random_signed_graph(rng, rng.randint(1, 10), 0.35)
            h = random_signed_graph(rng, rng.randint(1, 4), 0.7)
            fast = find_signed_hom(g, h) is not None
            brute = False
            for bits in range(1 << g.n):
                subset = [v for v in range(g.n) if (bits >> v) & 1]
                if find_ec_hom(switch(g, subset), h) is not None:
                    brute = True
                    break
            assert fast == brute, f"disagreement on instance {i}"

    _run(9, "doubling search agrees with switch enumeration on 50 instances", 120.0, body)


def test_criterion_10_exactness_cross_check():
    def body():
        for i in range(50):
            rng = random.Random(10000 + i)
            kind = "hex" if i % 2 == 0 else "tri"
            while True:
                rows, cols = rng.randint(1, 10), rng.randint(1, 10)
                if rows * cols <= 10:
                    break
            spec = GridSpec(kind, rows, cols)
            g = make_grid(spec, random_signature(spec, seed=i, p_negative=rng.choice((0.2, 0.5, 0.8))))
            if kind == "hex":
                hom = color_hex(g)
                assert verify_ec(g, rho_t4().graph, hom.mapping)
                constructive_bound = 4
            else:
                hom, _ = color_tri(g)
                assert verify_ec(g, rho_sp9_plus().graph, hom.mapping)
                constructive_bound = 10
            result = signed_chromatic_number(g, 6)
            if kind == "hex":
                assert result is not None  # the bound of 4 is below the cap
            if result is not None:
                assert result[0] <= min(constructive_bound, 6)
                assert verify_signed(g, result[1], result[2])

    _run(10, "exact chromatic search never contradicts a colorer certificate", 300.0, body)
